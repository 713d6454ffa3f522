"""Report digests of the whole catalog: every entry under every command
that applies to its kind, over Q, Z, Z/4 and Z/5, run in-process.

report_digests.json holds, per run, the exit code and the sha256 of the
text report with the input-digest line blanked, as perfbench blanks it.
A change that alters any report byte shows here.  To record the file
afresh, run ``python tests/test_report_digests.py``.
"""

import hashlib
import io
import json
import os
import re
from contextlib import redirect_stderr, redirect_stdout

import dense_oracle
from groupoidal import catalog
from groupoidal.cli import main
from groupoidal.skew_rings import CovarianceModule

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "report_digests.json")
RINGS = ("Q", "Z", "Z/4", "Z/5")
DIGEST_LINE = re.compile(r"^(input: \S+ sha256=)([0-9a-f]{64})$", re.M)


def _runs():
    """(command, entry) for every catalog entry and every command that
    applies to its kind."""
    runs = []
    for command, names in (("validate", catalog.action_names()
                            + catalog.groupoid_names()
                            + catalog.semigroup_names()
                            + catalog.pair_names()),
                           ("theorem3", catalog.action_names()),
                           ("theorem5", catalog.groupoid_names()),
                           ("equivalence", catalog.pair_names())):
        runs += [(command, name) for name in names]
    return runs


def report_digests(commands=None):
    digests = {}
    for command, name in _runs():
        if commands is not None and command not in commands:
            continue
        for ring in RINGS:
            out = io.StringIO()
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = main([command, name, "--ring", ring])
            text = DIGEST_LINE.sub(r"\1-", out.getvalue())
            digests[f"{command} {name} {ring}"] = [
                code, hashlib.sha256(text.encode()).hexdigest()]
    return digests


def test_reports_match_recorded_digests():
    with open(DIGESTS) as handle:
        recorded = json.load(handle)
    assert report_digests() == recorded


def test_commands_never_build_a_dense_l(monkeypatch):
    """With every function that builds whole rows of L made to raise,
    theorem3, theorem5 and equivalence on the catalog give the recorded
    reports."""
    def refuse(*args):
        raise AssertionError("a dense row of L was built")

    monkeypatch.setattr(CovarianceModule, "row", refuse)
    monkeypatch.setattr(dense_oracle, "dense_table", refuse)
    with open(DIGESTS) as handle:
        recorded = json.load(handle)
    commands = ("theorem3", "theorem5", "equivalence")
    digests = report_digests(commands)
    assert len(digests) == 4 * sum(command in commands
                                   for command, _ in _runs())
    assert digests == {key: value for key, value in recorded.items()
                       if key.split()[0] in commands}


if __name__ == "__main__":
    # One run per line, so a re-recorded run shows as one changed line.
    rows = [f"{json.dumps(key)}: {json.dumps(value)}"
            for key, value in sorted(report_digests().items())]
    with open(DIGESTS, "w") as handle:
        handle.write("{\n" + ",\n".join(rows) + "\n}\n")
