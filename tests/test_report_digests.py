"""Report digests of the whole catalog: every entry under every command
that applies to its kind, over Q, Z, Z/4 and Z/5, run in-process.  Also
of a fixed, seeded set of corrupted action and pair documents, made from
the catalog's by JSON edits alone, under the commands that apply to
their kind over Q: they reach the failing validator paths, which no
catalog entry does.  And of relabeled groupoids, under validate and
theorem5 over Q: arrows named by numbers whose string order is not
their order in the document, which pins how a report sorts the labels
of a bisection.

report_digests.json holds, per run, the exit code and the sha256 of the
text report with the input-digest line blanked, as perfbench blanks it.
A change that alters any report byte shows here.  To record the file
afresh, the catalog, the corrupted and the relabeled documents together,
run
``python tests/test_report_digests.py``.
"""

import copy
import hashlib
import io
import json
import os
import random
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import dense_oracle
import catalog
from families import cyclic_bundle_spec, pair_groupoid_spec
from groupoidal.cli import main
from groupoidal.skew_rings import CovarianceModule
from groupoidal.specfiles import resolve_input

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


def _digest(command, source, ring):
    """The exit code and the report digest of one in-process run."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main([command, source, "--ring", ring])
    text = DIGEST_LINE.sub(r"\1-", out.getvalue())
    return [code, hashlib.sha256(text.encode()).hexdigest()]


def report_digests(commands=None):
    digests = {}
    for command, name in _runs():
        if commands is not None and command not in commands:
            continue
        for ring in RINGS:
            digests[f"{command} {name} {ring}"] = _digest(command, name, ring)
    return digests


CORRUPTED = 48


def _catalog_json(name):
    with open(resolve_input(name), "rb") as handle:
        return json.load(handle)


def _corrupt(action, rng):
    """One JSON edit of an action document, mostly to an element other
    than e: a map value moved, a map entry dropped or added, two values
    of a map swapped, a domain point dropped or added, a domain emptied
    with its map, a map permuted on its values with the maps that were
    its inverse changed to match, which keeps the maps inverse
    bijections, or, rarely, a point the space does not list."""
    space, domains, maps = action["space"], action["domains"], action["maps"]
    others = [g for g in sorted(maps) if g != "e"]
    g = rng.choice(others if others and rng.random() < 0.85 else sorted(maps))
    m, kind = maps[g], rng.randrange(13)
    if kind < 2 and m:
        m[rng.choice(sorted(m))] = rng.choice(space)
    elif kind < 3 and m:
        del m[rng.choice(sorted(m))]
    elif kind < 4:
        m[rng.choice(space)] = rng.choice(space)
    elif kind < 6 and len(m) > 1:
        x, y = rng.sample(sorted(m), 2)
        m[x], m[y] = m[y], m[x]
    elif kind < 7 and domains[g]:
        domains[g].remove(rng.choice(domains[g]))
    elif kind < 8:
        domains[g].append(rng.choice(space))
    elif kind < 9:
        domains[g], maps[g] = [], {}
    elif kind < 12:
        inverse = {y: x for x, y in m.items()}
        images = list(m.values())
        rng.shuffle(images)
        maps[g] = dict(zip(m, images))
        for h in sorted(maps):
            if h != g and maps[h] == inverse:
                maps[h] = {y: x for x, y in maps[g].items()}
    else:
        domains[g].append("nowhere")


def corrupted_documents():
    """(name, document) of CORRUPTED edited copies of the catalog's action
    documents and of its pairs, their sides inlined, seeded: one or two
    edits each, to a pair on one side."""
    rng = random.Random(31)
    actions = [_catalog_json(name) for name in catalog.action_names()]
    pairs = [_catalog_json(name) for name in catalog.pair_names()]
    documents = []
    for k in range(CORRUPTED):
        if k % 3 == 2:
            data = copy.deepcopy(rng.choice(pairs))
            for side in ("left", "right"):
                if isinstance(data[side], str):
                    data[side] = _catalog_json(data[side])
            target = data[rng.choice(["left", "right"])]
        else:
            data = target = copy.deepcopy(rng.choice(actions))
        for _ in range(rng.randint(1, 2)):
            _corrupt(target, rng)
        data["name"] = f"corrupted_{k:02d}"
        documents.append((data["name"], data))
    return documents


def corrupted_digests():
    """The digests of each corrupted document under validate and, for an
    action, theorem3, for a pair, equivalence, over Q."""
    digests = {}
    with tempfile.TemporaryDirectory() as directory:
        for name, data in corrupted_documents():
            path = os.path.join(directory, name + ".json")
            with open(path, "w") as handle:
                json.dump(data, handle)
            second = "theorem3" if data["kind"] == "action" else "equivalence"
            for command in ("validate", second):
                digests[f"{command} {name} Q"] = _digest(command, path, "Q")
    return digests


def relabeled_documents():
    """(name, document) of pair groupoids 3 and 4 and a bundle of cyclic
    groups with arrow k, in document order, renamed str(k + 7): "10" sorts
    before "7"."""
    documents = []
    for spec in (pair_groupoid_spec(3), pair_groupoid_spec(4),
                 cyclic_bundle_spec((2, 3, 5))):
        name = dict(zip(spec["arrows"], map(str, range(7, 7 + len(
            spec["arrows"])))))
        pairs = (key.split() for key in spec["compose"])
        documents.append((f"relabeled_{spec['name']}", {
            **spec, "name": f"relabeled_{spec['name']}",
            "arrows": [name[a] for a in spec["arrows"]],
            "units": [name[u] for u in spec["units"]],
            "inverse": {name[a]: name[b] for a, b in spec["inverse"].items()},
            "compose": {f"{name[b]} {name[c]}": name[d] for (b, c), d in
                        zip(pairs, spec["compose"].values())}}))
    return documents


def relabeled_digests():
    """The digests of each relabeled document under validate and
    theorem5 over Q."""
    digests = {}
    with tempfile.TemporaryDirectory() as directory:
        for name, data in relabeled_documents():
            path = os.path.join(directory, name + ".json")
            with open(path, "w") as handle:
                json.dump(data, handle)
            for command in ("validate", "theorem5"):
                digests[f"{command} {name} Q"] = _digest(command, path, "Q")
    return digests


def _catalog_run(key):
    return not key.split()[1].startswith(("corrupted_", "relabeled_"))


def test_reports_match_recorded_digests():
    with open(DIGESTS) as handle:
        recorded = json.load(handle)
    assert report_digests() == {key: value for key, value in recorded.items()
                                if _catalog_run(key)}


def test_corrupted_documents_match_recorded_digests():
    with open(DIGESTS) as handle:
        recorded = json.load(handle)
    digests = corrupted_digests()
    assert len(digests) == 2 * CORRUPTED
    assert digests == {key: value for key, value in recorded.items()
                       if "corrupted_" in key}
    # The edits reach failing validators, input errors and passing runs.
    codes = [code for code, _ in digests.values()]
    assert codes.count(1) > 30 and codes.count(2) > 0 and codes.count(0) > 5


def test_relabeled_documents_match_recorded_digests():
    with open(DIGESTS) as handle:
        recorded = json.load(handle)
    digests = relabeled_digests()
    assert len(digests) == 6
    assert digests == {key: value for key, value in recorded.items()
                       if "relabeled_" in key}
    assert all(code == 0 for code, _ in digests.values())


def test_commands_never_build_a_dense_l(monkeypatch):
    """With every function that builds whole rows of L made to raise, and
    Light's test, which reads every row, refused on L (L/I, held as its
    classes, has no product to test), theorem3, theorem5 and equivalence
    on the catalog give the recorded reports."""
    def refuse(*args):
        raise AssertionError("a dense row of L was built")

    monkeypatch.setattr(CovarianceModule, "associativity_counterexample",
                        refuse)
    monkeypatch.setattr(dense_oracle, "product_rows", refuse)
    monkeypatch.setattr(dense_oracle, "dense_table", refuse)
    with open(DIGESTS) as handle:
        recorded = json.load(handle)
    commands = ("theorem3", "theorem5", "equivalence")
    digests = report_digests(commands)
    assert len(digests) == 4 * sum(command in commands
                                   for command, _ in _runs())
    assert digests == {key: value for key, value in recorded.items()
                       if key.split()[0] in commands and _catalog_run(key)}


if __name__ == "__main__":
    # One run per line, so a re-recorded run shows as one changed line.
    rows = [f"{json.dumps(key)}: {json.dumps(value)}"
            for key, value in sorted({**report_digests(),
                                      **corrupted_digests(),
                                      **relabeled_digests()}.items())]
    with open(DIGESTS, "w") as handle:
        handle.write("{\n" + ",\n".join(rows) + "\n}\n")
