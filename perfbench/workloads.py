"""The four benchmark workloads: which CLI jobs each one runs, on which
generated inputs, and what each job must print.

A workload is written into a directory by :func:`write_workload`, which
returns its jobs.  Every job is one `groupoidal` invocation on one
generated file.  Jobs with a golden are checked against the exit code and
report digest recorded in goldens.json; the closed-form values in
`Job.closed` are checked on every job that exits 0.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field

import specgen

WORKLOADS = ("catalog", "theorem5", "actions", "semigroups")

# Longest any job may run, and the limit on the 16-arrow pair groupoid.
# The default bisection bound admits that input and it runs for hours; a
# cost-bounded engine must finish or exit 3 well inside the 30 s the
# roadmap allows.  10 s keeps the benchmark inside its time budget.
JOB_LIMIT_S = 90.0
PAIR4_LIMIT_S = 10.0

SEARCH_BOUNDS = ["--iso-bound", "64", "--orbit-bound", "8"]


@dataclass
class Job:
    id: str
    command: str
    file: str
    flags: list = field(default_factory=list)
    limit: float = JOB_LIMIT_S
    exits: tuple = (0,)
    golden: bool = True
    closed: dict = field(default_factory=dict)
    fail_row: str = ""

    def argv(self, directory):
        return [self.command, os.path.join(directory, self.file), *self.flags]


@dataclass
class Written:
    """A workload written to disk: its jobs, the env the jobs need, the
    seeded name prefix, and the sha256 of every file written."""
    jobs: list
    env: dict
    prefix: str
    digests: dict


def _write(directory, name, spec, prefix, rng, digests):
    raw = json.dumps(specgen.disguise(spec, prefix, rng)).encode()
    with open(os.path.join(directory, name), "wb") as handle:
        handle.write(raw)
    digests[name] = hashlib.sha256(raw).hexdigest()
    return name


def _catalog(root, directory, prefix, rng, digests):
    """Every applicable command on every shipped catalog entry.  Pairs name
    their sides, so the disguised copies become the catalog the CLI sees."""
    source = os.path.join(root, "src", "groupoidal", "data", "catalog")
    target = os.path.join(directory, "catalog")
    os.makedirs(target, exist_ok=True)
    validate, extra = [], []
    for entry in sorted(os.listdir(source)):
        if not entry.endswith(".json"):
            continue
        with open(os.path.join(source, entry), encoding="utf-8") as handle:
            spec = json.load(handle)
        path = _write(directory, os.path.join("catalog", entry), spec,
                      prefix, rng, digests)
        stem = entry[:-5]
        validate.append(Job(f"validate/{stem}", "validate", path))
        if spec["kind"] == "action":
            extra.append(Job(f"theorem3/{stem}", "theorem3", path,
                             closed=specgen.theorem3_ledger(
                                 specgen.action_arrows(spec))))
        elif spec["kind"] == "groupoid" and stem != "pair_groupoid_3":
            order, dim_l = specgen.groupoid_census(spec)
            extra.append(Job(f"theorem5/{stem}", "theorem5", path,
                             closed=specgen.theorem5_ledger(
                                 order, dim_l, len(spec["arrows"]))))
        elif spec["kind"] == "pair":
            extra.append(Job(f"equivalence/{stem}", "equivalence", path))
    return validate + extra, {"GROUPOIDAL_CATALOG": target}


def _theorem5(root, directory, prefix, rng, digests):
    jobs = []
    rungs = [(specgen.pair_groupoid(n), specgen.sym_inverse_order(n),
              specgen.pair_groupoid_dim_l(n), n * n) for n in (2, 3)]
    rungs += [(specgen.cyclic_bundle(ks), specgen.bundle_order(ks),
               specgen.bundle_dim_l(ks), sum(ks)) for ks in ((2, 2, 2), (4, 4))]
    for spec, order, dim_l, arrows in rungs:
        name = spec["name"] + ".json"
        _write(directory, name, spec, prefix, rng, digests)
        jobs.append(Job(f"theorem5/{spec['name']}", "theorem5", name,
                        closed=specgen.theorem5_ledger(order, dim_l, arrows)))
    spec = specgen.pair_groupoid(4)
    _write(directory, "pair_groupoid_4.json", spec, prefix, rng, digests)
    jobs.append(Job("theorem5/pair_groupoid_4", "theorem5",
                    "pair_groupoid_4.json", limit=PAIR4_LIMIT_S, exits=(0, 3),
                    golden=False, closed=specgen.theorem5_ledger(
                        specgen.sym_inverse_order(4),
                        specgen.pair_groupoid_dim_l(4), 16)))
    return jobs, {}


def _actions(root, directory, prefix, rng, digests):
    jobs = []
    for spec in (specgen.rotation_action(8), specgen.rotation_action(10),
                 specgen.rotation_action(12, points=range(8))):
        name = spec["name"] + ".json"
        _write(directory, name, spec, prefix, rng, digests)
        jobs.append(Job(f"theorem3/{spec['name']}", "theorem3", name,
                        closed=specgen.theorem3_ledger(
                            specgen.action_arrows(spec))))
    shuffled = list(range(7))
    rng.shuffle(shuffled)
    pairs = [
        (specgen.action_pair(specgen.rotation_action(7),
                             specgen.rotation_action(7, perm=shuffled),
                             "z7_vs_relabeled"), "found"),
        (specgen.action_pair(specgen.rotation_action(8),
                             specgen.trivial_action(8),
                             "z8_vs_trivial"), "exhausted"),
    ]
    for spec, verdict in pairs:
        name = spec["name"] + ".json"
        _write(directory, name, spec, prefix, rng, digests)
        jobs.append(Job(f"equivalence/{spec['name']}", "equivalence", name,
                        flags=SEARCH_BOUNDS,
                        closed={"iso": [verdict], "orbit": [verdict]}))
    return jobs, {}


def _semigroups(root, directory, prefix, rng, digests):
    i3 = specgen.symmetric_inverse_monoid(3)
    i4 = specgen.symmetric_inverse_monoid(4)
    bad = specgen.corrupt_zero_row(i4, rng)
    names = [_write(directory, spec["name"] + ".json", spec, prefix, rng,
                    digests) for spec in (i3, i4, bad)]
    jobs = [Job(f"validate/{spec['name']}", "validate", name)
            for spec, name in zip((i3, i4), names)]
    jobs.append(Job(f"validate/{bad['name']}", "validate", names[2],
                    exits=(1,), golden=False,
                    fail_row="inverse_semigroup_axioms"))
    return jobs, {}


_BUILDERS = {"catalog": _catalog, "theorem5": _theorem5,
             "actions": _actions, "semigroups": _semigroups}


def write_workload(name, root, directory, seed):
    """Generate and write one workload's inputs from `seed`."""
    os.makedirs(directory, exist_ok=True)
    rng = random.Random(f"{name}-{seed}")
    prefix = specgen.seed_prefix(seed)
    digests = {}
    jobs, env = _BUILDERS[name](root, directory, prefix, rng, digests)
    return Written(jobs, env, prefix, digests)
