"""Tests of the benchmark itself: its generators, closed forms, goldens
and span accounting.  Run with `PYTHONPATH=src python3 -m pytest perfbench`.
"""

import json
import os
import random
import subprocess
import sys
import time

import pytest

import layers
import run
import specgen
import workloads

from groupoidal import cli

SLOW_TO_VALIDATE = {"sym_inv_4.json"}  # 12 s; same generator as sym_inv_3


@pytest.mark.parametrize("n,order,dim_l", [(1, 2, 1), (2, 7, 8),
                                           (3, 34, 63)])
def test_pair_groupoid_closed_forms_match_brute_force(n, order, dim_l):
    spec = specgen.pair_groupoid(n)
    assert specgen.groupoid_census(spec) == (order, dim_l)
    assert specgen.sym_inverse_order(n) == order
    assert specgen.pair_groupoid_dim_l(n) == dim_l


def test_sixteen_arrow_ledger():
    assert (specgen.sym_inverse_order(4), specgen.pair_groupoid_dim_l(4)) \
        == (209, 544)


@pytest.mark.parametrize("orders", [(2,), (3,), (2, 2, 2), (4, 4), (2, 3)])
def test_bundle_closed_forms_match_brute_force(orders):
    spec = specgen.cyclic_bundle(orders)
    assert specgen.groupoid_census(spec) == (specgen.bundle_order(orders),
                                             specgen.bundle_dim_l(orders))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_symmetric_inverse_monoid_has_closed_form_order(n):
    spec = specgen.symmetric_inverse_monoid(n)
    assert len(spec["elements"]) == specgen.sym_inverse_order(n)
    assert len(spec["table"]) == len(spec["elements"]) ** 2


def test_action_arrows_count_domains():
    assert specgen.action_arrows(specgen.rotation_action(8)) == 64
    assert specgen.action_arrows(
        specgen.rotation_action(12, points=range(8))) == 64


def test_disguise_keeps_values_and_changes_names():
    spec = specgen.pair_groupoid(2)
    out = specgen.disguise(spec, "#ab", random.Random(3))
    assert out["arrows"] == ["#ab" + a for a in spec["arrows"]]
    assert out["compose"]["#aba0_1 #aba1_0"] == "#aba0_0"


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    base = tmp_path_factory.mktemp("workloads")
    return {name: (str(base / name), workloads.write_workload(
        name, run.ROOT, str(base / name), seed=7))
        for name in workloads.WORKLOADS}


def test_generated_specs_validate_except_the_corrupted_one(
        written, monkeypatch, capsys):
    for name, (directory, w) in written.items():
        for key, value in w.env.items():
            monkeypatch.setenv(key, value)
        for job in w.jobs:
            if job.command != "validate" and name == "catalog":
                continue
            if os.path.basename(job.file) in SLOW_TO_VALIDATE:
                continue
            code = cli.main(["validate", os.path.join(directory, job.file)])
            capsys.readouterr()
            expected = 1 if job.file.endswith("_corrupt.json") else 0
            if name == "catalog":
                expected = run.load_goldens()["catalog"][job.id]["exit"]
            assert code == expected, job.id


def test_same_seed_same_inputs(tmp_path):
    a = workloads.write_workload("actions", "", str(tmp_path / "a"), 5)
    b = workloads.write_workload("actions", "", str(tmp_path / "b"), 5)
    assert a.digests == b.digests


def test_goldens_hold_for_other_seeds(tmp_path, capsys):
    goldens = run.load_goldens()["theorem5"]
    for seed in (11, 12):
        directory = str(tmp_path / str(seed))
        w = workloads.write_workload("theorem5", "", directory, seed)
        job = w.jobs[0]
        code = cli.main(job.argv(directory))
        report = capsys.readouterr().out
        assert code == goldens[job.id]["exit"]
        assert run.normalized_digest(report, w.prefix) == \
            goldens[job.id]["sha256"]


def test_self_times_add_up():
    spans = [(1, "scalars.SpanTracker.reduce", 1.0, 2.0, 2),
             (2, "scalars.SpanTracker.add", 0.5, 3.0, 3),
             (4, "scalars.SpanTracker.reduce", 3.5, 4.0, 3),
             (3, "skew_rings.build_ideal", 0.0, 5.0, None),
             (5, "cli.import", 6.0, 7.0, None),
             # The parent of this span never closed (job stopped).
             (6, "skew_rings.build_quotient", 8.0, 9.0, 99)]
    own = layers.self_times(spans)
    assert own == {1: 1.0, 2: 1.5, 4: 0.5, 3: 2.0, 5: 1.0, 6: 1.0}
    totals = layers.layer_totals(spans)
    # Self times add up to the root spans' durations: 5 + 1 + 1.
    assert sum(totals.values()) == pytest.approx(7.0)
    assert totals["scalars.span_s"] == 3.0


def test_traced_job_accounts_for_its_wall_time(written, tmp_path):
    directory, w = written["theorem5"]
    job = w.jobs[0]
    out = str(tmp_path / "spans.json")
    env = run.job_env(w)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, run.TRACED_CLI, out,
                           *job.argv(directory)],
                          env=env, capture_output=True, text=True, check=True)
    wall = time.perf_counter() - start
    assert "result: pass" in proc.stdout
    with open(out, encoding="utf-8") as handle:
        data = json.load(handle)
    spans = data["spans"]
    own = layers.self_times(spans)
    for sid, _, start, end, _ in spans:
        assert -1e-9 <= own[sid] <= end - start + 1e-9
    names = {name for _, name, _, _, _ in spans}
    assert {"cli.import", "specfiles.load_document",
            "skew_rings.build_ideal", "scalars.SpanTracker.add"} <= names
    assert data["counts"]["skew_rings.dim_L"] == 8
    # The spans must fit inside the job's measured wall time.
    outcome = run.Outcome(job.id, wall, spans=spans, counts=data["counts"])
    metrics, _ = run.per_layer((wall, [outcome]), (wall, [outcome]))
    attributed = sum(metrics[m] for m in layers.TIME_METRICS)
    assert 0 < attributed <= wall
