"""Benchmark of the groupoidal CLI: seeded workloads, checked outputs,
end-to-end metrics, and a traced pass for per-layer metrics.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1
    python3 perfbench/run.py --workload all --seed 1 --record-goldens

Run it from the root of a checkout; the engine is imported from ./src.
Jobs run one at a time, each in a fresh process, from this one driver
process: a closed loop with a single client.  The last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`.  See perfbench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import layers
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
GOLDENS = os.path.join(HERE, "goldens.json")

# The whole run must exit within 180 s; jobs that would start after this
# budget are counted as failed instead of being run.
RUN_BUDGET_S = 165.0
SETUP_REPEATS = 12
TERM_GRACE_S = 5.0

# What `groupoidal` (the console script) runs.
ENTRY = "import sys; from groupoidal.cli import main; sys.exit(main())"
TRACED_CLI = os.path.join(HERE, "traced_cli.py")

E2E_METRICS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

DIGEST_LINE = re.compile(r"^(input: \S+ sha256=)([0-9a-f]{64})$", re.M)
CLOSED_FORMS = {
    "bisections": re.compile(
        r"^check bisection_semigroup_axioms: pass  \[(\d+) bisections\]$",
        re.M),
    "ledger": re.compile(
        r"^check dimension_ledger: pass  "
        r"\[dim L=(\d+) dim I=(\d+) dim L/I=(\d+) dim A=(\d+)\]$", re.M),
    "arrows": re.compile(
        r"^check transformation_groupoid_axioms: pass  \[(\d+) arrows\]$"
        r"\n^check dimension_match: pass  \[dim L=(\d+) arrows=(\d+)\]$",
        re.M),
    "iso": re.compile(
        r"^check groupoid_isomorphism: pass  \[(found|exhausted)\]$", re.M),
    "orbit": re.compile(
        r"^check orbit_equivalence: pass  \[(found|exhausted)\]$", re.M),
}


@dataclass
class Outcome:
    job: str
    wall: float
    code: int | None = None
    rss_kb: int = 0
    cpu: float = 0.0
    timed_out: bool = False
    report: str = ""
    problems: list = field(default_factory=list)
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)


def normalized_digest(report, prefix):
    """sha256 of a report with the seeded name prefix stripped and the
    input digest blanked: the same for every seed."""
    text = DIGEST_LINE.sub(r"\1-", report).replace(prefix, "")
    return hashlib.sha256(text.encode()).hexdigest()


def check(job, outcome, written, goldens):
    """Every way the job's output can be wrong, as messages.  `goldens`
    is None while goldens are being recorded."""
    if outcome.timed_out:
        return [f"stopped at the {job.limit:g} s time limit"]
    if outcome.code is None:
        return ["not run: the run's time budget was spent"]
    report = outcome.report
    exits = job.exits
    problems = []
    golden = None
    if job.golden and goldens is not None:
        golden = goldens.get(job.id)
        if golden is None:
            problems.append("no golden recorded")
        else:
            exits = (golden["exit"],)
    if outcome.code not in exits:
        problems.append(f"exit {outcome.code}, expected {exits}")
    match = DIGEST_LINE.search(report)
    if match is None:
        problems.append("report has no input line")
    elif match.group(2) != written.digests[job.file]:
        problems.append("report names another input digest")
    if golden is not None and \
            normalized_digest(report, written.prefix) != golden["sha256"]:
        problems.append("report differs from the golden")
    if outcome.code == 0:
        for key, want in job.closed.items():
            found = CLOSED_FORMS[key].search(report)
            got = None if found is None else [
                int(g) if g.isdigit() else g for g in found.groups()]
            if got != want:
                problems.append(f"{key}: report has {got}, closed form "
                                f"{want}")
    if job.fail_row and not re.search(
            rf"^check {job.fail_row}: fail", report, re.M):
        problems.append(f"no failing {job.fail_row} row")
    return problems


def _stopper(pid, done, flag):
    """Stop a job at its time limit: SIGTERM lets a traced job write the
    spans that closed; SIGKILL follows if it does not exit."""
    flag.set()
    os.kill(pid, signal.SIGTERM)
    if not done.wait(TERM_GRACE_S):
        os.kill(pid, signal.SIGKILL)


def run_job(job, directory, env, deadline, tag, traced=False):
    """One CLI job in a fresh process, timed from spawn to exit."""
    now = time.perf_counter()
    limit = min(job.limit, deadline - now)
    if limit <= 0:
        return Outcome(job.id, 0.0)
    out_path = os.path.join(WORK, f"{tag}.out")
    span_path = os.path.join(WORK, f"{tag}.spans.json")
    argv = job.argv(directory)
    if traced:
        if os.path.exists(span_path):
            os.remove(span_path)
        argv = [sys.executable, TRACED_CLI, span_path, *argv]
    else:
        argv = [sys.executable, "-c", ENTRY, *argv]
    done, flag = threading.Event(), threading.Event()
    with open(out_path, "wb") as out, \
            open(os.path.join(WORK, f"{tag}.err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env,
                                cwd=ROOT)
    timer = threading.Timer(limit, _stopper, (proc.pid, done, flag))
    timer.start()
    # Wait without reaping, so the stopper can never signal a reused pid.
    os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
    end = time.perf_counter()
    done.set()
    timer.cancel()
    timer.join()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    outcome = Outcome(job.id, end - start, proc.returncode, usage.ru_maxrss,
                      usage.ru_utime + usage.ru_stime, flag.is_set())
    with open(out_path, encoding="utf-8", errors="replace") as handle:
        outcome.report = handle.read()
    if traced and os.path.exists(span_path):
        with open(span_path, encoding="utf-8") as handle:
            data = json.load(handle)
        outcome.spans, outcome.counts = data["spans"], data["counts"]
    return outcome


def job_env(written):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    env.update(written.env)
    return env


def run_pass(written, directory, deadline, goldens, traced=False):
    env = job_env(written)
    start = time.perf_counter()
    outcomes = []
    for i, job in enumerate(written.jobs):
        outcome = run_job(job, directory, env, deadline, f"job{i}", traced)
        outcome.problems = check(job, outcome, written, goldens)
        outcomes.append(outcome)
    return time.perf_counter() - start, outcomes


def setup(workload, directory, seed):
    """Write the workload's inputs and run one untimed warm-up job
    (`validate` on the first input), so .pyc files and the file cache are
    warm before timing starts."""
    shutil.rmtree(directory, ignore_errors=True)
    written = workloads.write_workload(workload, ROOT, directory, seed)
    first = written.jobs[0]
    warm = workloads.Job("warm-up", "validate", first.file)
    run_job(warm, directory, job_env(written), float("inf"), "warmup")
    return written


def end_to_end(setups, passes):
    # A job stopped at its limit is left out: its memory then says only
    # how far it got.
    finished = [o for _, outs in passes for o in outs
                if o.code is not None and not o.timed_out]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(wall for wall, _ in passes),
        "peak_rss_mb": max((o.rss_kb for o in finished), default=0) / 1024.0,
    }


def job_times(passes):
    """Median and slowest job time, each job timed as its median over the
    passes.  Printed, not reported: on a workload of three to five jobs
    they rest on one job, too few samples to be steady."""
    times = [statistics.median(o.wall for o in samples)
             for samples in zip(*(outs for _, outs in passes))]
    return {"job_p50_s": statistics.median(times), "job_max_s": max(times)}


def per_layer(plain, traced):
    """Per-layer metrics from a traced pass, and the diagnostics printed
    beside them, against an untraced pass of the same jobs."""
    plain_wall, plain_outs = plain
    traced_wall, traced_outs = traced
    metrics = dict.fromkeys(layers.TIME_METRICS, 0.0)
    metrics.update(dict.fromkeys(layers.COUNT_METRICS, 0))
    for outcome in traced_outs:
        for name, value in layers.layer_totals(outcome.spans).items():
            metrics[name] += value
        for name, value in outcome.counts.items():
            metrics[name] += value
    attributed = sum(metrics[name] for name in layers.TIME_METRICS)
    metrics["trace.unattributed_s"] = traced_wall - attributed
    diagnostics = {
        "proc.cpu_s": sum(o.cpu for o in plain_outs),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - plain_wall,
        "trace.unattributed_share": (traced_wall - attributed) / traced_wall,
    }
    return metrics, diagnostics


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "ratio"
    if name.endswith("_bytes"):
        return "B"
    return "count"


def run_workload(workload, seed, seconds, trace, goldens, record=False):
    directory = os.path.join(WORK, workload)
    deadline = time.perf_counter() + RUN_BUDGET_S
    setups = []

    def timed_setup():
        start = time.perf_counter()
        written = setup(workload, directory, seed)
        setups.append(time.perf_counter() - start)
        return written

    # Half the set-ups run before the passes and half after them, so that
    # their median does not rest on one moment of a machine whose speed
    # drifts over seconds.
    for _ in range(SETUP_REPEATS // 2):
        written = timed_setup()
    gold = None if record else goldens.get(workload, {})
    passes = []
    begin = time.perf_counter()
    while True:
        passes.append(run_pass(written, directory, deadline, gold))
        now = time.perf_counter()
        last = passes[-1][0]
        if trace or record or now - begin + last > seconds \
                or now + last > deadline:
            break
    for _ in range(SETUP_REPEATS - SETUP_REPEATS // 2):
        timed_setup()
    diagnostics = job_times(passes[:1] if trace else passes)
    if trace:
        passes.append(run_pass(written, directory, deadline, gold,
                               traced=True))
        metrics, traced = per_layer(passes[0], passes[1])
        diagnostics.update(traced)
        with open(os.path.join(WORK, f"spans-{workload}-{seed}.json"), "w",
                  encoding="utf-8") as handle:
            json.dump([{"job": o.job, "wall": o.wall, "spans": o.spans}
                       for o in passes[1][1]], handle)
        units = {name: unit_of(name) for name in metrics}
    else:
        metrics = end_to_end(setups, passes)
        units = E2E_METRICS
    outcomes = [o for _, outs in passes for o in outs]
    if record:
        gold = {o.job: {"exit": o.code,
                        "sha256": normalized_digest(o.report, written.prefix)}
                for o, job in zip(outcomes, written.jobs) if job.golden}
    return {"outcomes": outcomes, "metrics": metrics, "units": units,
            "goldens": gold, "diagnostics": diagnostics}


def load_goldens():
    with open(GOLDENS, encoding="utf-8") as handle:
        return json.load(handle)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-goldens", action="store_true",
                        help="write goldens.json from this run's reports "
                             "(once, at a commit whose reports are right)")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "groupoidal", "cli.py")):
        print(f"perfbench: no engine sources under {ROOT}/src",
              file=sys.stderr)
        return 2
    goldens = None if args.record_goldens else load_goldens()
    names = workloads.WORKLOADS if args.workload == "all" \
        else (args.workload,)
    os.makedirs(WORK, exist_ok=True)
    results = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace,
                              goldens, args.record_goldens)
        results[name] = result
        outcomes = result["outcomes"]
        wrong = [o for o in outcomes if o.problems]
        for o in outcomes:
            print(f"{name}: job {o.job}: {o.wall:.3f} s, exit {o.code}")
        for o in wrong:
            print(f"{name}: FAIL {o.job}: {'; '.join(o.problems)}")
        print(f"{name}: fail_frac = {len(wrong)}/{len(outcomes)}")
        for metric, value in result["diagnostics"].items():
            print(f"{name}: {metric} = {value} {unit_of(metric)} "
                  "(diagnostic)")
        for metric, value in result["metrics"].items():
            print(f"{name}: {metric} = {value} {result['units'][metric]}")
    if args.record_goldens:
        with open(GOLDENS, "w", encoding="utf-8") as handle:
            json.dump({n: r["goldens"] for n, r in results.items()}, handle,
                      indent=1, sort_keys=True)
            handle.write("\n")
    outcomes = [o for r in results.values() for o in r["outcomes"]]
    wrong = [o for o in outcomes if o.problems]
    # A job stopped at its limit has failed, but its output is not wrong.
    correct = all(o.timed_out or o.code is None for o in wrong)
    if len(names) == 1:
        metrics = {k: {"value": v, "unit": results[names[0]]["units"][k]}
                   for k, v in results[names[0]]["metrics"].items()}
    else:
        metrics = {f"{n}.{k}": {"value": v, "unit": r["units"][k]}
                   for n, r in results.items()
                   for k, v in r["metrics"].items()}
    print(json.dumps({"correct": correct, "attempted": len(outcomes),
                      "failed": len(wrong), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
