"""formflow benchmark: generated config texts through the public CLI entry
points, one client in a closed loop.

    python3 bench/run.py --workload presets --seed 1 --seconds 30 --trace 0

One report is `cli.parse_config` + `cli.run` + `Report.to_json` on one job's
config text; the next report starts when the previous one is done.  Each
report is checked against the job's known answer (bench/check.py) and must
repeat its first bytes exactly on every pass.  The loop repeats the
workload's job list in whole passes, at least MIN_PASSES of them, and stops
before a pass that would end after --seconds.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes and prints the per-layer metrics (bench/tracing.py).  The last
line of stdout is the JSON result; the lines before it are for people.
Exit code 2, with no result, when formflow's sources are not next to the
benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402
from check import mismatches  # noqa: E402

# Passes per run at least, sized so that MIN_PASSES passes take about
# --seconds on a 2-core machine; the tail percentile is fixed from them.
MIN_PASSES = {"presets": 10, "symbolic": 6, "transport": 10}
SETUP_RUNS = 9
# End-to-end timings are quoted at the machine speed where reference_work()
# takes REF_S seconds (see reference_work).
REF_S = 0.005
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import formflow.cli; "
    "print(time.perf_counter() - t)"
)
E2E_UNITS = {
    "setup_s": "s",
    "reports_per_s": "1/s",
    "report_p50_s": "s",
    "report_tail_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Outcome:
    seconds: float
    reference: float  # reference_work() time just before the report
    data: bytes | None
    problems: list[str]

    @property
    def scaled(self) -> float:
        return self.seconds * REF_S / self.reference


def reference_work() -> float:
    """Wall time of a fixed piece of pure-Python work that does not touch
    formflow: objects, dicts, Fraction sums, a sort, float math and a JSON
    round trip, the kind of work formflow's reports do.

    The speed of the machine this benchmark was written on drifts by up to
    1.9x within seconds and by a third over tens of minutes, for all code
    alike (CPU time tracks wall time, so the process cannot exclude it).
    Timing this work next to every report and scaling the report by it
    removes most of that drift from the end-to-end timings.
    """
    t0 = time.perf_counter()
    total = Fraction(0)
    rows = []
    for i in range(1200):
        rows.append((i % 97, {"k": i, "v": i * 0.5, "s": str(i)}, (i, i + 1)))
        total += Fraction(i % 13, 7)
    rows.sort(key=lambda r: (r[0], -r[2][0]))
    sum(math.sin(r[1]["v"]) for r in rows)
    json.loads(json.dumps([r[1] for r in rows[:300]]))
    return time.perf_counter() - t0


def measure_setup(runs: int) -> tuple[float, float]:
    """Median wall time, scaled to REF_S, of a fresh interpreter importing
    formflow.cli, and the median unscaled time of the import alone, over
    `runs` sequential starts.  One start before them is not counted: it may
    compile bytecode."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    walls, imports = [], []
    for i in range(runs + 1):
        scale = REF_S / reference_work()
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        wall = time.perf_counter() - t0
        if i:
            walls.append(wall * scale)
            imports.append(float(done.stdout))
    return statistics.median(walls), statistics.median(imports)


def run_job(cli, job: workloads.Job) -> Outcome:
    reference = reference_work()
    t0 = time.perf_counter()
    try:
        report = cli.run(cli.parse_config(job.text))
        text = report.to_json()
    except Exception as e:  # a report that raises is a failed report
        seconds = time.perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        return Outcome(seconds, reference, None, [f"{type(e).__name__}: {e}"])
    seconds = time.perf_counter() - t0
    problems = mismatches(report.document, job.expect)
    if report.inconclusive:
        problems.append("inconclusive")
    return Outcome(seconds, reference, text.encode(), problems)


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of n reports beyond it."""
    return max(0, (100 * (n - 10)) // n)


def nearest_rank(values: list[float], pct: int) -> float:
    ordered = sorted(values)
    k = max(1, -(-pct * len(ordered) // 100))
    return ordered[k - 1]


def judge(jobs, passes: list[list[Outcome]]) -> tuple[int, int, str]:
    """(attempted, failed, sha256 of the first pass in job order).  A report
    fails on any known-answer mismatch or when its bytes differ from its
    first pass."""
    first = [o.data for o in passes[0]]
    failed = 0
    shown = set()
    for outcomes in passes:
        for job, o, ref in zip(jobs, outcomes, first):
            problems = list(o.problems)
            if o.data != ref:
                problems.append("report bytes differ from the first pass")
            if problems:
                failed += 1
                message = f"FAILED {job.name}: {'; '.join(problems)}"
                if message not in shown:
                    shown.add(message)
                    print(message, file=sys.stderr)
    digest = hashlib.sha256(b"".join(d or b"" for d in first)).hexdigest()
    return sum(len(p) for p in passes), failed, digest


def machine() -> str:
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=30, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return (
        f"nproc {os.cpu_count()}  python {platform.python_version()}  "
        f"numpy {numpy.__version__}  git {sha}"
    )


def scaling_lines(jobs, passes: list[list[Outcome]]) -> list[str]:
    """Median scaled report time against input expression size for each
    size step of the symbolic families."""
    from formflow import expr as ex
    from formflow import parse as ps

    chart = ex.spacetime_chart()
    lines = []
    for i, job in enumerate(jobs):
        if not job.family:
            continue
        sizes = [tracing.expr_size(ps.parse_scalar(t, chart)) for t in job.size_exprs]
        median = statistics.median(p[i].scaled for p in passes)
        lines.append(
            f"scaling {job.family:7s} step {job.step}  tree_nodes {sum(s[0] for s in sizes):5d}  "
            f"distinct_nodes {sum(s[1] for s in sizes):5d}  report_s {median:.4f}"
        )
    return lines


def end_to_end(name, jobs, cli, seconds, setup_s) -> tuple[dict, list[list[Outcome]]]:
    passes: list[list[Outcome]] = []
    start = last = time.perf_counter()
    # Stop before a pass that would end after `seconds`, judged by the last one.
    while len(passes) < MIN_PASSES[name] or 2 * time.perf_counter() - last - start <= seconds:
        last = time.perf_counter()
        passes.append([run_job(cli, j) for j in jobs])
    # Each report counts at its job's median scaled time over the passes;
    # with whole passes, a percentile over these reports is a percentile
    # over the job list.
    per_job = [statistics.median(p[i].scaled for p in passes) for i in range(len(jobs))]
    pct = tail_percentile(len(jobs) * MIN_PASSES[name])
    metrics = {
        "setup_s": setup_s,
        "reports_per_s": len(jobs) / sum(per_job),
        "report_p50_s": nearest_rank(per_job, 50),
        "report_tail_s": nearest_rank(per_job, pct),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    reference = statistics.median(o.reference for p in passes for o in p)
    print(f"passes {len(passes)}  reports {len(jobs) * len(passes)}  tail percentile p{pct} "
          f"(at least {len(jobs) * MIN_PASSES[name]} reports)  reference work median "
          f"{reference * 1e3:.2f} ms, timings scaled to {REF_S * 1e3:.2f} ms")
    return metrics, passes


def traced(jobs, cli, seconds, import_s) -> tuple[dict, list[list[Outcome]]]:
    from formflow import chains, expr, finite_topology, forms, parse, pfaff, systems, thermo

    modules = dict(
        cli=cli, parse=parse, expr=expr, forms=forms, pfaff=pfaff, thermo=thermo,
        chains=chains, systems=systems, finite_topology=finite_topology,
    )
    tracer = tracing.Tracer(modules)
    passes: list[list[Outcome]] = []
    plain_s = traced_s = 0.0
    spans: dict[str, dict[str, float]] = {}

    def traced_pass() -> list[Outcome]:
        tracer.install()
        try:
            return [run_job(cli, j) for j in jobs]
        finally:
            tracer.restore()

    start = time.perf_counter()
    # Untraced and traced passes alternate which goes first, so that the
    # first, cold pass of the process does not bias the overhead ratio.
    while len(passes) < 4 or time.perf_counter() - start < seconds:
        if len(passes) % 4 == 0:
            plain = [run_job(cli, j) for j in jobs]
            with_trace = traced_pass()
        else:
            with_trace = traced_pass()
            plain = [run_job(cli, j) for j in jobs]
        for name, agg in tracer.aggregate().items():
            into = spans.setdefault(name, {"calls": 0, "self_s": 0.0})
            into["calls"] += agg["calls"]
            into["self_s"] += agg["self_s"]
        plain_s += sum(o.seconds for o in plain)
        traced_s += sum(o.seconds for o in with_trace)
        passes += [plain, with_trace]
    metrics = tracing.layer_metrics(spans, tracer.counts, len(passes) // 2)
    metrics["setup.import_s"] = import_s
    metrics["trace.overhead_ratio"] = traced_s / plain_s
    print(f"traced passes {len(passes) // 2}, untraced passes {len(passes) // 2}")
    return metrics, passes


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "formflow" / "cli.py").is_file():
        print(f"formflow sources not found under {SRC}", file=sys.stderr)
        return 2
    try:
        jobs = workloads.WORKLOADS[args.workload](args.seed, ROOT)
    except OSError as e:
        print(f"cannot build the {args.workload} jobs: {e}", file=sys.stderr)
        return 2

    setup_s, import_s = measure_setup(SETUP_RUNS)
    sys.path.insert(0, str(SRC))
    from formflow import cli

    print(f"workload {args.workload}  seed {args.seed}  jobs {len(jobs)}  "
          f"closed loop, 1 client  {machine()}")
    if args.trace:
        metrics, passes = traced(jobs, cli, args.seconds, import_s)
        units = dict(tracing.PER_LAYER)
    else:
        metrics, passes = end_to_end(args.workload, jobs, cli, args.seconds, setup_s)
        units = E2E_UNITS
    attempted, failed, digest = judge(jobs, passes)

    for line in scaling_lines(jobs, passes) if not args.trace else []:
        print(line)
    for name, value in metrics.items():
        print(f"{name:38s} {value:14.6g} {units[name]}")
    if not args.trace:
        print(f"{'failed_share':38s} {failed / attempted:14.6g} ratio  ({failed} of {attempted})")
    print(f"report_sha256 {digest}  ({len(jobs)} reports in job order)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
