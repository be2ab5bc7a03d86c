"""nccw benchmark runner: one workload, one seed, one closed-loop run.

    python3 bench/run.py --workload spheres --seed 1 --seconds 20 --trace 0

Runs the workload in fresh worker processes, one at a time: set-up-only
workers before and after the main worker (``setup_s`` is the median of
their set-up times and the main worker's), and the main worker, which
runs the closed loop for ``--seconds``.  Each worker generates the
workload's inputs from the seed, round by round, and checks every answer
with the independent oracle.  It prints every metric by name with its
unit, a JSON line with the run's details (round seeds, input hash,
versions, each job's best time, failures), and last the result line.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` the
per-layer split.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from bench import workloads  # noqa: E402

SETUP_WORKERS = 12  # half before the main worker, half after
RUN_BUDGET_S = 170
PERCENTILES = (50, 75, 90, 95, 99)

END_TO_END_UNITS = {
    "job_ms_p50": "ms",
    "job_ms_tail": "ms",
    "jobs_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


class WorkerFailed(RuntimeError):
    pass


def run_worker(workdir: Path, args: list[str], setup_only: bool, deadline: float) -> dict:
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cmd = [sys.executable, "-m", "bench.worker", str(workdir), *args]
    if setup_only:
        cmd.append("--setup-only")
    timeout = max(deadline - time.monotonic(), 1.0)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"worker still running after {timeout:.0f} s; killed") from None
    result_path = workdir / "result.json"
    if proc.returncode != 0 or not result_path.is_file():
        raise WorkerFailed(f"worker exited with {proc.returncode}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def tail(best_ms: list[float]) -> tuple[int, float, int]:
    """Highest of 50/75/90/95/99 with at least ten jobs beyond it
    (nearest rank), its value and the number of jobs beyond it."""
    n = len(best_ms)
    ordered = sorted(best_ms)
    for q in reversed(PERCENTILES):
        rank = math.ceil(q / 100 * n)
        if n - rank >= 10 or q == PERCENTILES[0]:
            return q, ordered[max(rank, 1) - 1], n - rank
    raise AssertionError("unreachable")


def best_by_job(main: dict) -> dict[str, float]:
    """Each job's fastest time in the timed phase, in ms, by its kind (its
    place in the round, or twins that a workload counts as one job), named
    by the argv of its first run."""
    best: dict[str, float] = {}
    for kind, t in zip(main["kinds"], main["times"]):
        key = main["names"][kind]
        best[key] = min(best.get(key, math.inf), t * 1000)
    return best


def end_to_end(main: dict, setups: list[float]) -> tuple[dict, dict, dict]:
    """The metrics, a note on how each was taken, and the raw figures.

    A job's time is its best round in the run, as ``timeit`` reports:
    every round has the same composition on fresh inputs, the host's CPUs
    switch between a fast phase and one about 40% slower, and the best
    round is what stays put from run to run.  The raw figures over every
    round are kept beside them."""
    best = list(best_by_job(main).values())
    raw_ms = [t * 1000 for t in main["times"]]
    q, tail_ms, beyond = tail(best)
    failed = sum(main["failures"].values())
    values = {
        "job_ms_p50": statistics.median(best),
        "job_ms_tail": tail_ms,
        "jobs_per_s": len(best) / (sum(best) / 1000),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": main["peak_rss_mb"],
        "ok_ratio": 1 - failed / main["attempted"],
    }
    notes = {
        "job_ms_p50": f"median of {len(best)} jobs, each its best in {main['rounds']} rounds",
        "job_ms_tail": f"p{q}, {beyond} of {len(best)} jobs beyond it",
        "jobs_per_s": "one round of best times",
        "setup_s": f"median of {len(setups)} fresh processes",
        "ok_ratio": f"fail_ratio={failed / main['attempted']:.6g}",
    }
    raw = {
        "job_ms_p50": statistics.median(raw_ms),
        "jobs_per_s": len(raw_ms) / (sum(raw_ms) / 1000),
        "fail_ratio": failed / main["attempted"],
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return metrics, notes, raw


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run and check one workload; returns the full report."""
    deadline = time.monotonic() + RUN_BUDGET_S
    work = ROOT / ".bench_work"
    workdir = work / f"{workload}-{seed}-{os.getpid()}"
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    setup_runs = []
    try:
        if not trace:
            for _ in range(SETUP_WORKERS // 2):
                setup_runs.append(run_worker(workdir, args, True, deadline))
        main = run_worker(workdir, args, False, deadline)
        if not trace:
            for _ in range(SETUP_WORKERS - SETUP_WORKERS // 2):
                setup_runs.append(run_worker(workdir, args, True, deadline))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if work.is_dir() and not any(work.iterdir()):
            work.rmdir()
    setups = [r["setup_s"] for r in setup_runs] + [main["setup_s"]]
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "inputs_sha256": main["inputs_sha256"], "round_seeds": main["round_seeds"],
        "jobs_per_round": main["jobs_per_round"],
        "rounds": main["rounds"],
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "python": platform.python_version(), "numpy": main["numpy"],
        "attempted": main["attempted"] + sum(r["attempted"] for r in setup_runs),
        "failed": sum(sum(r["failures"].values()) for r in [main, *setup_runs]),
        "setup_s_each": setups,
        "failures": main["failures"], "failure_examples": main["examples"],
        "changed_bindings": main["changed_bindings"],
    }
    if trace:
        report["metrics"] = main["layers"]
        report["absent"] = main["absent"]
    else:
        report["metrics"], report["notes"], report["raw"] = end_to_end(main, setups)
        report["job_ms_best_by_job"] = {
            k: round(v, 3) for k, v in sorted(best_by_job(main).items())}
    # the untraced run must leave nccw untouched; the traced run must restore it
    report["correct"] = report["failed"] == 0 and not report["changed_bindings"]
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "nccw" / "__init__.py").is_file():
        print(f"error: no nccw sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        report = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    notes = report.get("notes", {})
    for name, m in report["metrics"].items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:32s} {m['value']:.6g} {m['unit']}{note}")
    for name in report.get("absent", []):
        print(f"{name:32s} absent", file=sys.stderr)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
