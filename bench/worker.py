"""One workload in one fresh process: set up, then a closed loop of jobs.

Run as ``python3 -m bench.worker WORKDIR --workload W --seed N --seconds S
--trace 0|1 [--setup-only]`` from the repository root.  The worker
changes into the empty WORKDIR, generates each round's inputs there
(round k in ``r<k>/``, outside every timed interval), so nccw sees only
those files, and writes ``result.json`` there.

Set-up is ``import nccw`` plus the warm-up job (the first job of round
0).  The timed phase then runs whole rounds, rounds 1, 2, ..., one job at
a time through ``nccw.cli.main(argv)`` with stdout captured, until
``--seconds`` have passed and at least ``MIN_ROUNDS`` rounds ran.  Every
round has the same composition but fresh inputs, so no input is seen
twice in one process, as for a user who runs each input once.  Before
each job (and before set-up) the process moves to the CPU a short probe
finds quiet.  Each answer is checked right after its job, outside the
timed interval.  With ``--trace 1`` untraced and traced rounds alternate,
so the tracing overhead is measured on the same mix under the same
conditions.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
clock = time.perf_counter
MIN_ROUNDS = 4  # every job is timed at least this often


class Rounds:
    """Writes round after round of a workload's inputs, each into its own
    directory, and keeps every round's seed and a hash over its inputs."""

    def __init__(self, workload: str, seed: int):
        from . import workloads

        self.workloads, self.workload, self.seed = workloads, workload, seed
        self.seeds: list[str] = []
        self.digest = hashlib.sha256()

    def next(self) -> list[dict]:
        index = len(self.seeds)
        files, jobs = self.workloads.generate(self.workload, self.seed, index)
        self.seeds.append(self.workloads.round_seed(self.workload, self.seed, index))
        self.digest.update(self.workloads.input_hash(files, jobs).encode())
        if index:
            shutil.rmtree(f"r{index - 1}")
        folder = Path(f"r{index}")
        folder.mkdir()
        for name, data in files.items():
            (folder / name).write_bytes(data)
        for job in jobs:
            job["name"] = " ".join(job["argv"])
            job["argv"] = [f"{folder}/{a}" if a in files else a for a in job["argv"]]
        return jobs


class Loop:
    def __init__(self, main):
        from .check import verdict

        self.main, self.verdict = main, verdict
        self.times: list[float] = []  # seconds per timed job, in run order
        self.kinds: list[str] = []  # kind of each timed job
        self.names: dict[str, str] = {}  # kind -> argv of its first job
        self.failures: dict[str, int] = {}
        self.examples: list[str] = []
        self.attempted = 0
        self.out_bytes = 0

    def run(self, job: dict, timed: bool = True) -> float:
        out, err = io.StringIO(), io.StringIO()
        crashed = None
        t0 = clock()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.main(list(job["argv"]))
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # a traceback is a failed job, not a benchmark crash
            rc, crashed = None, traceback.format_exc(limit=3)
        elapsed = clock() - t0
        text = out.getvalue()
        kind = "traceback" if crashed else self.verdict(job["expect"], job["argv"], rc, text)
        self.attempted += 1
        if kind:
            self.failures[kind] = self.failures.get(kind, 0) + 1
            if len(self.examples) < 5:
                self.examples.append(f"{kind}: {' '.join(job['argv'])}: "
                                     f"{(crashed or err.getvalue() or text)[-300:]}")
        if timed:
            self.times.append(elapsed)
            self.kinds.append(job["kind"])
            self.names.setdefault(job["kind"], job["name"])
            self.out_bytes += len(text.encode())
        return elapsed

    def round(self, jobs: list[dict], before_job=None) -> float:
        total = 0.0
        for job in jobs:
            if before_job is not None:
                before_job()
            total += self.run(job)
        return total


def _probe() -> float:
    t0 = clock()
    s = 0
    for i in range(4000):
        s += i * i
    return clock() - t0


class QuietCpu:
    """Moves this process to whichever CPU of its affinity mask a short
    probe finds quiet.  Each CPU of this host switches, for a fraction of a
    second to several seconds at a time, between a fast phase and one about
    40% slower (another guest busy on the same core)."""

    def __init__(self):
        self.allowed = sorted(os.sched_getaffinity(0))

    def _speed(self, cpu: int) -> float:
        os.sched_setaffinity(0, {cpu})
        return min(_probe() for _ in range(2))

    def pick(self) -> None:
        if len(self.allowed) > 1:
            os.sched_setaffinity(0, {min(self.allowed, key=self._speed)})

    def release(self) -> None:
        os.sched_setaffinity(0, self.allowed)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workdir")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    os.chdir(args.workdir)
    rounds = Rounds(args.workload, args.seed)
    round_zero = rounds.next()
    sys.path.insert(0, str(ROOT / "src"))

    cpus = QuietCpu()
    cpus.pick()
    t0 = clock()
    from nccw.cli import main as nccw_main

    loop = Loop(nccw_main)
    loop.run(round_zero[0], timed=False)
    setup_s = clock() - t0
    cpus.release()
    result = {"setup_s": setup_s}
    if not args.setup_only:
        import numpy

        from .layers import function_bindings

        before = function_bindings()
        result.update(trace_phase(loop, rounds, args.seconds) if args.trace
                      else timed_phase(loop, rounds, args.seconds, cpus))
        result["changed_bindings"] = sorted(
            ".".join(k) for k, v in function_bindings().items() if before.get(k) != v
        )
        result.update(
            times=loop.times, kinds=loop.kinds, names=loop.names, examples=loop.examples,
            round_seeds=rounds.seeds, inputs_sha256=rounds.digest.hexdigest(),
            jobs_per_round=len(round_zero),
            peak_rss_mb=peak_rss_mb(),
            numpy=numpy.__version__,
        )
    result.update(attempted=loop.attempted, failures=loop.failures)
    with open("result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def peak_rss_mb() -> float:
    """Peak resident set of this process image (the kernel's VmHWM; unlike
    ``ru_maxrss`` it leaves out what the parent held when it forked)."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise OSError("no VmHWM in /proc/self/status")


def timed_phase(loop: Loop, rounds: Rounds, seconds: float, cpus: QuietCpu) -> dict:
    """Whole rounds; each job starts on the CPU a probe finds quiet."""
    start = clock()
    count = 0
    try:
        while count < MIN_ROUNDS or clock() - start < seconds:
            loop.round(rounds.next(), cpus.pick)
            count += 1
    finally:
        cpus.release()
    return {"rounds": count}


def trace_phase(loop: Loop, rounds: Rounds, seconds: float) -> dict:
    from .layers import Tracer

    tracer = Tracer()
    start = clock()
    count = 0
    untraced_s = traced_s = 0.0
    traced_bytes = 0
    while not count or clock() - start < seconds:
        untraced_s += loop.round(rounds.next())
        jobs = rounds.next()
        before = loop.out_bytes
        tracer.install()
        try:
            traced_s += loop.round(jobs)
        finally:
            tracer.uninstall()
        traced_bytes += loop.out_bytes - before
        count += 1
    return {
        "rounds": count,
        "layers": tracer.metrics(count, count * len(jobs), traced_s, untraced_s, traced_bytes),
        "absent": sorted(tracer.absent),
    }


if __name__ == "__main__":
    sys.exit(main())
