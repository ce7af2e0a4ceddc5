"""One workload in a fresh interpreter; started by ``run.py``.

Modes:
  setup  import ckshift, build the inputs, report when the first job could
         start, and exit;
  run    then compute the references, run passes over the job list until
         ``--seconds`` have elapsed, timing each job at the machine's
         reference speed (speed.py), and report each job's fastest time;
  trace  like run, alternating untraced passes with passes under the span
         tracer, and report per-layer metrics.

Set-up is timed at the reference speed in every mode.  Prints one JSON
object on stdout.  Times are CLOCK_MONOTONIC readings (``time.monotonic``),
which are comparable across processes on Linux.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

from speed import SpeedMeter


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--mode", choices=("setup", "run", "trace"), default="run")
    p.add_argument("--known-defects", action="store_true")
    p.add_argument("--workdir", required=True)
    return p.parse_args(argv)


def run_job(job, want, meter: "SpeedMeter | None" = None) -> tuple:
    """Time one call; check its output outside the timed region.

    Returns (seconds, seconds at the reference speed, error or None,
    counts); without a meter both times are the wall time.  A job that
    raises, answers wrongly or exits with an unexpected code is a failure."""
    error, out = None, None
    if meter:
        meter.start(job.probe)
    start = time.perf_counter()
    try:
        out = job.call()
    except Exception as exc:  # a failing job is counted, not fatal
        error = f"{type(exc).__name__}: {exc}"[:300]
    elapsed, factor = meter.stop() if meter else (time.perf_counter() - start, 1.0)
    if error is not None:
        return elapsed, elapsed * factor, error, {}
    try:
        return elapsed, elapsed * factor, job.check(out, want), job.counts(out)
    except Exception as exc:  # malformed output fails its check
        return elapsed, elapsed * factor, f"check raised {type(exc).__name__}: {exc}"[:300], {}


class Ledger:
    """Per-job results over all passes of one run."""

    def __init__(self, jobs, meter: "SpeedMeter | None" = None):
        self.meter = meter
        self.jobs = jobs
        self.passes = 0
        self.times = [[] for _ in jobs]
        self.scaled = [[] for _ in jobs]
        self.errors: list = [None] * len(jobs)
        self.fails = [0] * len(jobs)
        self.counts: list = [{} for _ in jobs]

    def run_pass(self, refs, deadline: float = float("inf")) -> "float | None":
        """Run every job once; return the pass's wall time.  Known-defect
        jobs are run and counted but kept out of the wall time, so wall_s
        means the same with and without them.  After the first pass, a
        pass stops at the first job that would start past ``deadline`` (a
        ``time.monotonic`` reading) and returns None."""
        wall = 0.0
        for i, (job, want) in enumerate(zip(self.jobs, refs)):
            if self.passes and time.monotonic() >= deadline:
                return None
            elapsed, scaled, error, counts = run_job(job, want, self.meter)
            if not job.known_defect:
                wall += elapsed
            self.times[i].append(elapsed)
            self.scaled[i].append(scaled)
            self.counts[i] = counts
            if error is not None:
                self.fails[i] += 1
                self.errors[i] = error
        self.passes += 1
        return wall

    def best_pass(self) -> float:
        """Sum over the timed jobs of each job's fastest time at the
        reference speed: a pass in which no job met a pause of the VM."""
        return sum(min(t) for job, t in zip(self.jobs, self.scaled) if not job.known_defect)

    @property
    def attempted(self) -> int:
        return sum(len(t) for t in self.times)

    @property
    def failed(self) -> int:
        return sum(self.fails)

    def rows(self) -> list[dict]:
        return [
            {
                "job": job.name,
                "layer": job.layer,
                "guards": job.guards,
                "why": job.why,
                "sizes": job.sizes,
                "counts": counts,
                "runs": len(times),
                "median_s": statistics.median(times) if times else None,
                "fastest_s": min(times) if times else None,
                "fastest_scaled_s": min(scaled) if scaled else None,
                "failed": fails,
                "error": error,
            }
            for job, times, scaled, counts, fails, error in zip(
                self.jobs, self.times, self.scaled, self.counts, self.fails, self.errors
            )
        ]


def peak_rss_mb(workload: str) -> float:
    # ru_maxrss is in KiB on Linux.  The cli session's work happens in its
    # child processes, so its peak is the largest child's.
    who = resource.RUSAGE_CHILDREN if workload == "cli-session" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def measure(args, jobs) -> dict:
    import numpy

    refs = [job.reference() for job in jobs]
    deadline = time.monotonic() + args.seconds
    result = {"python": sys.version.split()[0], "numpy": numpy.__version__}
    if args.mode == "run":
        ledger = Ledger(jobs, SpeedMeter())
        walls = []
        while not ledger.passes or time.monotonic() < deadline:
            wall = ledger.run_pass(refs, deadline)
            if wall is not None:
                walls.append(wall)
        result["pass_walls"] = walls
        result["best_pass"] = ledger.best_pass()
        result["peak_rss_mb"] = peak_rss_mb(args.workload)
    else:
        from tracer import Tracer

        ledger = Ledger(jobs)
        tracer = Tracer()
        plain, traced = [], []
        while not traced or time.monotonic() < deadline:
            plain.append(ledger.run_pass(refs))
            tracer.install()
            try:
                traced.append(ledger.run_pass(refs))
            finally:
                tracer.uninstall()
        result["metrics"] = tracer.metrics(traced, plain)
        result["pass_walls"] = plain
        result["traced_walls"] = traced
    result.update(attempted=ledger.attempted, failed=ledger.failed, jobs=ledger.rows())
    return result


def main(argv=None) -> int:
    meter = SpeedMeter()
    meter.start()
    args = parse_args(argv)
    os.makedirs(args.workdir, exist_ok=True)
    try:
        import ckshift  # noqa: F401  (part of set-up: numpy is imported here)
        import workloads

        jobs = workloads.build(
            args.workload,
            args.seed,
            known_defects=args.known_defects,
            workdir=args.workdir,
            inprocess=args.mode == "trace",
        )
        ready = time.monotonic()
        _, factor = meter.stop()
        # run.py scales (ready - launch - handler_s) by factor
        result = {"ready": ready, "setup_handler_s": meter.handler_s, "setup_factor": factor}
        if args.mode != "setup":
            result.update(measure(args, jobs))
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
