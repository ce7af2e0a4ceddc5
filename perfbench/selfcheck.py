"""Self-check of the benchmark harness, on tiny inputs.

    python3 perfbench/selfcheck.py      # from the root of a checkout

Checks that:
  - every workload's smoke configuration passes its own checks, with the
    CLI run both as subprocesses and in-process;
  - a deliberately wrong reference makes a job fail, so failed_ratio rises;
  - a fault-injected verification that reports success counts as failed;
  - a job that raises counts as failed;
  - each speed probe samples a running job, the probing is left out of the
    job's time, and the timer and handler are restored afterwards;
  - the tracer yields every per-layer metric BENCHMARK.json declares, with
    its unit, and restores the patched functions afterwards.
Known-defect jobs run too; whether they still fail is printed, not checked.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402  (pinned_env)

os.environ.update(run.pinned_env(ROOT))

import ckshift as cs  # noqa: E402
import workloads  # noqa: E402
from speed import PROBES, SpeedMeter  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import Ledger, run_job  # noqa: E402

WORKDIR = os.path.join(ROOT, ".bench_build", "perfbench", "selfcheck")
problems: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        problems.append(what)


def smoke(name: str, inprocess: bool = False, known_defects: bool = True):
    return workloads.build(name, 1, smoke=True, known_defects=known_defects,
                           workdir=WORKDIR, inprocess=inprocess)


def by_name(jobs, name):
    return next(j for j in jobs if j.name == name)


def check_workloads() -> None:
    for name in workloads.BUILDERS:
        for inprocess in (False, True) if name == "cli-session" else (False,):
            jobs = smoke(name, inprocess)
            ledger = Ledger(jobs)
            ledger.run_pass([j.reference() for j in jobs])
            for job, fails, error in zip(jobs, ledger.fails, ledger.errors):
                if job.known_defect:
                    print(f"info  known defect {job.name}: "
                          + (f"still fails ({error[:60]})" if fails else "now passes"))
                else:
                    where = " (in-process)" if inprocess else ""
                    expect(not fails, f"{name}{where}: {job.name} passes"
                           + (f" [{error}]" if error else ""))


def check_failures_count() -> None:
    job = by_name(smoke("count-deep"), "word_count.full3")
    ledger = Ledger([job])
    ledger.run_pass([job.reference() + 1])
    expect(ledger.failed == 1 and ledger.attempted == 1,
           "a wrong reference counts as a failure (failed_ratio 1/1)")

    jobs = smoke("verify-lemma2")
    fault = by_name(jobs, "verify_witness.full3.1.2.fault")
    ok_before, cases, _ = fault.reference()
    fake = cs.VerificationReport(cases=cases, passed=cases)
    expect(not ok_before and fault.check(fake, fault.reference()) is not None,
           "an inject_fault verification reporting ok=True fails its check")

    cli_fault = by_name(smoke("cli-session", known_defects=False), "cli.verify-lemma2.fault")
    expect(cli_fault.check((0, f"all {cases} cases passed\n", ""), cli_fault.reference())
           is not None, "an --inject-fault CLI run exiting 0 fails its check")

    def boom():
        raise RecursionError("maximum recursion depth exceeded")

    raising = workloads.Job("raises", "test", "-", "-", {}, boom, lambda: None,
                            workloads.expect_equal)
    _, _, error, _ = run_job(raising, None)
    expect(error is not None and error.startswith("RecursionError"),
           "a job that raises counts as a failure")


def check_speed() -> None:
    handler = signal.getsignal(signal.SIGALRM)
    meter = SpeedMeter()
    for kind in PROBES:
        meter.start(kind)
        start = time.perf_counter()
        while time.perf_counter() - start < 0.3:
            pass
        elapsed, factor = meter.stop()
        expect(len(meter.samples) >= 5 and 0 < meter.handler_s and factor > 0
               and abs(elapsed + meter.handler_s - 0.3) < 0.05,
               f"the {kind} probe samples a running job and its time is left out "
               f"({len(meter.samples)} samples, {meter.handler_s:.4f} s in the handler)")
    expect(signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
           and signal.getsignal(signal.SIGALRM) is handler,
           "the speed meter restores the timer and the signal handler")


def check_tracer() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer"]
    original = cs.word_count
    found = {"cli.startup_s": (0.0, "s")}
    for name in workloads.BUILDERS:
        jobs = smoke(name, inprocess=True, known_defects=False)
        refs = [j.reference() for j in jobs]
        tracer = Tracer()
        tracer.install()
        try:
            ledger = Ledger(jobs)
            wall = ledger.run_pass(refs)
        finally:
            tracer.uninstall()
        expect(ledger.failed == 0, f"{name}: traced smoke pass has no failures")
        metrics = tracer.metrics([wall], [wall])
        found.update(metrics)
        if name == "verify-lemma2":
            expect(metrics["ck.equal.calls"][0] > 0, "tracer counts ck.equal calls")
        if name == "cli-session":
            expect(metrics["cli.convergence.word_count_calls"][0] > 0,
                   "tracer counts word_count calls under cli convergence")
    expect(cs.word_count is original and cs.sft.word_count is original,
           "uninstall restores the patched functions")
    missing = [m["name"] for m in declared if found.get(m["name"], (0, None))[1] != m["unit"]]
    expect(not missing, "tracer yields every declared per-layer metric with its unit"
           + (f" (missing or wrong unit: {missing})" if missing else ""))


def main() -> int:
    os.makedirs(WORKDIR, exist_ok=True)
    try:
        check_workloads()
        check_failures_count()
        check_speed()
        check_tracer()
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    print(f"{len(problems)} problem(s)" if problems else "harness self-check passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
