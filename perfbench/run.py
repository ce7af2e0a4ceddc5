"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads and metrics are declared in BENCHMARK.json.  Each workload runs
in fresh single-threaded interpreters started one at a time (a closed loop
with one client).  With ``--trace 0`` the result holds the end-to-end
metrics: ``wall_s`` (wall time of one pass over the job list, each job
at its fastest of the run's passes), ``setup_s`` (median, over nine
launches, of the time from starting the interpreter until the first job can
start) and ``peak_rss_mb``.  Both times are scaled to a fixed reference
speed of the machine, measured while they run (speed.py).  With
``--trace 1`` it holds the per-layer metrics from a separate traced run.
``--known-defects`` adds the jobs that fail at present (they are left out of
the timed workloads, which must run without failures).

The last line of stdout is the result,
{"correct", "attempted", "failed", "metrics"}; the line before it holds the
machine, versions, seed and one row per job with its sizes and counts.  The
exit code is nonzero, with no result, when the workload cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_LAUNCHES = 9
STARTUP_LAUNCHES = 5
# a run measures for --seconds, plus at most one pass and the references
WORKER_TIMEOUT_S = 170


def pinned_env(root: str) -> dict:
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONPATH=os.path.join(root, "src"),
    )
    return env


def launch(args, mode: str, env: dict, timeout: float) -> tuple[float, dict]:
    """Start a worker; return (set-up seconds at the reference speed, its
    report)."""
    workdir = os.path.join(".bench_build", "perfbench", f"{os.getpid()}-{mode}")
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode, "--workdir", workdir,
    ]
    if args.known_defects:
        cmd.append("--known-defects")
    start = time.monotonic()
    done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    if done.returncode != 0:
        raise RuntimeError(f"worker exited {done.returncode}:\n{done.stderr[-2000:]}")
    report = json.loads(done.stdout.strip().splitlines()[-1])
    setup = (report["ready"] - start - report["setup_handler_s"]) * report["setup_factor"]
    return setup, report


def startup_s(env: dict) -> float:
    """Median time of a bare ``python -c "import ckshift.cli"``."""
    times = []
    for _ in range(STARTUP_LAUNCHES):
        start = time.monotonic()
        subprocess.run([sys.executable, "-c", "import ckshift.cli"], env=env,
                       check=True, timeout=60)
        times.append(time.monotonic() - start)
    return statistics.median(times)


def read_text(path: str) -> "str | None":
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return None


def git_commit() -> str:
    head = (read_text(os.path.join(".git", "HEAD")) or "").strip()
    if not head.startswith("ref: "):
        return head or "unknown"
    ref = head[5:]
    loose = read_text(os.path.join(".git", ref))
    if loose:
        return loose.strip()
    for line in (read_text(os.path.join(".git", "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def cpu_model() -> str:
    for line in (read_text("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return "unknown"


def select(declared: list, found: dict) -> dict:
    out = {}
    for metric in declared:
        value, unit = found[metric["name"]]
        if unit != metric["unit"]:
            raise RuntimeError(f"{metric['name']}: unit {unit}, declared {metric['unit']}")
        out[metric["name"]] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--known-defects", action="store_true")
    args = p.parse_args(argv)

    spec = json.loads(read_text("BENCHMARK.json") or "{}")
    names = [w["name"] for w in spec.get("workloads", [])]
    if args.workload not in names:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; have {names}\n")
        return 2
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ckshift", "__init__.py")):
        sys.stderr.write("error: run from the root of a ckshift checkout (no src/ckshift)\n")
        return 2
    env = pinned_env(root)
    try:
        if args.trace:
            _, report = launch(args, "trace", env, WORKER_TIMEOUT_S)
            found = {k: tuple(v) for k, v in report["metrics"].items()}
            found["cli.startup_s"] = (startup_s(env), "s")
            metrics = select(spec["per_layer"], found)
        else:
            # set-up launches before and after the measured one, so that a
            # slow spell on the machine skews only some of them
            before = [launch(args, "setup", env, 60)[0] for _ in range(SETUP_LAUNCHES // 2)]
            setup, report = launch(args, "run", env, WORKER_TIMEOUT_S)
            after = [launch(args, "setup", env, 60)[0] for _ in range(SETUP_LAUNCHES // 2)]
            setups = before + [setup] + after
            found = {
                "wall_s": (report["best_pass"], "s"),
                "setup_s": (statistics.median(setups), "s"),
                "peak_rss_mb": (report["peak_rss_mb"], "MB"),
            }
            metrics = select(spec["end_to_end"], found)
            report["setup_samples"] = setups
    except (RuntimeError, subprocess.SubprocessError, KeyError, ValueError) as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": report["python"],
        "numpy": report["numpy"],
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "pass_walls": report["pass_walls"],
        "setup_samples": report.get("setup_samples"),
        "traced_walls": report.get("traced_walls"),
        # every traced figure, including self time in seconds per function
        "layer_metrics": report.get("metrics"),
        "jobs": report["jobs"],
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
