"""Summary of every workload's metrics, with units, in one command.

    python3 perfbench/report.py [--runs N] [--seconds S] [--trace] [--out FILE]

From the root of a checkout, runs ``run.py`` N times per workload (seeds
1..N, known-defect jobs included) and prints, for each workload and each
end-to-end metric, the median over runs with its quartiles and the run
count, plus ``failed_ratio`` (failed / attempted jobs over all runs).  With
``--trace`` it adds one traced run per workload and prints its per-layer
metrics.  ``--out`` also writes the summary as JSON.  Runs are sequential.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    # known defects count in failed_ratio; the traced run leaves them out
    # so that self-time shares add up over the timed jobs only
    if not trace:
        cmd.append("--known-defects")
    done = subprocess.run(cmd, capture_output=True, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    return {**json.loads(lines[-1]), **json.loads(lines[-2])}


def summarize(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3, "runs": len(values)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--runs", type=int, default=3)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--out")
    args = p.parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    summary = {}
    for w in spec["workloads"]:
        name = w["name"]
        runs = [run_once(name, seed, seconds, 0) for seed in range(1, args.runs + 1)]
        env = runs[0]["detail"]
        print(f"\n{name}  ({args.runs} runs of {seconds} s; python {env['python']}, "
              f"numpy {env['numpy']}, {env['nproc']} cpus, {env['cpu']}, "
              f"commit {env['commit'][:12]})")
        rows = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            rows[metric["name"]] = {**summarize(values), "unit": metric["unit"]}
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        rows["failed_ratio"] = {"median": failed / attempted, "q1": None, "q3": None,
                                "runs": args.runs, "unit": "ratio"}
        for key, row in rows.items():
            spread = "" if row["q1"] is None else f"  [q1 {row['q1']:.4g}, q3 {row['q3']:.4g}]"
            print(f"  {key:<14} {row['median']:>10.4g} {row['unit']:<6}{spread}  n={row['runs']}")
        failing = sorted({j["job"] for r in runs for j in r["detail"]["jobs"] if j["failed"]})
        print(f"  failed jobs: {', '.join(failing) if failing else 'none'} "
              f"({failed} of {attempted} attempts)")
        summary[name] = {"end_to_end": rows, "failed_jobs": failing, "jobs": env["jobs"]}
        if args.trace:
            traced = run_once(name, 1, seconds, 1)
            print("  per-layer (one traced run, seed 1):")
            for metric in spec["per_layer"]:
                value = traced["metrics"][metric["name"]]["value"]
                if value:
                    print(f"    {metric['name']:<42} {value:>12.5g} {metric['unit']}")
            summary[name]["per_layer"] = traced["metrics"]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
