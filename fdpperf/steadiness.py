#!/usr/bin/env python3
"""Measures the run-to-run spread of the benchmark's end-to-end metrics.

    python3 fdpperf/steadiness.py --workloads kv-read,kv-async --runs 10

Runs each workload --runs times through run.py, each run with the next seed,
and prints for every end-to-end metric its median, first and third quartile
(statistics.quantiles, n=4), the spread (q3 - q1) / median, and the metric's
bound from BENCHMARK.json, then each run's host speed (HostGauge). A spread is flagged when it is not below a third
of the bound. --json writes every run's metrics to a file as well.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError("run failed (%d): %s" % (out.returncode, out.stderr[-2000:]))
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError("run reported incorrect outputs: %s" % lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    steal = [float(line.split(":")[1].split()[0]) for line in lines
             if line.startswith("# host steal")]
    values["host_steal"] = max(steal, default=0.0)
    for line in lines:
        if line.startswith("# host gauge"):
            values["host_speed"] = float(line.split()[-1])
    return values


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", required=True, help="comma-separated names")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--json", help="also write every run's metrics here")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    all_runs = {}
    flagged = 0
    for workload in args.workloads.split(","):
        runs = []
        for i in range(args.runs):
            runs.append(one_run(workload, args.first_seed + i, seconds, 0))
            print("%s seed %d: ops_per_s %.0f, host speed %.3f, host steal %.3f" %
                  (workload, args.first_seed + i, runs[-1]["ops_per_s"],
                   runs[-1].get("host_speed", -1), runs[-1]["host_steal"]),
                  file=sys.stderr, flush=True)
        all_runs[workload] = runs
        print("\n%s: %d runs x %d s, seeds %d..%d" % (workload, len(runs), seconds,
                                                    args.first_seed,
                                                    args.first_seed + len(runs) - 1))
        print("%-18s %14s %14s %14s %8s %6s" % ("metric", "median", "q1", "q3", "spread",
                                              "bound"))
        for name in bounds:
            values = [r[name] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if spread < bounds[name] / 3 else "  <-- not below bound/3"
            if flag and name != "setup_s":
                flagged += 1
            print("%-18s %14.6g %14.6g %14.6g %8.4f %6.2f%s" % (name, med, q1, q3, spread,
                                                              bounds[name], flag))
        print("host speed per run: " + " ".join("%.3f" % r["host_speed"] for r in runs))
        print("host steal share per run (largest of its stacks): " +
              " ".join("%.3f" % r["host_steal"] for r in runs))
    if args.json:
        with open(args.json, "w") as f:
            json.dump(all_runs, f, indent=1)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
