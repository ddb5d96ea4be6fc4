"""Run-to-run steadiness of the end-to-end metrics.

    python3 perfbench/steady.py --runs 10 [--workloads a,b] [--seconds S]
                                [--out perfbench/results/steadiness.json]

Runs ``run.py --trace 0`` ``--runs`` times per workload with a different
seed each time, interleaving the workloads (the order rotates every round)
so that host drift hits all of them alike.  For every end-to-end metric it
records the ten values, their quartiles (``statistics.quantiles(n=4)``) and
the spread (q3 - q1) / median, and compares the spread with a third of the
metric's bound in BENCHMARK.json.  The environment is recorded beside the
numbers.  Run it from the root of a checkout.
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
ROOT = os.path.dirname(HERE)


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def one_run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    env = next((json.loads(l.split(" ", 1)[1]) for l in lines
                if l.startswith("environment ")), {})
    return json.loads(lines[-1]), time.perf_counter() - t0, env


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser()
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--out")
    args = p.parse_args(argv)
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {w: {m: [] for m in bounds} for w in workloads}
    durations = {w: [] for w in workloads}
    failures = {w: 0 for w in workloads}
    env = {}
    for i in range(args.runs):
        k = i % len(workloads)
        for w in workloads[k:] + workloads[:k]:
            result, took, env = one_run(w, args.first_seed + i, args.seconds)
            failures[w] += result["failed"]
            durations[w].append(took)
            for m in bounds:
                values[w][m].append(result["metrics"][m]["value"])
            print(f"run {i} {w}: " + ", ".join(
                f"{m} {result['metrics'][m]['value']:.4g}" for m in bounds)
                + f" ({took:.1f} s)", flush=True)

    report = {"environment": {**env, "cpu_model": _cpu_model(),
                              "loadavg_at_end": os.getloadavg()},
              "run_seconds": args.seconds, "runs": args.runs, "workloads": {}}
    steady = True
    for w in workloads:
        rows = {}
        for m, vals in values[w].items():
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            ok = m == "setup_s" or spread < bounds[m] / 3
            steady = steady and ok
            rows[m] = {"values": vals, "quartiles": [q1, q2, q3], "median": med,
                       "spread": spread, "bound": bounds[m],
                       "within_third_of_bound": spread < bounds[m] / 3}
            print(f"{w:16s} {m:12s} median {med:10.4f}  q1 {q1:10.4f}  "
                  f"q3 {q3:10.4f}  spread {spread:6.3f}  bound {bounds[m]}"
                  f"{'' if ok else '  NOT STEADY'}")
        report["workloads"][w] = {"metrics": rows, "failed_checks": failures[w],
                                  "run_wall_s": durations[w]}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
