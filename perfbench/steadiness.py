#!/usr/bin/env python3
"""Steadiness report for the bufferq benchmark.

    python3 perfbench/steadiness.py

Runs every workload of BENCHMARK.json untraced, in SETS sets of RUNS
runs, each run with its own seed, one run at a time.  For every
(workload, end-to-end metric) it prints the median, the quartiles, the
worst per-set quartile spread (q3 - q1) / median, the full spread
(max - min) / median, and the drift between the set medians.  Each run's
values go to stderr as it ends.

A metric is flagged when, in any set, its quartile spread exceeds its
bound in BENCHMARK.json, or when its set medians drift apart by more
than DRIFT_LIMIT.  Exits 1 when anything is flagged, so that its output
is a proof of steadiness only when it exits 0.
"""

import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUNS = 10
SETS = 2
SEED_BASE = 1000
# Set medians may drift apart by at most this share of the smaller.
DRIFT_LIMIT = 0.1


def run_once(spec, workload, seed):
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{' '.join(cmd)}: {result['failed']} of {result['attempted']} failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def share(x, base):
    return x / base if base else float("inf")


def quartile_spread(values):
    """(q3 - q1) / median, the spread the acceptance check takes."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return share(q3 - q1, statistics.median(values))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    flagged = []
    print(f"{'workload':<16} {'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'iqr/med':>8} {'rng/med':>8} {'drift':>7} {'bound':>6}  flag")
    for workload in (w["name"] for w in spec["workloads"]):
        sets = []
        for s in range(SETS):
            runs = []
            for r in range(RUNS):
                seed = SEED_BASE + s * RUNS + r
                runs.append(run_once(spec, workload, seed))
                values = " ".join(f"{k}={v:.6g}" for k, v in runs[-1].items())
                print(f"  {workload} set {s} run {r} seed {seed}: {values}", file=sys.stderr)
            sets.append(runs)
        for m in spec["end_to_end"]:
            name = m["name"]
            per_set = [[run[name] for run in runs] for runs in sets]
            values = [v for vals in per_set for v in vals]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            worst = max(quartile_spread(v) for v in per_set)
            rng = share(max(values) - min(values), med)
            set_medians = [statistics.median(v) for v in per_set]
            drift = share(max(set_medians) - min(set_medians), min(set_medians))
            flag = []
            if worst > m["bound"]:
                flag.append(f"iqr {worst:.3f} > bound")
            if drift > DRIFT_LIMIT:
                flag.append(f"drift {drift:.3f} > {DRIFT_LIMIT}")
            if flag:
                flagged.append((workload, name))
            print(f"{workload:<16} {name:<14} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{worst:>8.3f} {rng:>8.3f} {drift:>7.3f} {m['bound']:>6}  {'; '.join(flag)}")
    if flagged:
        print(f"flagged: {len(flagged)} metric(s)")
        sys.exit(1)
    print("steady: every spread within its bound, every drift within "
          f"{DRIFT_LIMIT}")


if __name__ == "__main__":
    main()
