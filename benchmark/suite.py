#!/usr/bin/env python3
"""Runs of the whole benchmark, and the comparison of two sets of runs.

Called through benchmark/run.sh (which builds the program first):

  all       every workload once, results under --out
  aa        the suite twice over the same code, interleaved, then compare
  spread    R runs per workload on R seeds; quartile spread against bound
  compare   A B: verdict per workload x end-to-end metric

A result directory holds one JSON file per run: the run's one-line result
plus its workload and seed. Bounds, directions and workload names come
from BENCHMARK.json, so this file names no metric.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_one(workload, seed, seconds, trace, out_dir, tag):
    """One workload in one fresh process; returns its parsed result."""
    binary = os.environ["CPDB_BENCHMARK_BIN"]
    argv = [binary, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.exit(f"{workload} seed {seed}: no result (exit {done.returncode})")
    result = json.loads(lines[-1])
    result.update(workload=workload, seed=seed, seconds=seconds, trace=trace)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{workload}-{tag}.json"), "w") as f:
        json.dump(result, f)
        f.write("\n")
    if not result["correct"] or done.returncode != 0:
        sys.exit(f"{workload} seed {seed}: {result['failed']} of "
                 f"{result['attempted']} operations failed or were wrong")
    return result


def fresh(directory):
    """An empty result directory: stale runs must not join the medians."""
    os.makedirs(directory, exist_ok=True)
    for name in os.listdir(directory):
        if name.endswith(".json"):
            os.remove(os.path.join(directory, name))
    return directory


def load(directory):
    """{workload: {metric: [values]}} over every result file in a directory."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".json"):
            result = json.load(open(os.path.join(directory, name)))
            if "workload" in result and not result.get("trace"):
                per_metric = runs.setdefault(result["workload"], {})
                for metric, m in result["metrics"].items():
                    per_metric.setdefault(metric, []).append(m["value"])
    return runs


def spread_of(values):
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def print_spread(runs):
    print(f"{'workload':<11} {'metric':<22} {'median':>14} {'spread':>8} {'bound':>6}  within a third")
    wide = 0
    for workload in WORKLOADS:
        for spec in SPEC["end_to_end"]:
            values = runs.get(workload, {}).get(spec["name"])
            if not values:
                continue
            spread = spread_of(values)
            ok = spread is not None and spread <= spec["bound"] / 3
            wide += not ok and spec["name"] != "setup_s"
            shown = "n/a" if spread is None else f"{spread:8.4f}"
            print(f"{workload:<11} {spec['name']:<22} {statistics.median(values):>14.4f} "
                  f"{shown:>8} {spec['bound']:>6.2f}  {'yes' if ok else 'NO'}  n={len(values)}")
    return wide


def compare(dir_a, dir_b):
    a, b = load(dir_a), load(dir_b)
    print(f"{'workload':<11} {'metric':<22} {'A median':>14} {'B median':>14} "
          f"{'B/A':>7} {'worse by':>9} {'bound':>6} {'spread':>7}  verdict")
    regressed = 0
    for workload in WORKLOADS:
        for spec in SPEC["end_to_end"]:
            va = a.get(workload, {}).get(spec["name"])
            vb = b.get(workload, {}).get(spec["name"])
            if not va or not vb:
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            lower = spec["better"] == "lower"
            worse_by = (mb - ma) / ma if lower else (ma - mb) / ma
            spreads = [s for s in (spread_of(va), spread_of(vb)) if s is not None]
            spread = max(spreads) if spreads else 0.0
            b_all_better = (max(vb) < min(va)) if lower else (min(vb) > max(va))
            b_all_worse = (min(vb) > max(va)) if lower else (max(vb) < min(va))
            if worse_by > spec["bound"] and (spread <= spec["bound"] or b_all_worse):
                verdict = "regressed"
                regressed += 1
            elif spread > spec["bound"] and not b_all_better:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"{workload:<11} {spec['name']:<22} {ma:>14.4f} {mb:>14.4f} {mb / ma:>7.3f} "
                  f"{worse_by:>+9.3f} {spec['bound']:>6.2f} {spread:>7.3f}  {verdict}")
    return regressed


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["all", "aa", "spread", "compare"])
    parser.add_argument("dirs", nargs="*")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", "--secs", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--runs", type=int, default=None)
    parser.add_argument("--out", default=os.path.join(HERE, "out", "suite"))
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args()
    workloads = args.workload or WORKLOADS

    if args.mode == "compare":
        if len(args.dirs) != 2:
            sys.exit("compare takes two result directories")
        sys.exit(1 if compare(*args.dirs) else 0)
    if args.mode == "all":
        for workload in workloads:
            result = run_one(workload, args.seed, args.seconds, args.trace, args.out, f"seed{args.seed}")
            for name, m in result["metrics"].items():
                print(f"{workload:<11} {name:<44} {m['value']:>16.4f} {m['unit']}")
    elif args.mode == "spread":
        out = fresh(os.path.join(args.out, "spread"))
        for seed in range(1, (args.runs or 10) + 1):
            for workload in workloads:
                run_one(workload, seed, args.seconds, 0, out, f"seed{seed}")
        sys.exit(1 if print_spread(load(out)) else 0)
    else:
        sides = [fresh(os.path.join(args.out, side)) for side in "AB"]
        for i in range(args.runs or 3):
            for workload in workloads:
                # Same code, same seed on both sides; which side runs
                # first alternates.
                for side in (sides if i % 2 == 0 else sides[::-1]):
                    run_one(workload, args.seed, args.seconds, 0, side, f"seed{args.seed}-run{i}")
        sys.exit(1 if compare(*sides) else 0)


if __name__ == "__main__":
    main()
