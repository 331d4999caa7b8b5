#!/usr/bin/env python3
"""Steadiness check for the serving benchmark.

    python3 perfbench/steady.py --runs 10 [--workloads hot_hits,cold_scan]
                                [--seconds 10] [--trace 0] [--first-seed 1]

Runs the workloads interleaved (A, B, C, A, B, C, ...) `--runs` times
each, every round with a new seed, through perfbench/run.py. Prints one
line per run (with the host probe, so a slow set of runs can be traced
to the host), then per workload and metric the median, the quartiles
(`statistics.quantiles(values, n=4)`) and the spread (Q3 - Q1) / median
next to the metric's bound from BENCHMARK.json, and the spread of the
same timings as measured, before they are scaled to the reference host
speed. A spread below a third of its bound is marked "ok".
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread_of(vals):
    med = statistics.median(vals)
    if len(vals) < 2 or not med:
        return med, med, med, float("nan")
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return med, q1, q3, (q3 - q1) / med


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    probe = re.search(r"host_probe: ([0-9.]+)", proc.stdout)
    measured = re.search(r"^as measured: (.*)$", proc.stdout, re.M)
    raw = {}
    for pair in (measured.group(1).split(", ") if measured else []):
        name, value = pair.split(" ")
        raw[name] = float(value)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        raise SystemExit(f"steady.py: {workload} seed {seed} failed")
    result = json.loads(lines[-1])
    tail = re.search(r"^tail: query_p99_us ([0-9.]+)", proc.stdout, re.M)
    if tail:
        result["metrics"]["query_p99_us (printed)"] = {
            "value": float(tail.group(1)), "unit": "us"}
    return result, raw, float(probe.group(1)) if probe else float("nan")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {w: {} for w in workloads}
    raw_values = {w: {} for w in workloads}
    for i in range(args.runs):
        seed = args.first_seed + i
        for w in workloads:
            result, raw, probe = one_run(w, seed, args.seconds, args.trace)
            for name, value in raw.items():
                raw_values[w].setdefault(name, []).append(value)
            shown = []
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
                shown.append(f"{name}={m['value']:.4g}")
            print(f"{w:12s} seed {seed:3d} probe {probe:6.1f} ns "
                  f"failed {result['failed']} " + " ".join(shown), flush=True)

    print()
    print(f"{'workload':12s} {'metric':30s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'spread':>7s} {'bound':>6s} {'raw':>6s}")
    for w in workloads:
        for name, vals in values[w].items():
            med, q1, q3, spread = spread_of(vals)
            bound = bounds.get(name)
            mark = ""
            if bound is not None:
                mark = "ok" if spread < bound / 3 else "WIDE"
            raw = raw_values[w].get(name)
            raw_spread = f"{spread_of(raw)[3]:6.3f}" if raw else ""
            print(f"{w:12s} {name:30s} {med:12.4f} {q1:12.4f} {q3:12.4f} "
                  f"{spread:7.3f} {bound if bound is not None else '':>6} "
                  f"{raw_spread:>6s} {mark}")


if __name__ == "__main__":
    main()
