#!/usr/bin/env python3
"""Comparison and gating over google-benchmark JSON files.

Modes:

  compare_bench.py BASELINE.json CURRENT.json
      Advisory two-file diff (the default): prints both files' bench
      contexts (the top-level "context" member's nproc, build_type and
      lock_rank_checks, which the benches embed), then a per-benchmark
      table of real_time deltas, and emits GitHub Actions warning
      annotations for benchmarks slower than the baseline by more than
      the threshold. Exits 0 — shared-runner timings are too noisy to
      gate every benchmark on. When the contexts differ, or a file has
      none, the table is skipped with one warning: a 1-CPU baseline
      says nothing about a 4-core run.

  compare_bench.py BASELINE.json CURRENT.json --gate REGEX
      Same diff, but regressions whose name matches REGEX become
      errors (exit 1), whatever the contexts. Only pin benchmarks that
      are stable enough on the target runner.

  compare_bench.py --speedup CURRENT.json \
      --base-prefix BM_SearchCS_Pointer --target-prefix BM_SearchCS_Flat \
      --min-ratio 5 [--pair-filter REGEX]
      Same-run speedup gate: pairs benchmarks whose names share a
      suffix after the two prefixes (e.g. ".../5000") and requires
      base_time / target_time >= min-ratio for every pair whose suffix
      matches --pair-filter (all pairs if omitted). Ratios are
      runner-relative, so this is robust to slow shared hardware in a
      way absolute-time gates are not. Exit 1 on any shortfall.

  compare_bench.py --counter-gate CURRENT.json --counter miss_per_hit \
      --min-ratio 2 [--pair-filter REGEX]
      Ratio gate on a counter a benchmark computes within its own loop
      (e.g. the median of per-pair miss/hit ratios): requires the
      counter >= min-ratio on every benchmark that reports it and whose
      name matches --pair-filter (all if omitted). Exit 1 on any
      shortfall, or when no benchmark reports it.

Every mode reads a name that repeats (a --benchmark_repetitions run)
as the median of its rows' real_time (of its counter, for
--counter-gate).
"""

import argparse
import json
import re
import statistics
import sys

# Generous on purpose: CI runners are shared and the smoke run uses a
# tiny --benchmark_min_time, so anything under this is likely noise.
THRESHOLD = 0.25

# The host context a wall-clock figure is comparable within
# (bench/bench_metrics.h writes these keys).
CONTEXT_KEYS = ("nproc", "build_type", "lock_rank_checks")


def read(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"::warning::compare_bench: cannot read {path}: {e}")
        return None


def context_of(doc):
    """The file's bench context as strings, or None if it lacks one."""
    ctx = doc.get("context")
    if not isinstance(ctx, dict) or any(k not in ctx for k in CONTEXT_KEYS):
        return None
    return {k: str(ctx[k]) for k in CONTEXT_KEYS}


def format_context(ctx):
    if ctx is None:
        return "(none)"
    return " ".join(f"{k}={ctx[k]}" for k in CONTEXT_KEYS)


def load(path):
    doc = read(path)
    if doc is None:
        return None
    return real_times(doc)


def real_times(doc, field="real_time"):
    """`field` per benchmark name, for the names that report it; the
    median when a name repeats (a --benchmark_repetitions run lists one
    row per repetition)."""
    runs = {}
    for b in doc.get("benchmarks", []):
        # Skip aggregate rows (mean/median/stddev) if present.
        if b.get("run_type") == "aggregate" or field not in b:
            continue
        runs.setdefault(b["name"], []).append(float(b[field]))
    return {name: statistics.median(values) for name, values in runs.items()}


def diff(baseline_path, current_path, gate_pattern):
    base_doc = read(baseline_path)
    curr_doc = read(current_path)
    if base_doc is None or curr_doc is None:
        return 0
    base_ctx, curr_ctx = context_of(base_doc), context_of(curr_doc)
    print(f"baseline context: {format_context(base_ctx)}")
    print(f"current context:  {format_context(curr_ctx)}")
    if gate_pattern is None and (base_ctx is None or base_ctx != curr_ctx):
        print(
            f"::warning::compare_bench: {baseline_path} and {current_path} "
            f"have different or missing bench contexts; drift table "
            f"skipped (re-record the baseline in this context to compare)"
        )
        return 0
    base, curr = real_times(base_doc), real_times(curr_doc)

    shared = sorted(set(base) & set(curr))
    if not shared:
        print("::warning::compare_bench: no common benchmarks to compare")
        return 0

    gate = re.compile(gate_pattern) if gate_pattern else None
    width = max(len(n) for n in shared)
    print(f"{'benchmark':<{width}} {'baseline':>12} {'current':>12} {'delta':>8}")
    advisory, gated = [], []
    for name in shared:
        b, c = base[name], curr[name]
        delta = (c - b) / b if b > 0 else 0.0
        flag = " <-- regression" if delta > THRESHOLD else ""
        print(f"{name:<{width}} {b:>10.0f}ns {c:>10.0f}ns {delta:>+7.1%}{flag}")
        if delta > THRESHOLD:
            if gate is not None and gate.search(name):
                gated.append((name, delta, b, c))
            else:
                advisory.append((name, delta, b, c))

    for name, delta, b, c in advisory:
        print(
            f"::warning::bench regression (advisory): {name} is {delta:+.1%} "
            f"vs committed baseline (threshold {THRESHOLD:.0%})"
        )
    # Failure lines carry the raw numbers: a red CI job must be
    # debuggable from its annotations alone, without re-running the
    # bench to learn what the two sides actually measured.
    for name, delta, b, c in gated:
        print(
            f"::error::bench regression (gated by /{gate_pattern}/): {name} "
            f"is {delta:+.1%} vs committed baseline "
            f"(baseline {b:.0f}ns -> current {c:.0f}ns, ratio "
            f"{c / b if b > 0 else float('inf'):.2f}x, "
            f"threshold {THRESHOLD:.0%})"
        )
    only_base = sorted(set(base) - set(curr))
    only_curr = sorted(set(curr) - set(base))
    if only_base:
        print(f"missing from current run: {', '.join(only_base)}")
    if only_curr:
        print(f"not in baseline (consider refreshing it): {', '.join(only_curr)}")
    return 1 if gated else 0


def speedup(current_path, base_prefix, target_prefix, min_ratio, pair_filter):
    curr = load(current_path)
    if curr is None:
        print(f"::error::compare_bench: cannot load {current_path}")
        return 1

    # Pair by the suffix after each prefix: BM_Foo_Pointer/5000 and
    # BM_Foo_Flat/5000 share the suffix "/5000".
    base = {n[len(base_prefix):]: t for n, t in curr.items()
            if n.startswith(base_prefix)}
    target = {n[len(target_prefix):]: t for n, t in curr.items()
              if n.startswith(target_prefix)}
    suffixes = sorted(set(base) & set(target))
    if not suffixes:
        print(
            f"::error::compare_bench: no {base_prefix}*/{target_prefix}* "
            f"pairs in {current_path}"
        )
        return 1

    gate = re.compile(pair_filter) if pair_filter else None
    failures = []
    gated_any = False
    print(f"{'pair':>8} {'base':>12} {'target':>12} {'speedup':>9}  gate")
    for suffix in suffixes:
        b, t = base[suffix], target[suffix]
        ratio = b / t if t > 0 else float("inf")
        is_gated = gate is None or bool(gate.search(suffix))
        gated_any = gated_any or is_gated
        verdict = "advisory"
        if is_gated:
            verdict = f">= {min_ratio:g}x " + (
                "OK" if ratio >= min_ratio else "FAIL"
            )
            if ratio < min_ratio:
                failures.append((suffix, ratio, b, t))
        print(f"{suffix:>8} {b:>10.0f}ns {t:>10.0f}ns {ratio:>8.2f}x  {verdict}")

    if not gated_any:
        print(
            f"::error::compare_bench: --pair-filter '{pair_filter}' matched "
            f"no pair suffixes ({', '.join(suffixes)})"
        )
        return 1
    for suffix, ratio, b, t in failures:
        print(
            f"::error::speedup gate: {target_prefix}{suffix} is only "
            f"{ratio:.2f}x faster than {base_prefix}{suffix} "
            f"(base {b:.0f}ns vs target {t:.0f}ns, required {min_ratio:g}x)"
        )
    return 1 if failures else 0


def counter_gate(current_path, counter, min_ratio, name_filter):
    doc = read(current_path)
    if doc is None:
        print(f"::error::compare_bench: cannot load {current_path}")
        return 1
    gate = re.compile(name_filter) if name_filter else None
    values = {n: v for n, v in real_times(doc, counter).items()
              if gate is None or gate.search(n)}
    if not values:
        print(
            f"::error::compare_bench: no benchmark in {current_path} "
            f"reports {counter}"
            + (f" under --pair-filter '{name_filter}'" if name_filter else "")
        )
        return 1
    failures = []
    for name, value in sorted(values.items()):
        ok = value >= min_ratio
        print(f"{name} {counter} {value:.2f} >= {min_ratio:g} "
              + ("OK" if ok else "FAIL"))
        if not ok:
            failures.append((name, value))
    for name, value in failures:
        print(
            f"::error::counter gate: {name} reports {counter} {value:.2f}, "
            f"required {min_ratio:g}"
        )
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("files", nargs="*", help="BASELINE.json CURRENT.json")
    parser.add_argument(
        "--gate",
        metavar="REGEX",
        help="two-file mode: fail on regressions whose name matches REGEX",
    )
    parser.add_argument(
        "--speedup",
        metavar="CURRENT.json",
        help="same-run speedup gate over one result file",
    )
    parser.add_argument(
        "--counter-gate",
        metavar="CURRENT.json",
        help="gate a ratio counter that benchmarks report (see --counter)",
    )
    parser.add_argument("--counter", help="counter name for --counter-gate")
    parser.add_argument("--base-prefix", help="speedup denominator name prefix")
    parser.add_argument("--target-prefix", help="speedup numerator name prefix")
    parser.add_argument(
        "--min-ratio", type=float, default=5.0,
        help="required base/target speedup or counter value (default 5)",
    )
    parser.add_argument(
        "--pair-filter",
        metavar="REGEX",
        help="gate only pair suffixes (--counter-gate: benchmark names) "
        "matching REGEX; others are advisory",
    )
    args = parser.parse_args()

    if args.speedup:
        if not args.base_prefix or not args.target_prefix:
            parser.error("--speedup requires --base-prefix and --target-prefix")
        if args.files:
            parser.error("--speedup takes no positional files")
        return speedup(
            args.speedup, args.base_prefix, args.target_prefix,
            args.min_ratio, args.pair_filter,
        )

    if args.counter_gate:
        if not args.counter:
            parser.error("--counter-gate requires --counter")
        if args.files:
            parser.error("--counter-gate takes no positional files")
        return counter_gate(
            args.counter_gate, args.counter, args.min_ratio, args.pair_filter
        )

    if len(args.files) != 2:
        parser.error("expected BASELINE.json CURRENT.json")
    return diff(args.files[0], args.files[1], args.gate)


if __name__ == "__main__":
    sys.exit(main())
