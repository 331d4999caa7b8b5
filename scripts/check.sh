#!/usr/bin/env bash
# One-command verification: tier-1 tests plus sanitizer passes.
#
#   scripts/check.sh              # tier-1 (plain build) + ASan/UBSan tier-1
#   scripts/check.sh --tsan       # also run the chaos/concurrency tests
#                                 # under ThreadSanitizer
#   scripts/check.sh --fast       # tier-1 only, no sanitizers
#   scripts/check.sh --only-asan  # ASan/UBSan pass only (CI job)
#   scripts/check.sh --only-tsan  # TSan pass only (CI job)
#   scripts/check.sh --coverage   # instrumented tier-1 run + line-
#                                 # coverage floor on src/ (CI job)
#   scripts/check.sh --only-tidy  # clang-tidy (baselined) + lint.py
#                                 # only, no build/tests (CI job)
#   scripts/check.sh --thread-safety
#                                 # Clang build with -Wthread-safety
#                                 # -Werror=thread-safety (CI job)
#   scripts/check.sh --bench-gate # Release bench_resolution run with
#                                 # the flat-vs-pointer Search_CS
#                                 # speedup gate, the cache hit-vs-miss
#                                 # gate, bench_ablation's invariants
#                                 # + advisory baseline diffs
#                                 # (CI job); every gate runs, and a
#                                 # failure names each failed gate
#   scripts/check.sh --scenarios  # Release scenario_runner over every
#                                 # scenarios/*.cfg: each must be
#                                 # deterministic (two runs, identical
#                                 # CSV) and serve its pinned answer
#                                 # CRC (scenarios/expected_crc.txt),
#                                 # and the cache + shed ablation
#                                 # ratio gates must hold (CI job)
#
# The static-analysis modes auto-detect clang/clang-tidy and print a
# clear SKIP instead of failing on GCC-only machines; lint.py always
# runs (it only needs python3).
#
# Extra CMake configure arguments (e.g. a ccache launcher or
# -DCTXPREF_WERROR=ON in CI) are taken from $CTXPREF_CMAKE_ARGS.
#
# Build trees: build/ (plain), build-asan/ (address,undefined),
# build-tsan/ (thread), build-cov/ (--coverage). Each is configured on
# first use and reused.

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 2)"
RUN_PLAIN=1
RUN_TSAN=0
RUN_ASAN=1
RUN_COV=0
RUN_TIDY=0
RUN_TSA=0
RUN_BENCH=0
RUN_SCENARIOS=0
for arg in "$@"; do
  case "$arg" in
    --tsan) RUN_TSAN=1 ;;
    --fast) RUN_ASAN=0 ;;
    --only-asan) RUN_PLAIN=0; RUN_ASAN=1; RUN_TSAN=0 ;;
    --only-tsan) RUN_PLAIN=0; RUN_ASAN=0; RUN_TSAN=1 ;;
    --coverage) RUN_PLAIN=0; RUN_ASAN=0; RUN_TSAN=0; RUN_COV=1 ;;
    --only-tidy) RUN_PLAIN=0; RUN_ASAN=0; RUN_TSAN=0; RUN_TIDY=1 ;;
    --thread-safety) RUN_PLAIN=0; RUN_ASAN=0; RUN_TSAN=0; RUN_TSA=1 ;;
    --bench-gate) RUN_PLAIN=0; RUN_ASAN=0; RUN_TSAN=0; RUN_BENCH=1 ;;
    --scenarios) RUN_PLAIN=0; RUN_ASAN=0; RUN_TSAN=0; RUN_SCENARIOS=1 ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done

find_clangxx() {
  for candidate in clang++ clang++-21 clang++-20 clang++-19 clang++-18 \
                   clang++-17 clang++-16 clang++-15 clang++-14; do
    if command -v "$candidate" >/dev/null 2>&1; then
      echo "$candidate"
      return 0
    fi
  done
  return 1
}

configure_and_test() {
  local dir="$1" sanitize="$2" label="$3"; shift 3
  echo "==== ${label} ===="
  # Word-splitting of CTXPREF_CMAKE_ARGS is intentional: it carries
  # whole -D... arguments, none of which contain spaces.
  # shellcheck disable=SC2086
  cmake -B "${dir}" -S . -DCTXPREF_SANITIZE="${sanitize}" \
    ${CTXPREF_CMAKE_ARGS:-} > /dev/null
  # The grep below is a display filter only. Piping the build into it
  # directly would let grep's exit status (and `|| true`) swallow a
  # failed compile, so capture the build status explicitly and fail on
  # it after showing the diagnostics.
  local build_status=0
  cmake --build "${dir}" -j "${JOBS}" -- --no-print-directory \
    > "${dir}/check-build.log" 2>&1 || build_status=$?
  grep -E "error|warning" "${dir}/check-build.log" || true
  if [[ "${build_status}" -ne 0 ]]; then
    echo "BUILD FAILED (${label}); full log: ${dir}/check-build.log" >&2
    exit "${build_status}"
  fi
  (cd "${dir}" && ctest --output-on-failure --no-tests=error -j "${JOBS}" "$@")
}

if [[ "${RUN_PLAIN}" == 1 ]]; then
  # Tier-1: the full suite in the plain tree.
  configure_and_test build "" "tier-1 (no sanitizer)"
fi

if [[ "${RUN_ASAN}" == 1 ]]; then
  # Address + undefined-behavior sanitizers over the full suite.
  configure_and_test build-asan "address,undefined" "tier-1 under ASan+UBSan"
fi

if [[ "${RUN_TSAN}" == 1 ]]; then
  # ThreadSanitizer over the tests that exercise real concurrency:
  # the resilient-source chaos tests, the cache/rank stress tests,
  # bench_overload's server queue (server_queue_test, whose suite is
  # still named ThreadPoolTest), the observability-layer concurrent
  # recorders, the coherence stress tests (re-score hits racing
  # readers among them), and the profile store (snapshots shared with
  # readers, preference bodies freed by whichever thread drops the
  # last pin).
  # Test IDs are CamelCase suite names (gtest_discover_tests), so the
  # filter must match those, not source file names; --no-tests=error
  # above turns an empty match back into a failure instead of a silent
  # pass.
  configure_and_test build-tsan "thread" "concurrency tests under TSan" \
    -R "ResilientSource|QueryCacheConcurrent|ThreadPool|Observability|Serving|Overload|Coherence|ProfileStore"
fi

if [[ "${RUN_TSA}" == 1 ]]; then
  # Clang thread-safety analysis: the whole tree must build clean with
  # -Wthread-safety -Werror=thread-safety (CTXPREF_THREAD_SAFETY=ON).
  echo "==== clang -Wthread-safety build ===="
  if CLANGXX="$(find_clangxx)"; then
    CLANGC="${CLANGXX/clang++/clang}"
    command -v "${CLANGC}" >/dev/null 2>&1 || CLANGC="${CLANGXX}"
    # shellcheck disable=SC2086
    cmake -B build-tsa -S . -DCTXPREF_THREAD_SAFETY=ON \
      -DCMAKE_C_COMPILER="${CLANGC}" -DCMAKE_CXX_COMPILER="${CLANGXX}" \
      ${CTXPREF_CMAKE_ARGS:-} > /dev/null
    tsa_build_status=0
    cmake --build build-tsa -j "${JOBS}" -- --no-print-directory \
      > build-tsa/check-build.log 2>&1 || tsa_build_status=$?
    grep -E "error|warning" build-tsa/check-build.log || true
    if [[ "${tsa_build_status}" -ne 0 ]]; then
      echo "BUILD FAILED (thread-safety); full log:" \
           "build-tsa/check-build.log" >&2
      exit "${tsa_build_status}"
    fi
    echo "thread-safety analysis clean (${CLANGXX})"
  else
    echo "SKIP: no clang++ on PATH — thread-safety analysis needs Clang" \
         "(GCC compiles the annotations as no-ops)"
  fi
fi

if [[ "${RUN_BENCH}" == 1 ]]; then
  # Release resolution microbenches: the arena-flattened Search_CS
  # must stay >= 5x the pointer walk at the serving-scale pair
  # (/5000); smaller sizes and the committed-baseline absolute-time
  # diff are advisory. Ratios are same-run, so the gate is robust to
  # slow shared runners.
  echo "==== bench gate (flat vs pointer resolution) ===="
  # shellcheck disable=SC2086
  cmake -B build-bench -S . -DCMAKE_BUILD_TYPE=Release \
    ${CTXPREF_CMAKE_ARGS:-} > /dev/null
  bench_build_status=0
  cmake --build build-bench -j "${JOBS}" \
    --target bench_resolution --target bench_overload \
    --target bench_coherence --target bench_micro --target bench_ablation \
    -- --no-print-directory > build-bench/check-build.log 2>&1 \
    || bench_build_status=$?
  grep -E "error|warning" build-bench/check-build.log || true
  if [[ "${bench_build_status}" -ne 0 ]]; then
    echo "BUILD FAILED (bench); full log: build-bench/check-build.log" >&2
    exit "${bench_build_status}"
  fi
  # Each gate's failure is recorded and the rest still run; the end of
  # this block names every gate that failed and exits 1.
  failed_gates=()
  gate() {
    local name="$1"; shift
    local status=0
    "$@" || status=$?
    if [[ "${status}" -ne 0 ]]; then
      echo "GATE FAILED (exit ${status}): ${name}" >&2
      failed_gates+=("${name}")
    fi
  }
  gate "bench_resolution run" ./build-bench/bench/bench_resolution \
    --benchmark_min_time=0.2 \
    --benchmark_out=build-bench/bench_resolution.json
  gate "flat vs pointer Search_CS >= 5x" python3 scripts/compare_bench.py \
    --speedup build-bench/bench_resolution.json \
    --base-prefix BM_SearchCS_Pointer --target-prefix BM_SearchCS_Flat \
    --min-ratio 5 --pair-filter '/5000$'
  gate "bench_resolution baseline diff" \
    python3 scripts/compare_bench.py BENCH_resolution_baseline.json \
    build-bench/bench_resolution.json

  echo "==== bench gate (cache hit vs miss, 3-state query) ===="
  # A cached RankCS answer with every state cached must beat recomputing
  # the same query uncached by >= 2x in wall time: the median over
  # alternating batch pairs of each pair's miss/hit ratio, timed in one
  # loop, so a pair's two batches see the same phase of host load. A
  # ratio of the medians of separate Hit and Miss repetitions read
  # 1.87-1.98x in 3 of 11 runs of unchanged code.
  gate "bench_micro BM_ThreeStateQuery_HitVsMiss run" \
    ./build-bench/bench/bench_micro \
    --benchmark_filter='BM_ThreeStateQuery_HitVsMiss' \
    --benchmark_min_time=2 \
    --benchmark_out=build-bench/bench_cache_hit.json
  gate "cache hit vs miss >= 2x" python3 scripts/compare_bench.py \
    --counter-gate build-bench/bench_cache_hit.json \
    --counter miss_per_hit --min-ratio 2 --pair-filter '/500$'

  echo "==== bench gate (relation selection vs Eval scan) ===="
  # Rank_CS's selections through the relation's posting lists must beat
  # a plain Predicate::Eval row loop by >= 10x at 20 000 POIs.
  gate "bench_micro BM_Select_ run" ./build-bench/bench/bench_micro \
    --benchmark_filter='BM_Select_' \
    --benchmark_min_time=0.2 \
    --benchmark_out=build-bench/bench_select.json
  gate "relation selection vs Eval scan >= 10x" \
    python3 scripts/compare_bench.py \
    --speedup build-bench/bench_select.json \
    --base-prefix BM_Select_EvalScan \
    --target-prefix BM_Select_Relation \
    --min-ratio 10 --pair-filter '/20000$'

  echo "==== bench gate (overload goodput, shed vs noshed) ===="
  # The binary's own bars (torn == 0, a saturated noshed 2x phase,
  # shed at 2x serves <= 1.3x the probe median, shed retains >= 80% of
  # peak goodput at 2x, shed beats noshed) fail via its exit code; bars self-skip on one hardware thread but the
  # torn check always applies.
  gate "bench_overload bars" ./build-bench/bench/bench_overload \
    --json_out=build-bench/bench_overload.json
  if [[ "$(nproc 2>/dev/null || echo 1)" -gt 1 ]]; then
    # Goodput ratio at 2x saturation: the protected configuration must
    # beat the unprotected one, which collapses past saturation. Same-
    # run ratio, so robust to slow shared runners.
    gate "overload shed vs noshed goodput >= 1.5x" \
      python3 scripts/compare_bench.py \
      --speedup build-bench/bench_overload.json \
      --base-prefix BM_OverloadGoodput_NoShed \
      --target-prefix BM_OverloadGoodput_Shed \
      --min-ratio 1.5 --pair-filter '/2x$'
  else
    echo "SKIP: shed/noshed goodput gate needs >1 hardware thread" \
         "(producer and workers time-slice one CPU)"
  fi
  # Advisory drift. The baseline has no NoShed/1x row: 1x is saturation
  # itself, where the unshed queue either keeps up or collapses, so that
  # row is bimodal run to run and no bar reads it.
  gate "bench_overload baseline diff" \
    python3 scripts/compare_bench.py BENCH_overload_baseline.json \
    build-bench/bench_overload.json

  echo "==== bench gate (coherence hit rate, replicated vs single-shared) ===="
  # The binary's own bars (phase A all-hit, torn == 0, refuse path
  # exercised, lag quiesces to 0) fail via its exit code on any core
  # count; the hit-rate speedup is a parallelism claim, so the ratio
  # gate needs real cores.
  gate "bench_coherence bars" ./build-bench/bench/bench_coherence \
    --json_out=build-bench/bench_coherence.json
  if [[ "$(nproc 2>/dev/null || echo 1)" -gt 1 ]]; then
    # Replicated per-thread trees vs one shared tree under 8-reader
    # read skew: same-run ratio, so robust to slow shared runners.
    gate "coherence replicated vs single-shared hit rate >= 1.5x" \
      python3 scripts/compare_bench.py \
      --speedup build-bench/bench_coherence.json \
      --base-prefix BM_CoherenceHitRate_SingleShared \
      --target-prefix BM_CoherenceHitRate_Replicated \
      --min-ratio 1.5 --pair-filter '/8r$'
  else
    echo "SKIP: replicated/single-shared hit-rate gate needs >1 hardware" \
         "thread (readers time-slice one CPU)"
  fi
  gate "bench_coherence baseline diff" \
    python3 scripts/compare_bench.py BENCH_coherence_baseline.json \
    build-bench/bench_coherence.json

  echo "==== bench gate (ablation invariants) ===="
  # Fails on a rejected insert or query, or when the compared paths of
  # Ablations 3 and 4 disagree on their counts; timings are advisory.
  gate "bench_ablation invariants" ./build-bench/bench/bench_ablation

  if [[ "${#failed_gates[@]}" -gt 0 ]]; then
    echo "==== bench gate: ${#failed_gates[@]} gate(s) FAILED ====" >&2
    for name in "${failed_gates[@]}"; do
      echo "FAILED: ${name}" >&2
    done
    exit 1
  fi
fi

if [[ "${RUN_SCENARIOS}" == 1 ]]; then
  # Scenario matrix: every committed scenario must run deterministically
  # (two same-seed runs, bit-identical CSV — the CSV carries only
  # virtual-time fields, so this holds on any machine) and serve the
  # answer CRC pinned in scenarios/expected_crc.txt (so a change that
  # alters what is served fails here, across commits, not just across
  # two runs of one build), then the two ablation ratio gates. Both gates compare deterministic virtual-time
  # figures (/vop, /goodop) from the same run, so they are immune to
  # shared-runner noise; wall time is advisory (see docs/scenarios.md).
  echo "==== scenario harness (determinism + ablation gates) ===="
  # shellcheck disable=SC2086
  cmake -B build-bench -S . -DCMAKE_BUILD_TYPE=Release \
    ${CTXPREF_CMAKE_ARGS:-} > /dev/null
  sc_build_status=0
  cmake --build build-bench -j "${JOBS}" --target scenario_runner \
    -- --no-print-directory > build-bench/check-build.log 2>&1 \
    || sc_build_status=$?
  grep -E "error|warning" build-bench/check-build.log || true
  if [[ "${sc_build_status}" -ne 0 ]]; then
    echo "BUILD FAILED (scenarios); full log:" \
         "build-bench/check-build.log" >&2
    exit "${sc_build_status}"
  fi
  mkdir -p build-bench/scenarios
  for cfg in scenarios/*.cfg; do
    name="$(basename "${cfg}" .cfg)"
    echo "---- ${name}: determinism ----"
    ./build-bench/bench/scenario_runner --config="${cfg}" \
      --csv_out="build-bench/scenarios/${name}.1.csv"
    ./build-bench/bench/scenario_runner --config="${cfg}" \
      --csv_out="build-bench/scenarios/${name}.2.csv" > /dev/null
    if ! cmp "build-bench/scenarios/${name}.1.csv" \
             "build-bench/scenarios/${name}.2.csv"; then
      echo "FAIL: ${cfg} is nondeterministic (same config + seed" \
           "produced different CSV)" >&2
      exit 1
    fi
    scripts/check_scenario_crc.sh "${name}" \
      "build-bench/scenarios/${name}.1.csv"
  done

  echo "---- cache ablation gate (virtual ns/op, same run) ----"
  ./build-bench/bench/scenario_runner --config=scenarios/cache_heavy.cfg \
    --ablate=cache --bench_json=build-bench/scenarios/cache_gate.json
  python3 scripts/compare_bench.py \
    --speedup build-bench/scenarios/cache_gate.json \
    --base-prefix SC_cache_heavy_CacheOff \
    --target-prefix SC_cache_heavy_CacheOn \
    --min-ratio 2.0 --pair-filter '/vop$'

  echo "---- shed ablation gate (virtual ns/good-op, same run) ----"
  ./build-bench/bench/scenario_runner --config=scenarios/overload_shed.cfg \
    --ablate=shed --bench_json=build-bench/scenarios/shed_gate.json
  python3 scripts/compare_bench.py \
    --speedup build-bench/scenarios/shed_gate.json \
    --base-prefix SC_overload_shed_ShedOff \
    --target-prefix SC_overload_shed_ShedOn \
    --min-ratio 1.5 --pair-filter '/goodop$'
fi

if [[ "${RUN_TIDY}" == 1 ]]; then
  # Static-analysis gate: clang-tidy against the baseline (skips
  # without clang-tidy), then the repo-specific linter (always runs).
  echo "==== clang-tidy + lint.py ===="
  tidy_status=0
  bash scripts/tidy.sh || tidy_status=$?
  if [[ "${tidy_status}" -ne 0 && "${tidy_status}" -ne 77 ]]; then
    exit "${tidy_status}"
  fi
  python3 scripts/lint.py
fi

if [[ "${RUN_COV}" == 1 ]]; then
  # Instrumented tier-1 run, then the line-coverage floor on src/.
  # Stale counters from an earlier run would inflate the numbers, so
  # drop them before testing.
  echo "==== tier-1 with coverage instrumentation ===="
  # shellcheck disable=SC2086
  cmake -B build-cov -S . -DCTXPREF_COVERAGE=ON \
    ${CTXPREF_CMAKE_ARGS:-} > /dev/null
  find build-cov -name '*.gcda' -delete
  cov_build_status=0
  cmake --build build-cov -j "${JOBS}" -- --no-print-directory \
    > build-cov/check-build.log 2>&1 || cov_build_status=$?
  grep -E "error|warning" build-cov/check-build.log || true
  if [[ "${cov_build_status}" -ne 0 ]]; then
    echo "BUILD FAILED (coverage); full log: build-cov/check-build.log" >&2
    exit "${cov_build_status}"
  fi
  (cd build-cov && ctest --output-on-failure --no-tests=error -j "${JOBS}")
  python3 scripts/coverage.py --build-dir build-cov --threshold 70
fi

echo "==== all checks passed ===="
