#ifndef CTXPREF_BENCH_BENCH_METRICS_H_
#define CTXPREF_BENCH_BENCH_METRICS_H_

// Shared --metrics plumbing for the bench binaries:
//
//   --metrics              enable latency timing and print both export
//                          formats to stdout after the run
//   --metrics_json=FILE    also write the JSON export to FILE
//   --metrics_prom=FILE    also write the Prometheus text export to FILE
//
// The flags are stripped from argv so the remaining arguments can be
// handed to google-benchmark (or ignored by the plain-main benches).
// Passing any of the three enables `MetricsRegistry::SetTimingEnabled`,
// so histograms fill; without them the benches measure the default
// (timing-off) configuration, which is the overhead claim CI checks.
//
// Parsing also prints the build context to stderr (`PrintBenchContext`:
// hardware threads, build type and lock-rank checker state) and warns
// unless the bench was built Release, so a wall-clock figure never
// travels without it. Benches without metrics flags call
// `PrintBenchContext` themselves; benches that write JSON embed the
// same context (`BenchContextJson`), and scripts/compare_bench.py
// refuses to diff two files whose contexts differ.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/metrics.h"

#ifndef CTXPREF_BENCH_BUILD_TYPE
#error "CTXPREF_BENCH_BUILD_TYPE undefined: bench/CMakeLists.txt sets it"
#endif

namespace ctxpref {
namespace bench {

struct MetricsFlags {
  bool enabled = false;
  std::string json_path;
  std::string prom_path;
};

/// The host context a wall-clock figure is comparable within, as
/// (key, value) pairs: hardware threads, build type, lock-rank checker.
inline std::vector<std::pair<std::string, std::string>> BenchContext() {
  return {{"nproc", std::to_string(std::thread::hardware_concurrency())},
          {"build_type", CTXPREF_BENCH_BUILD_TYPE},
          {"lock_rank_checks", std::to_string(CTXPREF_LOCK_RANK_CHECKS)}};
}

/// `BenchContext()` as a JSON object, for a bench's top-level
/// `"context"` member.
inline std::string BenchContextJson() {
  std::string out = "{";
  for (const auto& [key, value] : BenchContext()) {
    if (out.size() > 1) out += ", ";
    out += "\"" + key + "\": \"" + value + "\"";
  }
  return out + "}";
}

/// Prints the build context line to stderr, and a warning unless the
/// bench was built Release.
inline void PrintBenchContext() {
  std::string line = "bench context:";
  for (const auto& [key, value] : BenchContext()) {
    line += " " + key + "=" + value;
  }
  std::fprintf(stderr, "%s\n", line.c_str());
  if (std::string(CTXPREF_BENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr,
                 "warning: not a Release build; wall-clock figures are not "
                 "comparable to Release ones\n");
  }
}

/// Consumes the metrics flags from argv (compacting it in place and
/// updating argc) and, when any was present, turns timing on. Prints
/// the build context first (`PrintBenchContext`).
inline MetricsFlags ParseMetricsFlags(int& argc, char** argv) {
  PrintBenchContext();
  MetricsFlags flags;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--metrics") == 0) {
      flags.enabled = true;
    } else if (std::strncmp(arg, "--metrics_json=", 15) == 0) {
      flags.enabled = true;
      flags.json_path = arg + 15;
    } else if (std::strncmp(arg, "--metrics_prom=", 15) == 0) {
      flags.enabled = true;
      flags.prom_path = arg + 15;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  argv[argc] = nullptr;
  if (flags.enabled) MetricsRegistry::SetTimingEnabled(true);
  return flags;
}

/// Prints both export formats to stdout and writes the requested
/// files. Call after the benchmark run so the registry is populated.
inline void DumpMetrics(const MetricsFlags& flags) {
  if (!flags.enabled) return;
  MetricsRegistry& reg = MetricsRegistry::Global();
  const std::string prom = reg.PrometheusText();
  const std::string json = reg.Json();
  std::printf("\n--- metrics (prometheus) ---\n%s", prom.c_str());
  std::printf("\n--- metrics (json) ---\n%s\n", json.c_str());
  if (!flags.prom_path.empty()) {
    std::ofstream out(flags.prom_path);
    out << prom;
  }
  if (!flags.json_path.empty()) {
    std::ofstream out(flags.json_path);
    out << json;
  }
}

}  // namespace bench
}  // namespace ctxpref

#endif  // CTXPREF_BENCH_BENCH_METRICS_H_
