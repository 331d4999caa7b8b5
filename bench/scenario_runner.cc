// Config-driven scenario runner: executes `scenarios/*.cfg` workloads
// through the harness deterministically and emits per-scenario CSV
// (the determinism artifact), result JSON, and google-benchmark-shaped
// JSON so scripts/compare_bench.py --speedup can gate ablation ratios
// (cache on/off, shed on/off) within one run.
//
//   scenario_runner --config=scenarios/cache_heavy.cfg
//       [--set=key=value ...] [--ablate=cache ...]
//       [--csv_out=FILE] [--json_out=FILE] [--bench_json=FILE]
//       [--print_config] [--metrics] [--metrics_json=FILE]
//       [--metrics_prom=FILE]
//
// Without --ablate the scenario runs once (variant "base"). Each
// --ablate=<flag> runs an on/off pair for that flag in the same
// invocation — bench entries `SC_<name>_<Flag>On/...` and
// `SC_<name>_<Flag>Off/...` — so compare_bench.py's same-run ratios
// cancel out runner speed.
//
// Exit codes: 0 success, 1 config/runtime error, 2 usage error.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_metrics.h"
#include "harness/scenario_config.h"
#include "harness/workload_runner.h"
#include "util/string_util.h"

namespace {

using ctxpref::SplitAndTrim;
using ctxpref::StartsWith;
using ctxpref::Status;
using ctxpref::StatusOr;
using ctxpref::Trim;
using ctxpref::harness::AblationFlags;
using ctxpref::harness::ScenarioConfig;
using ctxpref::harness::ScenarioResult;
using ctxpref::harness::WorkloadRunner;

// "shed" -> "Shed" (snake_case to CamelCase), for benchmark entry names.
std::string CamelTag(const std::string& flag) {
  std::string out;
  bool up = true;
  for (const char c : flag) {
    if (c == '_') {
      up = true;
      continue;
    }
    out += up ? static_cast<char>(std::toupper(static_cast<unsigned char>(c)))
              : c;
    up = false;
  }
  return out;
}

/// Applies `key=value` overrides to config text: replaces the existing
/// assignment or appends a new one, keeping the parser's
/// duplicate-key strictness intact.
StatusOr<std::string> ApplyOverride(const std::string& text,
                                    const std::string& override_arg) {
  const size_t eq = override_arg.find('=');
  if (eq == std::string::npos || eq == 0) {
    return Status::InvalidArgument("--set expects key=value, got: " +
                                   override_arg);
  }
  const std::string key(Trim(override_arg.substr(0, eq)));
  const std::string value(Trim(override_arg.substr(eq + 1)));
  std::string out;
  bool replaced = false;
  for (const std::string& line : SplitAndTrim(text, '\n')) {
    const std::string_view code =
        Trim(std::string_view(line).substr(0, line.find('#')));
    const size_t line_eq = code.find('=');
    if (line_eq != std::string_view::npos &&
        Trim(code.substr(0, line_eq)) == key) {
      out += key;
      out += " = ";
      out += value;
      out += "\n";
      replaced = true;
      continue;
    }
    out += line;
    out += "\n";
  }
  if (!replaced) {
    out += key;
    out += " = ";
    out += value;
    out += "\n";
  }
  return out;
}

struct BenchEntry {
  std::string name;
  double real_time_ns = 0.0;
};

void AppendVariantEntries(std::vector<BenchEntry>& entries,
                          const std::string& prefix,
                          const ScenarioResult& result) {
  // /op is wall time (advisory); /vop and /goodop are virtual-time
  // figures — deterministic, so the CI ablation gates compare those.
  entries.push_back({prefix + "/op", result.wall_ns_per_op});
  entries.push_back({prefix + "/vop", result.virtual_ns_per_op});
  entries.push_back({prefix + "/goodop", result.virtual_ns_per_good_op});
}

bool WriteFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "scenario_runner: cannot write %s\n", path.c_str());
    return false;
  }
  out << contents;
  return out.good();
}

std::string BenchJson(const std::vector<BenchEntry>& entries) {
  std::string json;
  json += "{\n  \"context\": {\"library\": \"ctxpref-scenario-harness\"},\n";
  json += "  \"benchmarks\": [\n";
  for (size_t i = 0; i < entries.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "    {\"name\": \"%s\", \"run_type\": \"iteration\", "
                  "\"iterations\": 1, \"real_time\": %.3f, "
                  "\"cpu_time\": %.3f, \"time_unit\": \"ns\"}%s\n",
                  entries[i].name.c_str(), entries[i].real_time_ns,
                  entries[i].real_time_ns,
                  i + 1 == entries.size() ? "" : ",");
    json += buf;
  }
  json += "  ]\n}\n";
  return json;
}

void PrintResult(const ScenarioResult& r) {
  std::printf(
      "%-24s %-16s ops=%llu fresh=%llu stale=%llu trunc=%llu shed=%llu "
      "good=%llu hit_rate=%.3f agreement=%.3f crc=%u wall=%.2fs\n",
      r.scenario.c_str(), r.variant.c_str(),
      static_cast<unsigned long long>(r.ops),
      static_cast<unsigned long long>(r.served_fresh),
      static_cast<unsigned long long>(r.served_stale),
      static_cast<unsigned long long>(r.served_truncated),
      static_cast<unsigned long long>(r.served_shed),
      static_cast<unsigned long long>(r.good_ops),
      r.cache_hits + r.cache_misses > 0
          ? static_cast<double>(r.cache_hits) /
                static_cast<double>(r.cache_hits + r.cache_misses)
          : 0.0,
      static_cast<double>(r.rank_agreement_ppm) / 1e6, r.result_crc,
      r.wall_seconds);
}

}  // namespace

int main(int argc, char** argv) {
  ctxpref::bench::MetricsFlags metrics_flags =
      ctxpref::bench::ParseMetricsFlags(argc, argv);

  std::string config_path;
  std::vector<std::string> overrides;
  std::vector<std::string> ablate;
  std::string csv_out;
  std::string json_out;
  std::string bench_json_out;
  bool print_config = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (StartsWith(arg, "--config=")) {
      config_path = arg.substr(9);
    } else if (StartsWith(arg, "--set=")) {
      overrides.push_back(arg.substr(6));
    } else if (StartsWith(arg, "--ablate=")) {
      ablate.push_back(arg.substr(9));
    } else if (StartsWith(arg, "--csv_out=")) {
      csv_out = arg.substr(10);
    } else if (StartsWith(arg, "--json_out=")) {
      json_out = arg.substr(11);
    } else if (StartsWith(arg, "--bench_json=")) {
      bench_json_out = arg.substr(13);
    } else if (arg == "--print_config") {
      print_config = true;
    } else {
      std::fprintf(stderr, "scenario_runner: unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }
  if (config_path.empty()) {
    std::fprintf(stderr,
                 "usage: scenario_runner --config=scenarios/<name>.cfg "
                 "[--set=key=value] [--ablate=flag] [--csv_out=FILE] "
                 "[--json_out=FILE] [--bench_json=FILE] [--print_config]\n");
    return 2;
  }

  std::ifstream in(config_path);
  if (!in) {
    std::fprintf(stderr, "scenario_runner: cannot open %s\n",
                 config_path.c_str());
    return 1;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string text = buf.str();
  for (const std::string& o : overrides) {
    StatusOr<std::string> patched = ApplyOverride(text, o);
    if (!patched.ok()) {
      std::fprintf(stderr, "scenario_runner: %s\n",
                   patched.status().ToString().c_str());
      return 2;
    }
    text = std::move(*patched);
  }

  StatusOr<ScenarioConfig> cfg =
      ctxpref::harness::ParseScenarioConfig(text);
  if (!cfg.ok()) {
    std::fprintf(stderr, "scenario_runner: %s: %s\n", config_path.c_str(),
                 cfg.status().ToString().c_str());
    return 1;
  }
  if (print_config) {
    std::fputs(ctxpref::harness::FormatScenarioConfig(*cfg).c_str(), stdout);
  }

  // Validate --ablate flags before running anything.
  for (const std::string& flag : ablate) {
    if (!cfg->ablation.Get(flag).ok()) {
      std::fprintf(stderr, "scenario_runner: unknown ablation flag: %s\n",
                   flag.c_str());
      return 2;
    }
  }

  std::vector<ScenarioResult> results;
  std::vector<BenchEntry> entries;
  auto run_one = [&](const ScenarioConfig& variant_cfg,
                     const std::string& variant,
                     const std::string& bench_prefix) -> bool {
    WorkloadRunner runner(variant_cfg);
    StatusOr<ScenarioResult> result = runner.Run(variant);
    if (!result.ok()) {
      std::fprintf(stderr, "scenario_runner: %s (%s): %s\n",
                   variant_cfg.name.c_str(), variant.c_str(),
                   result.status().ToString().c_str());
      return false;
    }
    PrintResult(*result);
    AppendVariantEntries(entries, bench_prefix, *result);
    results.push_back(std::move(*result));
    return true;
  };

  const std::string base_prefix = "SC_" + cfg->name;
  if (ablate.empty()) {
    if (!run_one(*cfg, "base", base_prefix)) return 1;
  } else {
    for (const std::string& flag : ablate) {
      const std::string tag = CamelTag(flag);
      for (const bool on : {true, false}) {
        ScenarioConfig variant_cfg = *cfg;
        Status st = variant_cfg.ablation.Set(flag, on);
        if (!st.ok()) {
          std::fprintf(stderr, "scenario_runner: %s\n",
                       st.ToString().c_str());
          return 1;
        }
        const std::string variant = flag + (on ? "_on" : "_off");
        const std::string prefix =
            base_prefix + "_" + tag + (on ? "On" : "Off");
        if (!run_one(variant_cfg, variant, prefix)) return 1;
      }
    }
  }

  std::string csv = ScenarioResult::CsvHeader() + "\n";
  for (const ScenarioResult& r : results) csv += r.CsvRow() + "\n";
  if (!csv_out.empty() && !WriteFile(csv_out, csv)) return 1;

  if (!json_out.empty()) {
    std::string json = "[\n";
    for (size_t i = 0; i < results.size(); ++i) {
      json += "  " + results[i].ToJson();
      json += i + 1 == results.size() ? "\n" : ",\n";
    }
    json += "]\n";
    if (!WriteFile(json_out, json)) return 1;
  }

  if (!bench_json_out.empty() &&
      !WriteFile(bench_json_out, BenchJson(entries))) {
    return 1;
  }

  ctxpref::bench::DumpMetrics(metrics_flags);
  return 0;
}
