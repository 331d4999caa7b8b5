#include "harness/scenario_config.h"

#include <cctype>
#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "util/string_util.h"

namespace ctxpref::harness {

namespace {

bool ValidName(std::string_view name) {
  if (name.empty()) return false;
  for (const char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c)) == 0 && c != '_' &&
        c != '-') {
      return false;
    }
  }
  return true;
}

Status BadValue(size_t lineno, std::string_view key, std::string_view value,
                std::string_view why) {
  return Status::InvalidArgument(
      "scenario config line " + std::to_string(lineno) + ": " +
      std::string(key) + " = " + std::string(value) + ": " + std::string(why));
}

/// Assignment targets, so the big key dispatch below stays table-like.
struct SizeKey {
  const char* key;
  size_t* out;
  size_t min;  ///< Smallest accepted value.
  /// Largest accepted value: the runner sizes buffers from these keys
  /// up front, so an absurd value must fail here, not in an allocator.
  size_t max;
};
struct RateKey {
  const char* key;
  double* out;
  double max;  ///< 1.0 for probabilities, 1e9 for rates/exponents.
};
struct MicrosKey {
  const char* key;
  int64_t* out;
  int64_t min;
};

}  // namespace

Status AblationFlags::Set(std::string_view flag, bool on) {
#define CTXPREF_HARNESS_SET_FLAG(name) \
  if (flag == #name) {                 \
    this->name = on;                   \
    return Status::OK();               \
  }
  CTXPREF_ABLATION_FLAGS(CTXPREF_HARNESS_SET_FLAG)
#undef CTXPREF_HARNESS_SET_FLAG
  return Status::InvalidArgument("unknown ablation flag: " +
                                 std::string(flag));
}

StatusOr<bool> AblationFlags::Get(std::string_view flag) const {
#define CTXPREF_HARNESS_GET_FLAG(name) \
  if (flag == #name) return this->name;
  CTXPREF_ABLATION_FLAGS(CTXPREF_HARNESS_GET_FLAG)
#undef CTXPREF_HARNESS_GET_FLAG
  return Status::InvalidArgument("unknown ablation flag: " +
                                 std::string(flag));
}

const std::vector<std::string>& AblationFlags::Names() {
  static const std::vector<std::string>* names = [] {
    auto* v = new std::vector<std::string>;
#define CTXPREF_HARNESS_NAME_FLAG(name) v->push_back(#name);
    CTXPREF_ABLATION_FLAGS(CTXPREF_HARNESS_NAME_FLAG)
#undef CTXPREF_HARNESS_NAME_FLAG
    return v;
  }();
  return *names;
}

const char* SkewKindToString(SkewKind kind) {
  switch (kind) {
    case SkewKind::kUniform:
      return "uniform";
    case SkewKind::kZipf:
      return "zipf";
  }
  return "unknown";
}

StatusOr<SkewKind> SkewKindFromString(std::string_view text) {
  if (text == "uniform") return SkewKind::kUniform;
  if (text == "zipf") return SkewKind::kZipf;
  return Status::InvalidArgument("unknown skew kind: " + std::string(text));
}

StatusOr<ScenarioConfig> ParseScenarioConfig(std::string_view text) {
  ScenarioConfig cfg;

  const SizeKey size_keys[] = {
      {"users", &cfg.users, 1, 100'000},
      {"pois", &cfg.pois, 1, 1'000'000},
      {"profile_size", &cfg.profile_size, 1, 100'000},
      {"ops", &cfg.ops, 1, 100'000'000},
      {"states_per_query", &cfg.states_per_query, 1, 1'000},
      {"top_k", &cfg.top_k, 1, 1'000'000},
      {"max_in_flight", &cfg.max_in_flight, 1, 1'000'000},
      {"cache_capacity", &cfg.cache_capacity, 0, 1'000'000'000},
      {"coherence_replicas", &cfg.coherence_replicas, 1, 1'024},
  };
  const RateKey rate_keys[] = {
      {"profile_zipf_a", &cfg.profile_zipf_a, 1e9},
      {"lift_probability", &cfg.lift_probability, 1.0},
      {"user_zipf_a", &cfg.user_zipf_a, 1e9},
      {"exact_fraction", &cfg.exact_fraction, 1.0},
      {"update_rate", &cfg.update_rate, 1.0},
      {"sensor_dropout", &cfg.sensor_dropout, 1.0},
      {"arrival_rate_qps", &cfg.arrival_rate_qps, 1e9},
      {"flash_crowd_fraction", &cfg.flash_crowd_fraction, 1.0},
      {"outage_fraction", &cfg.outage_fraction, 1.0},
      {"migration_fraction", &cfg.migration_fraction, 1.0},
  };
  const MicrosKey micros_keys[] = {
      {"deadline_micros", &cfg.deadline_micros, 0},
      {"service_micros", &cfg.service_micros, 1},
      {"degraded_service_micros", &cfg.degraded_service_micros, 1},
      {"cache_hit_service_micros", &cfg.cache_hit_service_micros, 0},
  };

  std::vector<std::string> seen;
  size_t lineno = 0;
  for (const std::string& raw : SplitAndTrim(text, '\n')) {
    ++lineno;
    const std::string_view line = Trim(
        std::string_view(raw).substr(0, std::string_view(raw).find('#')));
    if (line.empty()) continue;
    const size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      return Status::InvalidArgument("scenario config line " +
                                     std::to_string(lineno) +
                                     ": expected 'key = value': " + raw);
    }
    const std::string key(Trim(line.substr(0, eq)));
    const std::string value(Trim(line.substr(eq + 1)));
    if (key.empty() || value.empty()) {
      return Status::InvalidArgument("scenario config line " +
                                     std::to_string(lineno) +
                                     ": empty key or value: " + raw);
    }
    for (const std::string& s : seen) {
      if (s == key) {
        return Status::InvalidArgument("scenario config line " +
                                       std::to_string(lineno) +
                                       ": duplicate key: " + key);
      }
    }
    seen.push_back(key);

    if (key == "name") {
      if (!ValidName(value)) {
        return BadValue(lineno, key, value,
                        "name must be non-empty [A-Za-z0-9_-]");
      }
      cfg.name = value;
      continue;
    }
    if (key == "profile_skew") {
      StatusOr<SkewKind> kind = SkewKindFromString(value);
      if (!kind.ok()) {
        return BadValue(lineno, key, value, "expected uniform|zipf");
      }
      cfg.profile_skew = *kind;
      continue;
    }
    if (key == "distance") {
      if (value == "hierarchy") {
        cfg.distance = DistanceKind::kHierarchy;
      } else if (value == "jaccard") {
        cfg.distance = DistanceKind::kJaccard;
      } else {
        return BadValue(lineno, key, value, "expected hierarchy|jaccard");
      }
      continue;
    }
    if (key == "seed") {
      int64_t v = 0;
      if (!ParseInt64(value, &v) || v < 0) {
        return BadValue(lineno, key, value, "expected a non-negative integer");
      }
      cfg.seed = static_cast<uint64_t>(v);
      continue;
    }
    if (StartsWith(key, "ablation.")) {
      const std::string_view flag = std::string_view(key).substr(9);
      bool on = false;
      if (value == "on") {
        on = true;
      } else if (value != "off") {
        return BadValue(lineno, key, value, "expected on|off");
      }
      Status st = cfg.ablation.Set(flag, on);
      if (!st.ok()) return BadValue(lineno, key, value, st.message());
      continue;
    }

    bool handled = false;
    for (const SizeKey& k : size_keys) {
      if (key != k.key) continue;
      int64_t v = 0;
      if (!ParseInt64(value, &v) || v < 0) {
        return BadValue(lineno, key, value, "expected a non-negative integer");
      }
      if (static_cast<size_t>(v) < k.min) {
        return BadValue(lineno, key, value,
                        "must be >= " + std::to_string(k.min));
      }
      if (static_cast<size_t>(v) > k.max) {
        return BadValue(lineno, key, value,
                        "must be <= " + std::to_string(k.max));
      }
      *k.out = static_cast<size_t>(v);
      handled = true;
      break;
    }
    if (handled) continue;
    for (const RateKey& k : rate_keys) {
      if (key != k.key) continue;
      double v = 0.0;
      if (!ParseDouble(value, &v)) {
        return BadValue(lineno, key, value, "expected a number");
      }
      // NaN compares false against both bounds, so test it first.
      if (!std::isfinite(v)) {
        return BadValue(lineno, key, value, "must be a finite number");
      }
      if (v < 0.0) return BadValue(lineno, key, value, "must be >= 0");
      if (v > k.max) {
        return BadValue(lineno, key, value,
                        k.max == 1.0 ? "must be <= 1 (a probability)"
                                     : "must be <= 1e9");
      }
      *k.out = v;
      handled = true;
      break;
    }
    if (handled) continue;
    for (const MicrosKey& k : micros_keys) {
      if (key != k.key) continue;
      int64_t v = 0;
      if (!ParseInt64(value, &v)) {
        return BadValue(lineno, key, value, "expected an integer");
      }
      if (v < k.min) {
        return BadValue(lineno, key, value,
                        "must be >= " + std::to_string(k.min));
      }
      *k.out = v;
      handled = true;
      break;
    }
    if (handled) continue;

    return Status::InvalidArgument("scenario config line " +
                                   std::to_string(lineno) +
                                   ": unknown key: " + key);
  }
  return cfg;
}

StatusOr<ScenarioConfig> LoadScenarioConfig(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open scenario config: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  StatusOr<ScenarioConfig> cfg = ParseScenarioConfig(buf.str());
  if (!cfg.ok()) {
    return Status::InvalidArgument(path + ": " + cfg.status().message());
  }
  return cfg;
}

std::string FormatScenarioConfig(const ScenarioConfig& cfg) {
  std::string out;
  auto emit = [&out](std::string_view key, const std::string& value) {
    out += key;
    out += " = ";
    out += value;
    out += "\n";
  };
  emit("name", cfg.name);
  emit("users", std::to_string(cfg.users));
  emit("pois", std::to_string(cfg.pois));
  emit("profile_size", std::to_string(cfg.profile_size));
  emit("profile_skew", SkewKindToString(cfg.profile_skew));
  emit("profile_zipf_a", FormatDoubleRoundTrip(cfg.profile_zipf_a));
  emit("lift_probability", FormatDoubleRoundTrip(cfg.lift_probability));
  emit("ops", std::to_string(cfg.ops));
  emit("user_zipf_a", FormatDoubleRoundTrip(cfg.user_zipf_a));
  emit("exact_fraction", FormatDoubleRoundTrip(cfg.exact_fraction));
  emit("states_per_query", std::to_string(cfg.states_per_query));
  emit("update_rate", FormatDoubleRoundTrip(cfg.update_rate));
  emit("top_k", std::to_string(cfg.top_k));
  emit("sensor_dropout", FormatDoubleRoundTrip(cfg.sensor_dropout));
  emit("distance",
       cfg.distance == DistanceKind::kJaccard ? "jaccard" : "hierarchy");
  emit("arrival_rate_qps", FormatDoubleRoundTrip(cfg.arrival_rate_qps));
  emit("deadline_micros", std::to_string(cfg.deadline_micros));
  emit("service_micros", std::to_string(cfg.service_micros));
  emit("degraded_service_micros",
       std::to_string(cfg.degraded_service_micros));
  emit("cache_hit_service_micros",
       std::to_string(cfg.cache_hit_service_micros));
  emit("max_in_flight", std::to_string(cfg.max_in_flight));
  emit("cache_capacity", std::to_string(cfg.cache_capacity));
  emit("coherence_replicas", std::to_string(cfg.coherence_replicas));
  emit("flash_crowd_fraction",
       FormatDoubleRoundTrip(cfg.flash_crowd_fraction));
  emit("outage_fraction", FormatDoubleRoundTrip(cfg.outage_fraction));
  emit("migration_fraction", FormatDoubleRoundTrip(cfg.migration_fraction));
  emit("seed", std::to_string(cfg.seed));
#define CTXPREF_HARNESS_EMIT_FLAG(name) \
  emit("ablation." #name, cfg.ablation.name ? "on" : "off");
  CTXPREF_ABLATION_FLAGS(CTXPREF_HARNESS_EMIT_FLAG)
#undef CTXPREF_HARNESS_EMIT_FLAG
  return out;
}

}  // namespace ctxpref::harness
