#ifndef CTXPREF_HARNESS_SCENARIO_CONFIG_H_
#define CTXPREF_HARNESS_SCENARIO_CONFIG_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "context/distance.h"
#include "util/status.h"

namespace ctxpref::harness {

/// The ablation switches a scenario can toggle, each disabling one
/// subsystem so its contribution is measurable in isolation (the
/// rdma-dm-sim `index.ablations.*` pattern, ROADMAP item 5). The
/// X-macro is the single source of truth: the config parser, the
/// `--ablate` CLI flag, and scripts/lint.py's docs-sync check all
/// derive the flag list from it. docs/scenarios.md documents the
/// semantics of each flag; every name listed here must appear there.
#define CTXPREF_ABLATION_FLAGS(X) \
  X(cache)                        \
  X(parallel)                     \
  X(cow)                          \
  X(tie_break)                    \
  X(resilience)                   \
  X(shed)

/// One bool per ablation flag, all on by default (the full system).
/// `ablation.<flag> = off` in a config file turns a subsystem off.
struct AblationFlags {
#define CTXPREF_HARNESS_DECLARE_FLAG(name) bool name = true;
  CTXPREF_ABLATION_FLAGS(CTXPREF_HARNESS_DECLARE_FLAG)
#undef CTXPREF_HARNESS_DECLARE_FLAG

  /// Sets flag `flag` (e.g. "cache") to `on`. InvalidArgument for an
  /// unknown flag name.
  Status Set(std::string_view flag, bool on);

  /// The value of flag `flag`; InvalidArgument for unknown names.
  StatusOr<bool> Get(std::string_view flag) const;

  /// All declared flag names, in declaration order.
  static const std::vector<std::string>& Names();

  friend bool operator==(const AblationFlags&, const AblationFlags&) = default;
};

/// How per-preference context values are drawn when generating user
/// profiles (paper §5.2: uniform vs zipf-skewed detailed domains).
enum class SkewKind {
  kUniform,
  kZipf,
};

const char* SkewKindToString(SkewKind kind);
StatusOr<SkewKind> SkewKindFromString(std::string_view text);

/// A declarative scenario: population, profile shape, query mix,
/// churn, sensor faults, the (virtual-time) overload model, and the
/// ablation switches. Parsed from a `key = value` text format (one
/// assignment per line, `#` comments); `FormatScenarioConfig`
/// round-trips through `ParseScenarioConfig` exactly. docs/scenarios.md
/// has the full knob table.
struct ScenarioConfig {
  /// Scenario name, used in output labels (`SC_<name>_...`) and file
  /// names. Must be non-empty, [A-Za-z0-9_-] only.
  std::string name = "scenario";

  // ---- Population / data --------------------------------------------
  size_t users = 4;           ///< Number of user profiles in the store.
  size_t pois = 200;          ///< Rows in the POI relation (§5.1 data).
  size_t profile_size = 50;   ///< Preferences per user profile.
  SkewKind profile_skew = SkewKind::kUniform;  ///< Detailed-value draws.
  double profile_zipf_a = 1.5;   ///< Zipf exponent when skew = zipf.
  double lift_probability = 0.3; ///< P(value lifted to an upper level).

  // ---- Traffic ------------------------------------------------------
  size_t ops = 1000;           ///< Operations (queries + updates) to run.
  double user_zipf_a = 0.0;    ///< Zipf exponent for per-op user draws
                               ///< (0 = uniform across users).
  double exact_fraction = 0.5; ///< P(query state drawn from the profile
                               ///< — an exact match) vs a random state.
  size_t states_per_query = 1; ///< Disjuncts in each query descriptor.
  double update_rate = 0.0;    ///< P(an op is a profile update).
  size_t top_k = 10;           ///< Result size (also the truncated rung).

  // ---- Context acquisition ------------------------------------------
  double sensor_dropout = 0.0; ///< Per-attempt sensor failure rate.

  // ---- Resolution ---------------------------------------------------
  DistanceKind distance = DistanceKind::kHierarchy;  ///< hierarchy|jaccard.

  // ---- Serving / overload model (virtual time) ----------------------
  double arrival_rate_qps = 0.0;  ///< Open-loop arrival rate; 0 = closed
                                  ///< loop (back-to-back requests).
  int64_t deadline_micros = 0;    ///< Per-request deadline; 0 = none.
  int64_t service_micros = 1000;  ///< Modeled cost of a full evaluation.
  int64_t degraded_service_micros = 100;  ///< Modeled cost of a ladder
                                          ///< (stale/truncated/shed) serve.
  /// Modeled cost of a fresh answer whose states all hit the query
  /// cache (0 = same as `service_micros`, i.e. hits are not modeled as
  /// cheaper). A partially-hit query interpolates by hit fraction. The
  /// cache ablation gate compares virtual ns/op, which this knob makes
  /// sensitive to the achieved hit rate — deterministically, unlike
  /// wall time.
  int64_t cache_hit_service_micros = 0;
  size_t max_in_flight = 64;      ///< Admission policy when shed is on.

  // ---- Cache --------------------------------------------------------
  size_t cache_capacity = 0;  ///< Entries; 0 = unbounded. Bounded
                              ///< capacities + parallel=on can make
                              ///< eviction order (and hence hit counts)
                              ///< nondeterministic — see docs/scenarios.md.
  /// Query-cache replicas when `ablation.cache` is on: the runner
  /// builds a `ReplicatedQueryCache` with this many replicas kept
  /// coherent by the log-based scheme (docs/coherence.md), serving each
  /// query through replica `query_index % coherence_replicas` with an
  /// inline consume step — deterministic, so the CSV contract holds.
  /// 1 is the single shared cache.
  size_t coherence_replicas = 1;

  // ---- Event windows ------------------------------------------------
  // Each is a fraction of `ops` occupied by the event, centered on the
  // middle of the run (0 = event disabled). During a flash crowd all
  // query traffic targets one hot user; during an outage every sensor
  // read fails (correlated outage); during a migration wave each op
  // also republishes one user's profile wholesale.
  double flash_crowd_fraction = 0.0;
  double outage_fraction = 0.0;
  double migration_fraction = 0.0;

  // ---- Execution ----------------------------------------------------
  size_t threads = 4;    ///< Pool size when ablation.parallel is on.
  uint64_t seed = 42;    ///< Master seed; same config + seed => same CSV.

  AblationFlags ablation;

  friend bool operator==(const ScenarioConfig&,
                         const ScenarioConfig&) = default;
};

/// Parses the `key = value` scenario format. Strict: unknown keys, bad
/// enum values, out-of-range rates (negative, or probability > 1),
/// zero where a positive value is required, and duplicate keys are all
/// InvalidArgument with the offending line number.
StatusOr<ScenarioConfig> ParseScenarioConfig(std::string_view text);

/// Reads and parses a scenario file. NotFound if unreadable.
StatusOr<ScenarioConfig> LoadScenarioConfig(const std::string& path);

/// Serializes `cfg` so that `ParseScenarioConfig(FormatScenarioConfig(
/// cfg)) == cfg` (doubles via `FormatDoubleRoundTrip`).
std::string FormatScenarioConfig(const ScenarioConfig& cfg);

}  // namespace ctxpref::harness

#endif  // CTXPREF_HARNESS_SCENARIO_CONFIG_H_
