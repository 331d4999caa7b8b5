#ifndef CTXPREF_HARNESS_WORKLOAD_RUNNER_H_
#define CTXPREF_HARNESS_WORKLOAD_RUNNER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "harness/scenario_config.h"
#include "util/status.h"

namespace ctxpref::harness {

/// The outcome of one scenario run. Split into two kinds of fields:
///
///   * Deterministic fields — derived only from the seeded Rng, the
///     virtual clock, and the answers themselves. These are what
///     `CsvRow` emits; two runs of the same config + seed produce
///     bit-identical CSV (the determinism test and the CI
///     scenario-matrix job both assert this).
///   * Wall-clock fields (`wall_*`, `p50_ns`, `p99_ns`) — advisory
///     timings for humans and dashboards; they go to stdout and the
///     metrics JSON, never to the CSV.
struct ScenarioResult {
  std::string scenario;
  std::string variant;  ///< "base", or "<flag>_on"/"<flag>_off".

  // Deterministic.
  uint64_t ops = 0;
  uint64_t queries = 0;
  uint64_t updates = 0;
  uint64_t migrations = 0;
  uint64_t served_fresh = 0;
  uint64_t served_stale = 0;
  uint64_t served_truncated = 0;
  uint64_t served_shed = 0;  ///< kUnavailable — nothing served.
  uint64_t deadline_hits = 0;
  uint64_t good_ops = 0;  ///< Fresh answers that met their deadline.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t degraded_params = 0;  ///< Context parameters not served fresh.
  /// Mean top-k overlap vs the true (undegraded) context, in parts per
  /// million; only scored when the scenario exercises sensor faults.
  uint64_t rank_agreement_ppm = 0;
  uint64_t scored_queries = 0;  ///< Queries entering the agreement mean.
  uint32_t result_crc = 0;      ///< CRC32 over every served tuple.
  int64_t virtual_micros = 0;   ///< Virtual time consumed by the run.

  // Wall-clock (advisory; never in the CSV).
  double wall_seconds = 0.0;
  double wall_ns_per_op = 0.0;
  double p50_ns = 0.0;
  double p99_ns = 0.0;
  /// Virtual nanoseconds per op — deterministic cost figure the cache
  /// ablation gate compares (sensitive to the hit rate via
  /// `cache_hit_service_micros`). A ratio, so it goes to the bench
  /// JSON rather than the CSV.
  double virtual_ns_per_op = 0.0;
  /// Virtual nanoseconds per good op — the goodput figure the shed
  /// ablation gate compares. Deterministic, but a ratio, so it goes to
  /// the bench JSON rather than the CSV.
  double virtual_ns_per_good_op = 0.0;

  static std::string CsvHeader();
  std::string CsvRow() const;  ///< Deterministic fields only.
  std::string ToJson() const;  ///< All fields.
};

/// Executes one `ScenarioConfig` deterministically: builds the POI
/// database, the user profiles and the `ProfileStore`, then drives
/// `ops` operations (queries, updates, event windows) through
/// `storage::ServeQuery`, honoring every ablation flag. All randomness
/// comes from one seeded `util::Rng`; all scheduling (arrivals,
/// deadlines, backlog) runs on a `util::FakeClock`, so the
/// deterministic half of the result is a pure function of the config.
/// Progress metrics are also ticked into `MetricsRegistry::Global()`
/// under `ctxpref_scenario_*`.
class WorkloadRunner {
 public:
  explicit WorkloadRunner(ScenarioConfig cfg) : cfg_(std::move(cfg)) {}

  const ScenarioConfig& config() const { return cfg_; }

  /// Runs the scenario once. `variant` labels the result row (the
  /// ablation driver runs the same scenario as "<flag>_on" /
  /// "<flag>_off" pairs).
  StatusOr<ScenarioResult> Run(std::string_view variant = "base") const;

 private:
  ScenarioConfig cfg_;
};

}  // namespace ctxpref::harness

#endif  // CTXPREF_HARNESS_WORKLOAD_RUNNER_H_
