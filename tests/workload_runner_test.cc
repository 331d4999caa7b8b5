// Tests for the scenario harness's WorkloadRunner: determinism (two
// runs of the same config + seed produce bit-identical CSV), the
// ablation flags actually changing behavior, and the virtual-time
// overload model's goodput contrast.

#include "harness/workload_runner.h"

#include <gtest/gtest.h>

#include <string>

#include "harness/scenario_config.h"

namespace ctxpref::harness {
namespace {

ScenarioConfig SmallConfig() {
  StatusOr<ScenarioConfig> cfg = ParseScenarioConfig(
      "name = unit\n"
      "users = 3\n"
      "pois = 120\n"
      "profile_size = 20\n"
      "ops = 200\n"
      "update_rate = 0.1\n"
      "top_k = 5\n"
      "seed = 7\n");
  EXPECT_TRUE(cfg.ok()) << cfg.status().ToString();
  return *cfg;
}

TEST(WorkloadRunnerTest, SameConfigSameSeedIsBitIdentical) {
  const ScenarioConfig cfg = SmallConfig();
  StatusOr<ScenarioResult> a = WorkloadRunner(cfg).Run();
  StatusOr<ScenarioResult> b = WorkloadRunner(cfg).Run();
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(a->CsvRow(), b->CsvRow());
  EXPECT_EQ(a->result_crc, b->result_crc);
}

TEST(WorkloadRunnerTest, DifferentSeedChangesResults) {
  ScenarioConfig cfg = SmallConfig();
  StatusOr<ScenarioResult> a = WorkloadRunner(cfg).Run();
  cfg.seed = 8;
  StatusOr<ScenarioResult> b = WorkloadRunner(cfg).Run();
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(a->CsvRow(), b->CsvRow());
}

TEST(WorkloadRunnerTest, CacheAblationPreservesAnswersAndDropsHits) {
  ScenarioConfig cfg = SmallConfig();
  cfg.exact_fraction = 1.0;
  StatusOr<ScenarioResult> on = WorkloadRunner(cfg).Run("cache_on");
  cfg.ablation.cache = false;
  StatusOr<ScenarioResult> off = WorkloadRunner(cfg).Run("cache_off");
  ASSERT_TRUE(on.ok() && off.ok());
  // Identical served tuples (the cache must be transparent)...
  EXPECT_EQ(on->result_crc, off->result_crc);
  // ...but only the cached run sees lookups.
  EXPECT_GT(on->cache_hits + on->cache_misses, 0u);
  EXPECT_EQ(off->cache_hits + off->cache_misses, 0u);
}

TEST(WorkloadRunnerTest, CacheHitCostShrinksVirtualTime) {
  ScenarioConfig cfg = SmallConfig();
  cfg.users = 2;
  cfg.exact_fraction = 1.0;
  cfg.update_rate = 0.0;
  cfg.service_micros = 1000;
  cfg.cache_hit_service_micros = 100;
  StatusOr<ScenarioResult> on = WorkloadRunner(cfg).Run("cache_on");
  cfg.ablation.cache = false;
  StatusOr<ScenarioResult> off = WorkloadRunner(cfg).Run("cache_off");
  ASSERT_TRUE(on.ok() && off.ok());
  EXPECT_LT(on->virtual_micros, off->virtual_micros);
  EXPECT_EQ(off->virtual_micros,
            static_cast<int64_t>(off->ops) * cfg.service_micros);
}

TEST(WorkloadRunnerTest, ParallelAblationIsResultTransparent) {
  ScenarioConfig cfg = SmallConfig();
  cfg.states_per_query = 3;
  cfg.threads = 4;
  StatusOr<ScenarioResult> on = WorkloadRunner(cfg).Run();
  cfg.ablation.parallel = false;
  StatusOr<ScenarioResult> off = WorkloadRunner(cfg).Run();
  ASSERT_TRUE(on.ok() && off.ok());
  // The pool merge is order-fixed, so answers are bit-identical.
  EXPECT_EQ(on->result_crc, off->result_crc);
}

TEST(WorkloadRunnerTest, ShedAblationChangesOverloadGoodput) {
  StatusOr<ScenarioConfig> parsed = ParseScenarioConfig(
      "name = overload\n"
      "users = 3\n"
      "pois = 120\n"
      "profile_size = 20\n"
      "ops = 500\n"
      "arrival_rate_qps = 2000\n"
      "deadline_micros = 5000\n"
      "service_micros = 1000\n"
      "degraded_service_micros = 100\n"
      "seed = 13\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ScenarioConfig cfg = *parsed;
  StatusOr<ScenarioResult> on = WorkloadRunner(cfg).Run("shed_on");
  cfg.ablation.shed = false;
  StatusOr<ScenarioResult> off = WorkloadRunner(cfg).Run("shed_off");
  ASSERT_TRUE(on.ok() && off.ok());
  // Under 2x overload the ladder sheds/degrades some requests but
  // keeps real goodput; head-of-line blocking without shedding pushes
  // nearly every completion past its deadline.
  EXPECT_GT(on->served_shed + on->served_stale + on->served_truncated, 0u);
  EXPECT_GT(on->good_ops, off->good_ops);
}

TEST(WorkloadRunnerTest, SensorDropoutScoresRankAgreement) {
  ScenarioConfig cfg = SmallConfig();
  cfg.sensor_dropout = 0.4;
  StatusOr<ScenarioResult> result = WorkloadRunner(cfg).Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->scored_queries, 0u);
  EXPECT_GT(result->degraded_params, 0u);
  EXPECT_GT(result->rank_agreement_ppm, 0u);
  EXPECT_LE(result->rank_agreement_ppm, 1'000'000u);
}

TEST(WorkloadRunnerTest, ResilienceAblationDegradesAgreement) {
  ScenarioConfig cfg = SmallConfig();
  cfg.sensor_dropout = 0.4;
  StatusOr<ScenarioResult> on = WorkloadRunner(cfg).Run("resilience_on");
  cfg.ablation.resilience = false;
  StatusOr<ScenarioResult> off = WorkloadRunner(cfg).Run("resilience_off");
  ASSERT_TRUE(on.ok() && off.ok());
  // The ladder (retry/stale/lift) recovers context a raw read loses.
  EXPECT_GE(on->rank_agreement_ppm, off->rank_agreement_ppm);
}

TEST(WorkloadRunnerTest, MigrationWindowRepublishesProfiles) {
  ScenarioConfig cfg = SmallConfig();
  cfg.migration_fraction = 0.2;
  StatusOr<ScenarioResult> result = WorkloadRunner(cfg).Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->migrations, 0u);
}

// ---- Replicated-cache coherence (docs/coherence.md) ----------------

/// The committed scenarios/replica_coherence.cfg knobs, shrunk to unit
/// size (the scenario-matrix CI job replays the committed file itself).
ScenarioConfig CoherenceConfig() {
  StatusOr<ScenarioConfig> cfg = ParseScenarioConfig(
      "name = coherence_unit\n"
      "users = 2\n"
      "pois = 120\n"
      "profile_size = 12\n"
      "ops = 600\n"
      "exact_fraction = 1.0\n"
      "update_rate = 0.05\n"
      "top_k = 5\n"
      "coherence_replicas = 4\n"
      "seed = 23\n");
  EXPECT_TRUE(cfg.ok()) << cfg.status().ToString();
  return *cfg;
}

TEST(WorkloadRunnerTest, ReplicaCountIsResultTransparent) {
  ScenarioConfig cfg = CoherenceConfig();
  StatusOr<ScenarioResult> four = WorkloadRunner(cfg).Run("replicas_4");
  cfg.coherence_replicas = 1;
  StatusOr<ScenarioResult> one = WorkloadRunner(cfg).Run("replicas_1");
  ASSERT_TRUE(four.ok() && one.ok());
  // Four replicas kept coherent by the log must serve the same tuples
  // as the single shared cache (one replica)...
  EXPECT_EQ(four->result_crc, one->result_crc);
  // ...while splitting the hit stream across them (each replica must
  // re-miss states the others already cached, so the aggregate hit
  // count drops strictly below the shared cache's).
  EXPECT_GT(four->cache_hits, 0u);
  EXPECT_LT(four->cache_hits, one->cache_hits);
  EXPECT_EQ(four->cache_hits + four->cache_misses,
            one->cache_hits + one->cache_misses);
}

TEST(WorkloadRunnerTest, CoherenceRunIsDeterministic) {
  const ScenarioConfig cfg = CoherenceConfig();
  StatusOr<ScenarioResult> a = WorkloadRunner(cfg).Run();
  StatusOr<ScenarioResult> b = WorkloadRunner(cfg).Run();
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->CsvRow(), b->CsvRow());
}

TEST(WorkloadRunnerTest, CoherenceReplicasKnobRoundTrips) {
  ScenarioConfig cfg = CoherenceConfig();
  cfg.coherence_replicas = 7;
  StatusOr<ScenarioConfig> reparsed =
      ParseScenarioConfig(FormatScenarioConfig(cfg));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed->coherence_replicas, 7u);
}

// ---- Shed/served accounting at the admission edge ------------------

// Regression: a request whose deadline expires exactly at admission is
// door-shed, and if the whole degradation ladder then falls through
// (no cache for the stale rung, truncated rung aborted by the expired
// deadline) the serve returns bare Unavailable with no provenance.
// The runner used to drop such requests from `deadline_hits` (the
// registry counter ticked while the CSV column stayed behind) — they
// must count exactly once as shed AND as a deadline hit.
TEST(WorkloadRunnerTest, DoomedAtAdmissionCountsShedAndDeadlineOnce) {
  StatusOr<ScenarioConfig> parsed = ParseScenarioConfig(
      "name = doomed\n"
      "users = 2\n"
      "pois = 120\n"
      "profile_size = 20\n"
      "ops = 300\n"
      "arrival_rate_qps = 100000\n"  // Arrivals every 10 virtual us...
      "deadline_micros = 100\n"      // ...each dead 100 us later...
      "service_micros = 1000\n"      // ...long before a 1 ms serve.
      "seed = 17\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ScenarioConfig cfg = *parsed;
  cfg.ablation.cache = false;  // No cache: the stale rung cannot serve.
  StatusOr<ScenarioResult> res = WorkloadRunner(cfg).Run();
  ASSERT_TRUE(res.ok()) << res.status().ToString();

  // Exactly-once accounting: every query lands in exactly one bucket.
  EXPECT_EQ(res->served_fresh + res->served_stale + res->served_truncated +
                res->served_shed,
            res->queries);
  // The backlog dooms requests at the door, and with no ladder rung
  // able to answer they fall through to Unavailable...
  EXPECT_GT(res->served_shed, 0u);
  // ...and every such fall-off-the-ladder shed still records its
  // deadline (the regression: this used to stay at 0).
  EXPECT_GE(res->deadline_hits, res->served_shed);
  EXPECT_LE(res->deadline_hits, res->queries);
}

TEST(WorkloadRunnerTest, CsvRowMatchesHeaderArity) {
  const ScenarioConfig cfg = SmallConfig();
  StatusOr<ScenarioResult> result = WorkloadRunner(cfg).Run();
  ASSERT_TRUE(result.ok());
  const std::string header = ScenarioResult::CsvHeader();
  const std::string row = result->CsvRow();
  auto commas = [](const std::string& s) {
    size_t n = 0;
    for (const char c : s) n += c == ',' ? 1 : 0;
    return n;
  };
  EXPECT_EQ(commas(header), commas(row));
}

}  // namespace
}  // namespace ctxpref::harness
