// Deterministic overload-injection chaos tests (ISSUE 8): a seeded
// `util::Rng` plus a `util::FakeClock` script latency spikes in the
// resolver and burst arrivals against the serving path's overload
// ladder — deadline propagation, admission
// sheds, bounded-staleness fallback, truncated answers, kUnavailable —
// and check that every answer carries a correct `ServingProvenance`
// and that no answer is ever torn across profile versions. Runs in the
// CI TSan job (suite name matches scripts/check.sh's tsan filter).

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "context/parser.h"
#include "storage/admission.h"
#include "storage/profile_store.h"
#include "storage/serving.h"
#include "tests/test_util.h"
#include "util/clock.h"
#include "util/deadline.h"
#include "util/random.h"
#include "workload/poi_dataset.h"

namespace ctxpref {
namespace {

using ::ctxpref::testing::Pref;

/// Score published for version step `k`: a distinct point on the 0.05
/// grid per step, applied to BOTH preferences — so within one version
/// every scored tuple carries the same score, and a torn (mixed-
/// version) answer is detectable as two differing scores.
double ScoreForStep(uint64_t k) {
  return 0.05 + static_cast<double>(k % 19) * 0.05;
}

class OverloadChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    StatusOr<workload::PoiDatabase> poi = workload::MakePoiDatabase(60, 23);
    ASSERT_OK(poi.status());
    poi_ = std::make_unique<workload::PoiDatabase>(std::move(*poi));
    env_ = poi_->env;
    // Two query states, resolved (and cached) independently — the
    // stale rung must join them at ONE consistent version.
    StatusOr<ExtendedDescriptor> ecod = ParseExtendedDescriptor(
        *env_, "location = Plaka or location = Kifisia");
    ASSERT_OK(ecod.status());
    query_.context = *ecod;
  }

  Profile VersionedProfile(uint64_t step) {
    const double s = ScoreForStep(step);
    Profile p(env_);
    EXPECT_OK(p.Insert(Pref(*env_, "location = Plaka", "type", "museum", s)));
    EXPECT_OK(p.Insert(Pref(*env_, "location = Kifisia", "type", "park", s)));
    return p;
  }

  std::unique_ptr<workload::PoiDatabase> poi_;
  EnvironmentPtr env_;
  ContextualQuery query_;
};

// ---- Deadline propagation ------------------------------------------

TEST_F(OverloadChaosTest, ResolverLatencySpikeTripsRankCsDeadline) {
  util::FakeClock clock;
  StatusOr<storage::SnapshotPtr> snap = [&] {
    storage::ProfileStore store(env_);
    EXPECT_OK(store.CreateUser("u", VersionedProfile(1)));
    return store.GetSnapshot("u");
  }();
  ASSERT_OK(snap.status());
  TreeResolver resolver(&(*snap)->tree());

  // A chaos resolver: every resolution costs a scripted 100us latency
  // spike on the fake clock.
  std::atomic<int> resolves{0};
  ResolveFn slow_resolve = [&](const ContextState& s,
                               const ResolutionOptions& opts,
                               AccessCounter* c) {
    clock.Advance(100);
    resolves.fetch_add(1);
    return resolver.ResolveBest(s, opts, c);
  };

  // Generous budget: both states complete.
  QueryOptions options;
  options.deadline = util::Deadline::AfterMicros(10'000, &clock);
  StatusOr<QueryResult> ok_result =
      RankCS(poi_->relation, query_, *env_, slow_resolve, options);
  ASSERT_OK(ok_result.status());
  EXPECT_EQ(resolves.load(), 2);

  // Budget smaller than one spike: the first state's resolution burns
  // it, so the second state's cancellation point must abort with
  // partial-work accounting before that state is ever resolved.
  resolves.store(0);
  options.deadline = util::Deadline::AfterMicros(50, &clock);
  StatusOr<QueryResult> cut =
      RankCS(poi_->relation, query_, *env_, slow_resolve, options);
  ASSERT_FALSE(cut.ok());
  EXPECT_TRUE(cut.status().IsDeadlineExceeded()) << cut.status().ToString();
  EXPECT_LT(resolves.load(), 2) << "second state must not be resolved";
  EXPECT_NE(cut.status().message().find("/2 states"), std::string::npos)
      << "partial-work accounting missing: " << cut.status().ToString();
}

// ---- Admission + the degradation ladder ----------------------------

TEST_F(OverloadChaosTest, CapacityShedFallsBackToStaleThenTruncated) {
  ReplicatedQueryCache cache(env_, Ordering::Identity(env_->size()),
                             testing::SharedCache(64));
  storage::ProfileStore store(env_);
  store.AttachCoherenceLog(&cache.log());
  ASSERT_OK(store.CreateUser("u", VersionedProfile(1)));

  // Warm the cache at the current version, then publish a new one; the
  // old entries survive the publish inside the staleness window.
  StatusOr<storage::ServedQuery> warm = storage::ServeQueryResilient(
      store, "u", poi_->relation, query_, &cache);
  ASSERT_OK(warm.status());
  EXPECT_EQ(warm->provenance.via, storage::ServedVia::kFresh);
  EXPECT_EQ(warm->provenance.ToString(), "fresh");
  const uint64_t warm_version = warm->provenance.served_version;
  const storage::SnapshotPtr old_snapshot = warm->snapshot;
  ASSERT_OK(store.PublishProfile("u", VersionedProfile(2)));

  // A zero-capacity controller sheds everything at the front door.
  storage::AdmissionController admission(
      storage::AdmissionPolicy{.max_in_flight = 0});
  storage::ServeOptions opts;
  opts.admission = &admission;

  StatusOr<storage::ServedQuery> stale = storage::ServeQueryResilient(
      store, "u", poi_->relation, query_, &cache, opts);
  ASSERT_OK(stale.status());
  EXPECT_EQ(stale->provenance.via, storage::ServedVia::kStale);
  EXPECT_EQ(stale->provenance.served_version, warm_version);
  EXPECT_EQ(stale->provenance.ToString(),
            "stale-v" + std::to_string(warm_version));
  EXPECT_EQ(stale->provenance.admission,
            storage::AdmissionDecision::kShedCapacity);
  // Differential: the stale answer must be bit-identical to a direct
  // serve pinned at that older snapshot.
  StatusOr<QueryResult> direct =
      storage::ServeQuery(*old_snapshot, poi_->relation, query_);
  ASSERT_OK(direct.status());
  EXPECT_EQ(stale->result.tuples, direct->tuples);

  // With the stale rung disabled the same shed lands on the truncated
  // rung: first state only, bounded top-k, still a real answer.
  storage::ServeOptions no_stale = opts;
  no_stale.allow_stale = false;
  no_stale.truncated_top_k = 3;
  StatusOr<storage::ServedQuery> truncated = storage::ServeQueryResilient(
      store, "u", poi_->relation, query_, &cache, no_stale);
  ASSERT_OK(truncated.status());
  EXPECT_EQ(truncated->provenance.via, storage::ServedVia::kTruncated);
  EXPECT_EQ(truncated->provenance.ToString(), "truncated");
  // One state's matches only, at the CURRENT version. All its tuples
  // tie (one preference score), so TopK's keep-ties rule can exceed
  // the nominal bound — the warm two-state answer still dominates it.
  EXPECT_LT(truncated->result.tuples.size(), warm->result.tuples.size());
  EXPECT_EQ(truncated->result.traces.size(), 1u) << "first state only";
  for (const db::ScoredTuple& t : truncated->result.tuples) {
    EXPECT_DOUBLE_EQ(t.score, ScoreForStep(2));
  }

  // And with the whole ladder off, the shed is surfaced as
  // kUnavailable (with a shed provenance in the message).
  storage::ServeOptions nothing = opts;
  nothing.allow_stale = false;
  nothing.allow_truncated = false;
  StatusOr<storage::ServedQuery> shed = storage::ServeQueryResilient(
      store, "u", poi_->relation, query_, &cache, nothing);
  ASSERT_FALSE(shed.ok());
  EXPECT_TRUE(shed.status().IsUnavailable()) << shed.status().ToString();

  const storage::AdmissionController::Stats stats = admission.GetStats();
  EXPECT_EQ(stats.shed_capacity_total, 3u);
  EXPECT_EQ(stats.admitted_total, 0u);
}

TEST_F(OverloadChaosTest, MaintenanceSliceShedsWithoutTouchingInteractive) {
  storage::AdmissionController admission(storage::AdmissionPolicy{
      .max_in_flight = 8, .maintenance_max_in_flight = 1});

  storage::AdmissionController::Ticket m1 =
      admission.Admit(storage::QueryPriority::kMaintenance);
  EXPECT_TRUE(m1.admitted());
  storage::AdmissionController::Ticket m2 =
      admission.Admit(storage::QueryPriority::kMaintenance);
  EXPECT_FALSE(m2.admitted());
  EXPECT_EQ(m2.decision(), storage::AdmissionDecision::kShedMaintenance);
  // Interactive traffic is untouched by the exhausted maintenance
  // slice.
  storage::AdmissionController::Ticket i1 =
      admission.Admit(storage::QueryPriority::kInteractive);
  EXPECT_TRUE(i1.admitted());

  // Releasing the maintenance slot (RAII) frees the slice.
  { storage::AdmissionController::Ticket moved = std::move(m1); }
  EXPECT_FALSE(m1.admitted()) << "moved-from ticket holds nothing";
  storage::AdmissionController::Ticket m3 =
      admission.Admit(storage::QueryPriority::kMaintenance);
  EXPECT_TRUE(m3.admitted());

  const storage::AdmissionController::Stats stats = admission.GetStats();
  EXPECT_EQ(stats.admitted_total, 3u);
  EXPECT_EQ(stats.shed_maintenance_total, 1u);
  EXPECT_EQ(stats.in_flight, 2u);
  EXPECT_EQ(stats.in_flight_highwater, 2u);
}

TEST_F(OverloadChaosTest, ExpiredDeadlineShedsAtTheFrontDoor) {
  util::FakeClock clock;
  storage::ProfileStore store(env_);
  ASSERT_OK(store.CreateUser("u", VersionedProfile(1)));
  storage::AdmissionController admission;

  storage::ServeOptions opts;
  opts.admission = &admission;
  opts.allow_stale = false;     // No cache attached anyway.
  opts.allow_truncated = false; // Isolate the front-door path.
  opts.query.deadline = util::Deadline::AfterMicros(100, &clock);
  clock.Advance(200);

  StatusOr<storage::ServedQuery> served = storage::ServeQueryResilient(
      store, "u", poi_->relation, query_, nullptr, opts);
  ASSERT_FALSE(served.ok());
  EXPECT_TRUE(served.status().IsUnavailable());
  EXPECT_EQ(admission.GetStats().shed_deadline_total, 1u);
  EXPECT_EQ(admission.GetStats().admitted_total, 0u)
      << "an expired request must not consume a slot";
}

// A caller-supplied replica index the cache does not have is rejected
// by both store-level entry points before any replica is touched.
TEST_F(OverloadChaosTest, OutOfRangeReplicaIsInvalidArgument) {
  ReplicatedQueryCache cache(env_, Ordering::Identity(env_->size()),
                             testing::SharedCache(64));
  storage::ProfileStore store(env_);
  store.AttachCoherenceLog(&cache.log());
  ASSERT_OK(store.CreateUser("u", VersionedProfile(1)));
  ASSERT_EQ(cache.num_replicas(), 1u);

  StatusOr<storage::ServedQuery> plain = storage::ServeQuery(
      store, "u", poi_->relation, query_, &cache, {}, nullptr,
      /*replica=*/1);
  EXPECT_TRUE(plain.status().IsInvalidArgument()) << plain.status().ToString();
  StatusOr<storage::ServedQuery> resilient = storage::ServeQueryResilient(
      store, "u", poi_->relation, query_, &cache, {}, nullptr,
      /*replica=*/1);
  EXPECT_TRUE(resilient.status().IsInvalidArgument())
      << resilient.status().ToString();
  EXPECT_EQ(cache.Stats().lookups, 0u);

  // Replica 0 is in range and serves.
  ASSERT_OK(storage::ServeQuery(store, "u", poi_->relation, query_, &cache,
                                {}, nullptr, /*replica=*/0)
                .status());
}

TEST_F(OverloadChaosTest, StaleRungRefusesTornMixedVersionJoins) {
  // Force the pathological case: state A cached at v_new, state B only
  // at v_old. The stale rung must refuse the mixed join (fall to
  // truncated) rather than stitch two versions into one answer.
  ReplicatedQueryCache cache(env_, Ordering::Identity(env_->size()),
                             testing::SharedCache(64));
  storage::ProfileStore store(env_);
  store.AttachCoherenceLog(&cache.log());
  ASSERT_OK(store.CreateUser("u", VersionedProfile(1)));

  // Warm BOTH states at v1 via the two-state query.
  ASSERT_OK(storage::ServeQueryResilient(store, "u", poi_->relation, query_,
                                         &cache)
                .status());
  ASSERT_OK(store.PublishProfile("u", VersionedProfile(2)));

  // Re-warm ONLY the first state (single-state query) at v2.
  StatusOr<ExtendedDescriptor> first_only =
      ParseExtendedDescriptor(*env_, "location = Plaka");
  ASSERT_OK(first_only.status());
  ContextualQuery first_query;
  first_query.context = *first_only;
  StatusOr<storage::ServedQuery> rewarm = storage::ServeQueryResilient(
      store, "u", poi_->relation, first_query, &cache);
  ASSERT_OK(rewarm.status());
  ASSERT_EQ(rewarm->provenance.via, storage::ServedVia::kFresh);

  // Shed the two-state query. First state hits at v2, second only has
  // v1 ⇒ no consistent version ⇒ truncated, never a v1+v2 mix.
  storage::AdmissionController admission(
      storage::AdmissionPolicy{.max_in_flight = 0});
  storage::ServeOptions opts;
  opts.admission = &admission;
  StatusOr<storage::ServedQuery> served = storage::ServeQueryResilient(
      store, "u", poi_->relation, query_, &cache, opts);
  ASSERT_OK(served.status());
  EXPECT_EQ(served->provenance.via, storage::ServedVia::kTruncated);
  // Whatever was served is internally consistent: one score everywhere.
  for (const db::ScoredTuple& t : served->result.tuples) {
    EXPECT_DOUBLE_EQ(t.score, ScoreForStep(2));
  }
}

// ---- The seeded burst harness --------------------------------------

TEST_F(OverloadChaosTest, SeededBurstsServeUntornAnswersWithProvenance) {
  Rng rng(20260808);
  util::FakeClock clock;
  ReplicatedQueryCache cache(env_, Ordering::Identity(env_->size()),
                             testing::SharedCache(256));
  storage::ProfileStore store(env_);
  store.AttachCoherenceLog(&cache.log());
  uint64_t step = 1;
  ASSERT_OK(store.CreateUser("u", VersionedProfile(step)));

  storage::AdmissionController admission(
      storage::AdmissionPolicy{.max_in_flight = 4});
  // Version → the published score at that serving version, for the
  // torn-answer check on stale serves.
  std::map<uint64_t, double> score_at_version;
  score_at_version[store.serving_version()] = ScoreForStep(step);

  uint64_t fresh = 0, stale = 0, truncated = 0, unavailable = 0;
  for (int i = 0; i < 400; ++i) {
    // Burst arrivals: occasionally the clock jumps (a latency spike
    // elsewhere in the server), so some in-flight budgets die.
    clock.Advance(rng.Uniform(200));
    const uint64_t action = rng.Uniform(10);
    if (action == 0) {
      // Publish churn.
      ++step;
      ASSERT_OK(store.PublishProfile("u", VersionedProfile(step)));
      score_at_version[store.serving_version()] = ScoreForStep(step);
      continue;
    }
    // Scripted overload: sometimes pre-fill the admission slots so the
    // request is shed at the door, sometimes hand out a budget that is
    // already (or nearly) dead.
    std::vector<storage::AdmissionController::Ticket> hogs;
    if (action <= 3) {
      for (int h = 0; h < 4; ++h) {
        hogs.push_back(
            admission.Admit(storage::QueryPriority::kInteractive));
      }
    }
    storage::ServeOptions opts;
    opts.admission = &admission;
    opts.max_stale_versions = 8;
    opts.query.deadline = util::Deadline::AfterMicros(
        action == 4 ? 0 : 10'000, &clock);
    StatusOr<storage::ServedQuery> served = storage::ServeQueryResilient(
        store, "u", poi_->relation, query_, &cache, opts);
    if (!served.ok()) {
      ASSERT_TRUE(served.status().IsUnavailable())
          << served.status().ToString();
      ++unavailable;
      continue;
    }
    const storage::ServingProvenance& prov = served->provenance;
    // Every answer must be internally consistent with ONE published
    // version — the one its provenance names.
    ASSERT_TRUE(score_at_version.count(prov.served_version))
        << "provenance names an unknown version " << prov.served_version;
    const double expect = score_at_version[prov.served_version];
    for (const db::ScoredTuple& t : served->result.tuples) {
      ASSERT_DOUBLE_EQ(t.score, expect)
          << "torn answer at iteration " << i << " provenance "
          << prov.ToString();
    }
    switch (prov.via) {
      case storage::ServedVia::kFresh:
        ++fresh;
        EXPECT_EQ(prov.served_version, prov.current_version);
        EXPECT_EQ(prov.admission, storage::AdmissionDecision::kAdmitted);
        break;
      case storage::ServedVia::kStale:
        ++stale;
        // == is legal: a shed request whose cache entries are at the
        // pinned version serves them without re-evaluating.
        EXPECT_LE(prov.served_version, prov.current_version);
        EXPECT_GE(prov.served_version + opts.max_stale_versions,
                  prov.current_version);
        break;
      case storage::ServedVia::kTruncated:
        ++truncated;
        EXPECT_EQ(served->result.traces.size(), 1u);
        break;
      case storage::ServedVia::kShed:
        FAIL() << "kShed must pair with a kUnavailable status";
    }
  }
  // The scripted mix exercised every rung.
  EXPECT_GT(fresh, 0u);
  EXPECT_GT(stale, 0u);
  EXPECT_GT(unavailable + truncated, 0u);
  EXPECT_EQ(admission.GetStats().in_flight, 0u) << "tickets all returned";
}

}  // namespace
}  // namespace ctxpref
