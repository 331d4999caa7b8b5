// Differential + chaos battery for log-based cache coherence
// (docs/coherence.md): replicated query caches kept coherent through
// a CoherenceLog must serve answers byte-identical to a single shared
// cache AND to an uncached serve at the same serving version —
//  (1) across >= 12 interleaved PublishProfile / ReloadUser swaps,
//      both DistanceKinds, with every hit asserted identical to the
//      miss that populated it;
//  (2) under seeded chaos: writer churn (publish / update / remove /
//      re-create) interleaved with randomly scheduled replica consume
//      steps, every served answer checked against its own pinned
//      snapshot's uncached oracle, the refuse path provably taken;
//  (3) directed: the consume step's version-clock advance, the
//      staleness-window reclamation bound, drop_all records, and the
//      log's cursor/truncation bookkeeping.

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "context/descriptor.h"
#include "db/relation.h"
#include "db/schema.h"
#include "preference/query_cache.h"
#include "preference/replicated_query_cache.h"
#include "storage/profile_store.h"
#include "storage/serving.h"
#include "tests/test_util.h"
#include "util/metrics.h"
#include "util/random.h"

namespace ctxpref {
namespace {

namespace fs = std::filesystem;

/// The serving-differential two-parameter world (see
/// serving_differential_test.cc).
EnvironmentPtr TinyEnv() {
  HierarchyBuilder pb("place");
  pb.AddDetailedLevel("Spot", {"a", "b", "c"});
  pb.AddLevel("Zone", {{"X", {"a", "b"}}, {"Y", {"c"}}});
  StatusOr<HierarchyPtr> place = pb.Build();
  EXPECT_TRUE(place.ok());
  StatusOr<HierarchyPtr> mood =
      MakeFlatHierarchy("mood", "Mood", {"happy", "sad"});
  EXPECT_TRUE(mood.ok());
  std::vector<ContextParameter> params;
  params.emplace_back("place", *place);
  params.emplace_back("mood", *mood);
  StatusOr<EnvironmentPtr> env = ContextEnvironment::Create(std::move(params));
  EXPECT_TRUE(env.ok());
  return *env;
}

std::vector<ContextState> AllExtendedStates(const ContextEnvironment& env) {
  std::vector<std::vector<ValueRef>> domains;
  for (size_t i = 0; i < env.size(); ++i) {
    std::vector<ValueRef> values;
    const Hierarchy& h = env.parameter(i).hierarchy();
    for (LevelIndex l = 0; l < h.num_levels(); ++l) {
      for (ValueId id = 0; id < h.level_size(l); ++id) {
        values.push_back(ValueRef{l, id});
      }
    }
    domains.push_back(std::move(values));
  }
  std::vector<ContextState> out;
  for (ValueRef p : domains[0]) {
    for (ValueRef m : domains[1]) {
      out.push_back(ContextState({p, m}));
    }
  }
  return out;
}

constexpr size_t kAttrPool = 10;

// += not operator+ (GCC 12 -Wrestrict misfire, see bench_serving.cc).
std::string ValueName(size_t k) {
  std::string v("v");
  v += std::to_string(k);
  return v;
}

db::Relation MakeRelation() {
  StatusOr<db::Schema> schema =
      db::Schema::Create({{"attr", db::ColumnType::kString}});
  EXPECT_TRUE(schema.ok());
  db::Relation relation(std::move(*schema));
  for (size_t k = 0; k < kAttrPool; ++k) {
    EXPECT_OK(relation.Append({db::Value(ValueName(k))}));
  }
  return relation;
}

Profile RandomProfile(Rng& rng, EnvironmentPtr env,
                      const std::vector<ContextState>& world) {
  Profile profile(env);
  for (const ContextState& s : world) {
    if (!rng.Bernoulli(0.4)) continue;
    StatusOr<CompositeDescriptor> cod = CompositeDescriptor::ForState(*env, s);
    EXPECT_TRUE(cod.ok());
    StatusOr<ContextualPreference> pref = ContextualPreference::Create(
        std::move(*cod),
        AttributeClause{"attr", db::CompareOp::kEq,
                        db::Value(ValueName(rng.Uniform(kAttrPool)))},
        static_cast<double>(rng.Uniform(21)) * 0.05);
    EXPECT_TRUE(pref.ok());
    EXPECT_OK(profile.Insert(std::move(*pref)));
  }
  return profile;
}

/// Never-empty variant, so a publish always changes something.
Profile NonEmptyRandomProfile(Rng& rng, EnvironmentPtr env,
                              const std::vector<ContextState>& world) {
  for (int attempt = 0; attempt < 64; ++attempt) {
    Profile p = RandomProfile(rng, env, world);
    if (!p.empty()) return p;
  }
  ADD_FAILURE() << "could not draw a non-empty profile";
  return Profile(env);
}

ContextualQuery QueryForState(const ContextEnvironment& env,
                              const ContextState& s) {
  StatusOr<CompositeDescriptor> cod = CompositeDescriptor::ForState(env, s);
  EXPECT_TRUE(cod.ok());
  ContextualQuery query;
  query.context = ExtendedDescriptor::FromComposite(std::move(*cod));
  return query;
}

/// Byte-identical result comparison: tuples (row ids AND bit-equal
/// scores via ScoredTuple::operator==) and the per-state candidate
/// sets with bit-equal distances.
void ExpectSameResult(const QueryResult& got, const QueryResult& want,
                      const std::string& label) {
  EXPECT_EQ(got.tuples, want.tuples) << label;
  ASSERT_EQ(got.traces.size(), want.traces.size()) << label;
  for (size_t i = 0; i < got.traces.size(); ++i) {
    const std::vector<CandidatePath>& g = got.traces[i].candidates;
    const std::vector<CandidatePath>& w = want.traces[i].candidates;
    ASSERT_EQ(g.size(), w.size()) << label << " trace " << i;
    for (size_t j = 0; j < g.size(); ++j) {
      EXPECT_TRUE(g[j].state == w[j].state) << label << " candidate " << j;
      EXPECT_EQ(g[j].distance, w[j].distance)
          << label << " candidate " << j << ": distances not bit-equal";
      ASSERT_EQ(g[j].entries.size(), w[j].entries.size())
          << label << " candidate " << j;
      for (size_t k = 0; k < g[j].entries.size(); ++k) {
        EXPECT_EQ(g[j].entries[k].score, w[j].entries[k].score)
            << label << " candidate " << j << " entry " << k;
      }
    }
  }
}

uint64_t StaleRefuses() {
  return MetricsRegistry::Global()
      .GetCounter("ctxpref_coherence_stale_refuses_total")
      .value();
}

class CoherenceDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

// ---- (1) Replicated vs single shared cache vs uncached --------------
//
// Two stores are driven through the SAME sequence of >= 12 profile
// swaps (half PublishProfile, half ReloadUser from a directory the
// publishing store saved), so their serving-version counters stay in
// lockstep. Store A uses the eager single-shared-cache wiring; store B
// publishes through the coherence log into a replicated cache. At
// every version, for both distance kinds, every replica must serve
// byte-identically to the shared cache and to the uncached oracle —
// and the second (hit) pass through each cache must be byte-identical
// to the first (miss) pass that populated it.
TEST_P(CoherenceDifferentialTest, ReplicatedMatchesSingleCacheAcrossSwaps) {
  EnvironmentPtr env = TinyEnv();
  const std::vector<ContextState> world = AllExtendedStates(*env);
  const db::Relation relation = MakeRelation();

  // One cache (and one replicated cache) PER distance kind: cache
  // entries are keyed `(user, state, version)` with no resolution
  // options, so a cache serves exactly one query configuration —
  // mixing kinds against one cache would replay a hierarchy answer
  // for a Jaccard query. Deployments (and the harness's single
  // `distance` knob) work the same way.
  for (DistanceKind kind :
       {DistanceKind::kHierarchy, DistanceKind::kJaccard}) {
    Rng rng(GetParam() + (kind == DistanceKind::kJaccard ? 1000 : 0));
    QueryOptions options;
    options.resolution.distance = kind;

    const std::string dir = ::testing::TempDir() + "/ctxpref_coherence_" +
                            std::to_string(GetParam()) + "_" +
                            DistanceKindToString(kind);
    fs::remove_all(dir);
    fs::create_directories(dir);

    storage::ProfileStore eager_store(env);
    ContextQueryTree shared_cache(env, Ordering::Identity(env->size()));
    shared_cache.SetRetainStale(true);
    eager_store.AttachQueryCache(&shared_cache);

    storage::ProfileStore log_store(env);
    ReplicatedQueryCache::Options ropt;
    ropt.num_replicas = 3;
    ropt.staleness_window = 64;  // Retain everything this test ages.
    ropt.mode = ReplicatedQueryCache::ConsumeMode::kInlineAtLookup;
    ReplicatedQueryCache replicas(env, Ordering::Identity(env->size()), ropt);
    log_store.AttachCoherenceLog(&replicas.log());

    {
      Profile initial = NonEmptyRandomProfile(rng, env, world);
      ASSERT_OK(eager_store.CreateUser("u", initial));
      ASSERT_OK(log_store.CreateUser("u", std::move(initial)));
    }

    for (int swap = 0; swap < 13; ++swap) {
      ASSERT_EQ(eager_store.serving_version(), log_store.serving_version());
      StatusOr<storage::SnapshotPtr> pin = log_store.GetSnapshot("u");
      ASSERT_OK(pin.status());
      const uint64_t version = (*pin)->serving_version();

      for (int trial = 0; trial < 6; ++trial) {
        const ContextState& s = world[rng.Uniform(world.size())];
        const ContextualQuery query = QueryForState(*env, s);
        std::string label = "swap ";
        label += std::to_string(swap);
        label += " v";
        label += std::to_string(version);
        label += " ";
        label += DistanceKindToString(kind);
        label += " state ";
        label += s.ToString(*env);

        StatusOr<QueryResult> oracle = storage::ServeQuery(
            **pin, relation, query, /*cache=*/nullptr, options);
        ASSERT_OK(oracle.status());

        // Shared-cache path: miss pass then hit pass.
        for (int pass = 0; pass < 2; ++pass) {
          StatusOr<QueryResult> got = storage::ServeQuery(
              **pin, relation, query, &shared_cache, options);
          ASSERT_OK(got.status());
          ExpectSameResult(*got, *oracle,
                           label + " shared pass " + std::to_string(pass));
        }
        // Every replica, miss pass then hit pass, through the real
        // serving entry point (consume -> gate -> serve).
        for (size_t r = 0; r < replicas.num_replicas(); ++r) {
          for (int pass = 0; pass < 2; ++pass) {
            StatusOr<storage::ServedQuery> got =
                storage::ServeQueryReplicated(log_store, "u", relation, query,
                                              replicas, options,
                                              /*counter=*/nullptr, r);
            ASSERT_OK(got.status());
            ASSERT_EQ(got->snapshot->serving_version(), version) << label;
            EXPECT_TRUE(replicas.Covers(r, version)) << label;
            ExpectSameResult(got->result, *oracle,
                             label + " replica " + std::to_string(r) +
                                 " pass " + std::to_string(pass));
          }
          // The hit really is a hit: a third serve must not miss.
          const CacheStats before = replicas.replica(r).Stats();
          StatusOr<storage::ServedQuery> again =
              storage::ServeQueryReplicated(log_store, "u", relation, query,
                                            replicas, options,
                                            /*counter=*/nullptr, r);
          ASSERT_OK(again.status());
          const CacheStats after = replicas.replica(r).Stats();
          EXPECT_GT(after.hits, before.hits) << label;
          EXPECT_EQ(after.misses, before.misses) << label;
        }
      }

      // Advance both stores through the same swap: even rounds publish
      // a fresh random profile, odd rounds reload from disk (saved by
      // the eager store, republished by both).
      if (swap % 2 == 0) {
        Profile next = NonEmptyRandomProfile(rng, env, world);
        ASSERT_OK(eager_store.PublishProfile("u", next));
        ASSERT_OK(log_store.PublishProfile("u", std::move(next)));
      } else {
        ASSERT_OK(eager_store.SaveAll(dir));
        ASSERT_OK(eager_store.ReloadUser("u", dir));
        ASSERT_OK(log_store.ReloadUser("u", dir));
      }
    }
    fs::remove_all(dir);
  }
}

// ---- (2) Seeded chaos: churn + scheduled consume agents -------------
//
// Writers churn the store (publish / update / remove+recreate) while
// replica consume steps run on a random seeded schedule instead of
// inline — so replicas lag, the coverage gate actually refuses, and
// answers must STILL be byte-identical to each request's own pinned
// snapshot served uncached. This is the "a stale replica can refuse
// but never lie" property; 200 ops per seed.
TEST_P(CoherenceDifferentialTest, ChaosChurnNeverServesTornAnswers) {
  EnvironmentPtr env = TinyEnv();
  const std::vector<ContextState> world = AllExtendedStates(*env);
  const db::Relation relation = MakeRelation();
  Rng rng(GetParam() + 977);

  storage::ProfileStore store(env);
  ReplicatedQueryCache::Options ropt;
  ropt.num_replicas = 4;
  ropt.staleness_window = 4;
  // Background mode with no pool attached: consume runs ONLY when this
  // test's seeded schedule calls it, never inline — maximal lag.
  ropt.mode = ReplicatedQueryCache::ConsumeMode::kBackground;
  ReplicatedQueryCache replicas(env, Ordering::Identity(env->size()), ropt);
  store.AttachCoherenceLog(&replicas.log());
  ASSERT_OK(store.CreateUser("u", NonEmptyRandomProfile(rng, env, world)));
  ASSERT_OK(store.CreateUser("w", NonEmptyRandomProfile(rng, env, world)));

  const uint64_t refuses_before = StaleRefuses();
  uint64_t covered_serves = 0;
  uint64_t gated_serves = 0;

  for (int op = 0; op < 200; ++op) {
    const uint32_t dice = rng.Uniform(100);
    const std::string uid = rng.Bernoulli(0.5) ? "u" : "w";
    if (dice < 20) {  // Writer churn: wholesale publish.
      ASSERT_OK(
          store.PublishProfile(uid, NonEmptyRandomProfile(rng, env, world)));
    } else if (dice < 30) {  // Writer churn: COW rescore.
      const double score = static_cast<double>(rng.Uniform(21)) * 0.05;
      ASSERT_OK(store.UpdateUser(uid, [score](Profile& p) {
        if (p.size() > 0) (void)p.UpdateScore(0, score);
        return Status::OK();
      }));
    } else if (dice < 34) {  // Remove + recreate: drop_all records.
      ASSERT_OK(store.RemoveUser(uid));
      ASSERT_OK(
          store.CreateUser(uid, NonEmptyRandomProfile(rng, env, world)));
    } else if (dice < 50) {  // A consume agent fires on one replica.
      replicas.Consume(rng.Uniform(replicas.num_replicas()));
    } else {  // Query through a random replica.
      const size_t r = rng.Uniform(replicas.num_replicas());
      const ContextualQuery query =
          QueryForState(*env, world[rng.Uniform(world.size())]);
      StatusOr<storage::ServedQuery> got = storage::ServeQueryReplicated(
          store, uid, relation, query, replicas, QueryOptions{},
          /*counter=*/nullptr, r);
      ASSERT_OK(got.status());
      if (replicas.Covers(r, got->snapshot->serving_version())) {
        ++covered_serves;
      } else {
        ++gated_serves;
      }
      // The oracle for THIS answer is its own pinned snapshot,
      // uncached — stale replica state must never leak into it.
      StatusOr<QueryResult> oracle = storage::ServeQuery(
          *got->snapshot, relation, query, /*cache=*/nullptr);
      ASSERT_OK(oracle.status());
      ExpectSameResult(got->result, *oracle, "op " + std::to_string(op));
    }
  }

  // The chaos must have exercised BOTH sides of the gate, and the
  // refuse counter must account for every gated serve.
  EXPECT_GT(covered_serves, 0u);
  EXPECT_GT(gated_serves, 0u);
  EXPECT_GE(StaleRefuses() - refuses_before, gated_serves);

  // Quiesce: once every replica consumes, the lag closes and the log
  // drains empty (all cursors at the end -> full truncation).
  replicas.ConsumeAll();
  EXPECT_EQ(replicas.InvalidationLagVersions(), 0u);
  EXPECT_EQ(replicas.log().depth(), 0u);
  for (size_t r = 0; r < replicas.num_replicas(); ++r) {
    EXPECT_GE(replicas.clock(r), store.serving_version());
  }
}

// ---- (3) Directed: clock, window, drop_all, cursors -----------------

TEST(CoherenceLogTest, CursorsTruncationAndWatermark) {
  CoherenceLog log(/*num_consumers=*/2, /*num_buffers=*/1);
  EXPECT_EQ(log.max_appended(), 0u);
  EXPECT_EQ(log.depth(), 0u);

  log.Append("u", 3);
  log.Append("w", 5);
  log.Append("u", 4);  // Out-of-order version: watermark keeps the max.
  EXPECT_EQ(log.max_appended(), 5u);
  EXPECT_EQ(log.depth(), 3u);

  // Consumer 0 drains everything, in append order; consumer 1 has not
  // moved, so nothing truncates yet.
  std::vector<std::pair<std::string, uint64_t>> seen;
  EXPECT_EQ(log.Consume(0,
                        [&seen](const CoherenceLog::Record& r) {
                          seen.emplace_back(r.user, r.version);
                        }),
            3u);
  const std::vector<std::pair<std::string, uint64_t>> want = {
      {"u", 3}, {"w", 5}, {"u", 4}};
  EXPECT_EQ(seen, want);
  EXPECT_EQ(log.depth(), 3u);

  // Consumer 1 catches up: the shared prefix truncates to empty.
  EXPECT_EQ(log.Consume(1, [](const CoherenceLog::Record&) {}), 3u);
  EXPECT_EQ(log.depth(), 0u);

  // Records appended after truncation land past both cursors.
  log.Append("u", 6, /*drop_all=*/true);
  size_t drops = 0;
  EXPECT_EQ(log.Consume(0,
                        [&drops](const CoherenceLog::Record& r) {
                          if (r.drop_all) ++drops;
                        }),
            1u);
  EXPECT_EQ(drops, 1u);
  EXPECT_EQ(log.Consume(0, [](const CoherenceLog::Record&) {}), 0u)
      << "cursor must not re-deliver";
}

TEST(ReplicatedQueryCacheTest, ConsumeAdvancesClockAndGatesCoverage) {
  EnvironmentPtr env = TinyEnv();
  const std::vector<ContextState> world = AllExtendedStates(*env);
  const db::Relation relation = MakeRelation();
  Rng rng(4242);

  storage::ProfileStore store(env);
  ReplicatedQueryCache::Options ropt;
  ropt.num_replicas = 2;
  ropt.staleness_window = 2;
  ropt.mode = ReplicatedQueryCache::ConsumeMode::kBackground;  // No pool.
  ReplicatedQueryCache replicas(env, Ordering::Identity(env->size()), ropt);
  store.AttachCoherenceLog(&replicas.log());
  ASSERT_OK(store.CreateUser("u", NonEmptyRandomProfile(rng, env, world)));
  const uint64_t v1 = store.serving_version();

  // Nothing consumed: clock 0, gate closed, serve refuses the cache
  // (uncached, no Put) but still answers correctly.
  EXPECT_FALSE(replicas.Covers(0, v1));
  const uint64_t refuses_before = StaleRefuses();
  const ContextualQuery query = QueryForState(*env, world[0]);
  StatusOr<storage::ServedQuery> gated = storage::ServeQueryReplicated(
      store, "u", relation, query, replicas, QueryOptions{},
      /*counter=*/nullptr, 0);
  ASSERT_OK(gated.status());
  EXPECT_EQ(StaleRefuses() - refuses_before, 1u);
  EXPECT_EQ(replicas.replica(0).Stats().size, 0u)
      << "a refused serve must not write through the gate";

  // One consume step: clock covers v1, the same query now populates
  // and then hits replica 0 — replica 1 remains behind.
  replicas.Consume(0);
  EXPECT_TRUE(replicas.Covers(0, v1));
  EXPECT_FALSE(replicas.Covers(1, v1));
  for (int pass = 0; pass < 2; ++pass) {
    ASSERT_OK(storage::ServeQueryReplicated(store, "u", relation, query,
                                            replicas, QueryOptions{},
                                            /*counter=*/nullptr, 0)
                  .status());
  }
  const CacheStats stats = replicas.replica(0).Stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(replicas.InvalidationLagVersions(), store.serving_version())
      << "lag = watermark - min clock, and replica 1 is still at 0";

  // Age the entry beyond the staleness window (> 2 publishes), then
  // consume: the v1-tagged entry is reclaimed — not even reachable via
  // the bounded-staleness lookup — while entries inside the window
  // survive in retain-stale mode.
  for (int i = 0; i < 4; ++i) {
    ASSERT_OK(
        store.PublishProfile("u", NonEmptyRandomProfile(rng, env, world)));
  }
  const uint64_t now = store.serving_version();
  ASSERT_GT(now - ropt.staleness_window, v1);
  replicas.Consume(0);
  EXPECT_TRUE(replicas.Covers(0, now));
  uint64_t found_version = 0;
  EXPECT_EQ(replicas.replica(0).LookupAtOrBefore("u", world[0], now,
                                                 /*min_version=*/0, {},
                                                 &found_version, nullptr),
            nullptr)
      << "v" << v1 << " entry should be reclaimed, got v" << found_version;

  // drop_all: a removal kills even in-window entries at consume time.
  ASSERT_OK(storage::ServeQueryReplicated(store, "u", relation, query,
                                          replicas, QueryOptions{},
                                          /*counter=*/nullptr, 0)
                .status());  // Re-populate at the current version.
  ASSERT_GT(replicas.replica(0).Stats().size, 0u);
  ASSERT_OK(store.RemoveUser("u"));
  replicas.Consume(0);
  EXPECT_EQ(replicas.replica(0).Stats().size, 0u)
      << "drop_all must ignore the staleness window";
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoherenceDifferentialTest,
                         ::testing::Values(9101, 9102, 9103, 9104));

}  // namespace
}  // namespace ctxpref
