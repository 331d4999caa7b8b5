#include "preference/query_cache.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "context/parser.h"
#include "preference/flat_profile_tree.h"
#include "preference/sequential_store.h"
#include "tests/test_util.h"
#include "util/clock.h"
#include "workload/poi_dataset.h"

namespace ctxpref {
namespace {

using ::ctxpref::testing::Pref;
using ::ctxpref::testing::State;

/// The drop a user removal applies: every entry of the user.
constexpr uint64_t kAllVersions = std::numeric_limits<uint64_t>::max();

class QueryCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    StatusOr<workload::PoiDatabase> poi = workload::MakePoiDatabase(30, 5);
    ASSERT_OK(poi.status());
    poi_ = std::make_unique<workload::PoiDatabase>(std::move(*poi));
    env_ = poi_->env;
  }

  ContextQueryTree MakeCache(size_t capacity = 0) {
    return ContextQueryTree(capacity);
  }

  /// `RankCS` over `resolver` through `cache`, under the single-user
  /// key "" at `version`.
  StatusOr<QueryResult> RankCached(const ContextualQuery& q,
                                   const FlatResolver& resolver,
                                   uint64_t version, ContextQueryTree& cache,
                                   const QueryOptions& options = {}) {
    const StateCache state_cache{&cache, &user_, version};
    return RankCS(poi_->relation, q, resolver, options, nullptr, &state_cache);
  }

  std::unique_ptr<workload::PoiDatabase> poi_;
  EnvironmentPtr env_;
  const std::string user_;
};

TEST_F(QueryCacheTest, PutThenLookupHits) {
  ContextQueryTree cache = MakeCache();
  ContextState s = State(*env_, {"Plaka", "warm", "friends"});
  cache.Put(s, 1, {{3, 0.9}, {5, 0.7}});
  std::shared_ptr<const ContextQueryTree::Entry> hit = cache.Lookup(s, 1);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->tuples.size(), 2u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST_F(QueryCacheTest, MissOnAbsentState) {
  ContextQueryTree cache = MakeCache();
  EXPECT_EQ(cache.Lookup(State(*env_, {"Plaka", "warm", "friends"}), 1),
            nullptr);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST_F(QueryCacheTest, StaleVersionMissesAndIsKeptUntilPut) {
  ContextQueryTree cache = MakeCache();
  ContextState s = State(*env_, {"Plaka", "warm", "friends"});
  cache.Put(s, 1, {{3, 0.9}});
  EXPECT_EQ(cache.Lookup(s, 2), nullptr);  // Profile moved to version 2.
  EXPECT_EQ(cache.misses(), 1u);
  // A skewed lookup is a plain miss: the entry stays in place (the
  // stale rung can still reach it), nothing is invalidated.
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.invalidations(), 0u);
  EXPECT_NE(cache.LookupAtOrBefore("", s, 2, 1), nullptr);
  // Re-populating at the new version overwrites it in place.
  cache.Put(s, 2, {{4, 0.8}});
  EXPECT_EQ(cache.size(), 1u);
  std::shared_ptr<const ContextQueryTree::Entry> hit = cache.Lookup(s, 2);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->tuples[0].row_id, 4u);
  EXPECT_EQ(cache.Lookup(s, 1), nullptr) << "the v1 entry is gone";
}

TEST_F(QueryCacheTest, StatsSnapshotAggregatesAllCounters) {
  ContextQueryTree cache = MakeCache(/*capacity=*/1);
  ContextState a = State(*env_, {"Plaka", "warm", "friends"});
  ContextState b = State(*env_, {"Kifisia", "hot", "family"});
  cache.Put(a, 1, {{1, 0.5}});
  EXPECT_NE(cache.Lookup(a, 1), nullptr);  // hit
  EXPECT_EQ(cache.Lookup(b, 1), nullptr);  // miss
  cache.Put(b, 1, {{2, 0.5}});             // evicts a
  cache.Put(a, 2, {{1, 0.5}});             // evicts b
  EXPECT_EQ(cache.Lookup(a, 3), nullptr);  // skewed: miss, entry kept
  EXPECT_EQ(cache.InvalidateUserBelow("", kAllVersions), 1u);  // drops a

  CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.invalidations, 1u);
  EXPECT_EQ(stats.size, 0u);
  // The legacy accessors are views of the same snapshot.
  EXPECT_EQ(cache.hits(), stats.hits);
  EXPECT_EQ(cache.misses(), stats.misses);
  EXPECT_EQ(cache.evictions(), stats.evictions);
  EXPECT_EQ(cache.invalidations(), stats.invalidations);
  EXPECT_EQ(cache.size(), stats.size);
}

TEST_F(QueryCacheTest, PutOverwritesInPlace) {
  ContextQueryTree cache = MakeCache();
  ContextState s = State(*env_, {"Plaka", "warm", "friends"});
  cache.Put(s, 1, {{3, 0.9}});
  cache.Put(s, 1, {{4, 0.8}});
  EXPECT_EQ(cache.size(), 1u);
  std::shared_ptr<const ContextQueryTree::Entry> hit = cache.Lookup(s, 1);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->tuples[0].row_id, 4u);
}

TEST_F(QueryCacheTest, LookupSnapshotSurvivesOverwrite) {
  ContextQueryTree cache = MakeCache();
  ContextState s = State(*env_, {"Plaka", "warm", "friends"});
  cache.Put(s, 1, {{3, 0.9}});
  std::shared_ptr<const ContextQueryTree::Entry> snapshot = cache.Lookup(s, 1);
  ASSERT_NE(snapshot, nullptr);
  cache.Put(s, 1, {{4, 0.8}});
  cache.InvalidateUserBelow("", kAllVersions);
  // The reader's snapshot is unaffected by the concurrent-style churn.
  EXPECT_EQ(snapshot->tuples[0].row_id, 3u);
}

TEST_F(QueryCacheTest, LruEvictionBeyondCapacity) {
  ContextQueryTree cache = MakeCache(/*capacity=*/2);
  ContextState a = State(*env_, {"Plaka", "warm", "friends"});
  ContextState b = State(*env_, {"Kifisia", "hot", "family"});
  ContextState c = State(*env_, {"Perama", "cold", "alone"});
  cache.Put(a, 1, {{1, 0.5}});
  cache.Put(b, 1, {{2, 0.5}});
  // Touch `a` so `b` is the LRU victim.
  EXPECT_NE(cache.Lookup(a, 1), nullptr);
  cache.Put(c, 1, {{3, 0.5}});
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_NE(cache.Lookup(a, 1), nullptr);
  EXPECT_EQ(cache.Lookup(b, 1), nullptr);  // Evicted.
  EXPECT_NE(cache.Lookup(c, 1), nullptr);
}

TEST_F(QueryCacheTest, UsersAreIsolatedNamespaces) {
  ContextQueryTree cache = MakeCache();
  ContextState s = State(*env_, {"Plaka", "warm", "friends"});
  cache.Put("alice", s, 1, {{1, 0.9}});
  cache.Put("bob", s, 1, {{2, 0.4}});
  // Same state, same version — but each user sees only their entry.
  std::shared_ptr<const ContextQueryTree::Entry> alice =
      cache.Lookup("alice", s, 1);
  std::shared_ptr<const ContextQueryTree::Entry> bob =
      cache.Lookup("bob", s, 1);
  ASSERT_NE(alice, nullptr);
  ASSERT_NE(bob, nullptr);
  EXPECT_EQ(alice->tuples[0].row_id, 1);
  EXPECT_EQ(bob->tuples[0].row_id, 2);
  // The anonymous (single-user sugar) namespace is a third user.
  EXPECT_EQ(cache.Lookup(s, 1), nullptr);
  EXPECT_EQ(cache.size(), 2u);
}

TEST_F(QueryCacheTest, InvalidateUserDropsOnlyThatUser) {
  ContextQueryTree cache = MakeCache();
  ContextState a = State(*env_, {"Plaka", "warm", "friends"});
  ContextState b = State(*env_, {"Kifisia", "hot", "family"});
  cache.Put("alice", a, 1, {{1, 0.5}});
  cache.Put("alice", b, 1, {{2, 0.5}});
  cache.Put("bob", a, 1, {{3, 0.5}});
  ASSERT_EQ(cache.size(), 3u);

  EXPECT_EQ(cache.InvalidateUserBelow("alice", kAllVersions), 2u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.Lookup("alice", a, 1), nullptr);
  EXPECT_EQ(cache.Lookup("alice", b, 1), nullptr);
  EXPECT_NE(cache.Lookup("bob", a, 1), nullptr);
  // Explicit drops count as invalidations.
  EXPECT_GE(cache.invalidations(), 2u);
  // Invalidating an unknown user is a no-op.
  EXPECT_EQ(cache.InvalidateUserBelow("carol", kAllVersions), 0u);
}

TEST_F(QueryCacheTest, EvictionAccountsPerUserEntries) {
  ContextQueryTree cache = MakeCache(/*capacity=*/2);
  ContextState s = State(*env_, {"Plaka", "warm", "friends"});
  cache.Put("alice", s, 1, {{1, 0.5}});
  cache.Put("bob", s, 1, {{2, 0.5}});
  cache.Put("carol", s, 1, {{3, 0.5}});  // Evicts alice (LRU).
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.Lookup("alice", s, 1), nullptr);
  EXPECT_NE(cache.Lookup("bob", s, 1), nullptr);
  EXPECT_NE(cache.Lookup("carol", s, 1), nullptr);
  EXPECT_EQ(cache.evictions(), 1u);
}

TEST_F(QueryCacheTest, VersionTagsAreScopedPerUser) {
  ContextQueryTree cache = MakeCache();
  ContextState s = State(*env_, {"Plaka", "warm", "friends"});
  cache.Put("alice", s, 7, {{1, 0.5}});
  cache.Put("bob", s, 9, {{2, 0.5}});
  // Bob's newer version does not disturb alice's tag, and a stale
  // lookup misses only for the touched user.
  EXPECT_NE(cache.Lookup("alice", s, 7), nullptr);
  EXPECT_EQ(cache.Lookup("alice", s, 8), nullptr);  // skewed: miss
  EXPECT_NE(cache.Lookup("bob", s, 9), nullptr);
  // A new Put for alice replaces her v7 entry; bob's is untouched.
  cache.Put("alice", s, 8, {{3, 0.5}});
  EXPECT_NE(cache.Lookup("alice", s, 8), nullptr);
  EXPECT_EQ(cache.Lookup("alice", s, 7), nullptr);
  EXPECT_NE(cache.Lookup("bob", s, 9), nullptr);
  EXPECT_EQ(cache.size(), 2u);
}

TEST_F(QueryCacheTest, LookupCountsCellAccesses) {
  ContextQueryTree cache = MakeCache();
  ContextState s = State(*env_, {"Plaka", "warm", "friends"});
  cache.Put(s, 1, {{1, 0.5}});
  AccessCounter counter;
  cache.Lookup(s, 1, &counter);
  EXPECT_EQ(counter.cells(), 1u);  // One hash-map probe per lookup.
}

TEST_F(QueryCacheTest, RankCSWithStateCacheMatchesUncachedAndHits) {
  Profile profile(env_);
  ASSERT_OK(profile.Insert(
      Pref(*env_, "temperature = hot", "type", "park", 0.9)));
  ASSERT_OK(profile.Insert(
      Pref(*env_, "accompanying_people = friends", "type", "brewery", 0.7)));
  StatusOr<ProfileTree> tree = ProfileTree::Build(profile);
  ASSERT_OK(tree.status());
  TreeResolver resolver(&*tree);
  const FlatProfileTree flat = FlatProfileTree::Build(*tree);
  FlatResolver flat_resolver(&flat);
  ContextQueryTree cache = MakeCache(16);

  StatusOr<ExtendedDescriptor> ecod = ParseExtendedDescriptor(
      *env_,
      "location = Plaka and temperature = hot and "
      "accompanying_people = friends");
  ASSERT_OK(ecod.status());
  ContextualQuery q;
  q.context = *ecod;

  StatusOr<QueryResult> uncached = RankCS(poi_->relation, q, resolver);
  ASSERT_OK(uncached.status());

  // Cached answers (flat arena) against the pointer-tree oracle.
  StatusOr<QueryResult> first =
      RankCached(q, flat_resolver, profile.version(), cache);
  ASSERT_OK(first.status());
  EXPECT_EQ(first->tuples, uncached->tuples);
  EXPECT_EQ(cache.hits(), 0u);

  StatusOr<QueryResult> second =
      RankCached(q, flat_resolver, profile.version(), cache);
  ASSERT_OK(second.status());
  EXPECT_EQ(second->tuples, uncached->tuples);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST_F(QueryCacheTest, CacheHitProducesIdenticalTrace) {
  Profile profile(env_);
  ASSERT_OK(profile.Insert(
      Pref(*env_, "temperature = hot", "type", "park", 0.9)));
  ASSERT_OK(profile.Insert(
      Pref(*env_, "accompanying_people = friends", "type", "brewery", 0.7)));
  StatusOr<ProfileTree> tree = ProfileTree::Build(profile);
  ASSERT_OK(tree.status());
  const FlatProfileTree flat = FlatProfileTree::Build(*tree);
  FlatResolver resolver(&flat);
  ContextQueryTree cache = MakeCache(16);

  StatusOr<ExtendedDescriptor> ecod = ParseExtendedDescriptor(
      *env_, "temperature = hot and accompanying_people = friends");
  ASSERT_OK(ecod.status());
  ContextualQuery q;
  q.context = *ecod;

  StatusOr<QueryResult> miss =
      RankCached(q, resolver, profile.version(), cache);
  ASSERT_OK(miss.status());
  StatusOr<QueryResult> hit =
      RankCached(q, resolver, profile.version(), cache);
  ASSERT_OK(hit.status());
  EXPECT_GE(cache.hits(), 1u);

  // Resolution provenance must not be lost on the cached path.
  ASSERT_EQ(hit->traces.size(), miss->traces.size());
  for (size_t i = 0; i < miss->traces.size(); ++i) {
    EXPECT_EQ(hit->traces[i].query_state, miss->traces[i].query_state);
    ASSERT_EQ(hit->traces[i].candidates->size(),
              miss->traces[i].candidates->size());
    EXPECT_FALSE(miss->traces[i].candidates->empty())
        << "trace " << i << " resolved no candidates; test is vacuous";
    for (size_t c = 0; c < miss->traces[i].candidates->size(); ++c) {
      const CandidatePath& m = (*miss->traces[i].candidates)[c];
      const CandidatePath& h = (*hit->traces[i].candidates)[c];
      EXPECT_EQ(h.state, m.state);
      EXPECT_EQ(h.distance, m.distance);
      ASSERT_EQ(h.entries.size(), m.entries.size());
      for (size_t e = 0; e < m.entries.size(); ++e) {
        EXPECT_EQ(h.entries[e].clause, m.entries[e].clause);
        EXPECT_EQ(h.entries[e].score, m.entries[e].score);
      }
    }
  }
}

TEST_F(QueryCacheTest, RankCSWithStateCacheRespectsProfileVersion) {
  Profile profile(env_);
  ASSERT_OK(profile.Insert(
      Pref(*env_, "temperature = hot", "type", "park", 0.9)));
  StatusOr<ProfileTree> tree = ProfileTree::Build(profile);
  ASSERT_OK(tree.status());
  const FlatProfileTree flat = FlatProfileTree::Build(*tree);
  FlatResolver resolver(&flat);
  ContextQueryTree cache = MakeCache(16);

  StatusOr<ExtendedDescriptor> ecod =
      ParseExtendedDescriptor(*env_, "temperature = hot");
  ContextualQuery q;
  q.context = *ecod;

  ASSERT_OK(RankCached(q, resolver, profile.version(), cache).status());
  // Mutate the profile: the cached state is now stale.
  ASSERT_OK(profile.Insert(
      Pref(*env_, "temperature = hot", "type", "museum", 0.8)));
  StatusOr<ProfileTree> tree2 = ProfileTree::Build(profile);
  ASSERT_OK(tree2.status());
  const FlatProfileTree flat2 = FlatProfileTree::Build(*tree2);
  FlatResolver resolver2(&flat2);
  StatusOr<QueryResult> fresh =
      RankCached(q, resolver2, profile.version(), cache);
  ASSERT_OK(fresh.status());
  // The new museum preference must show up (stale entry not served).
  const size_t type_col = *poi_->relation.schema().IndexOf("type");
  bool saw_museum = false;
  for (const db::ScoredTuple& t : fresh->tuples) {
    saw_museum |=
        poi_->relation.row(t.row_id)[type_col].AsString() == "museum";
  }
  EXPECT_TRUE(saw_museum);
  // The version-1 entry missed and was overwritten in place by the
  // version-2 recompute; nothing was invalidated.
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.invalidations(), 0u);
}

TEST_F(QueryCacheTest, RankCSWithStateCacheAppliesSelectionsPostCache) {
  Profile profile(env_);
  ASSERT_OK(profile.Insert(Pref(*env_, "*", "type", "park", 0.9)));
  StatusOr<ProfileTree> tree = ProfileTree::Build(profile);
  ASSERT_OK(tree.status());
  const FlatProfileTree flat = FlatProfileTree::Build(*tree);
  FlatResolver resolver(&flat);
  ContextQueryTree cache = MakeCache(16);

  StatusOr<ExtendedDescriptor> ecod =
      ParseExtendedDescriptor(*env_, "temperature = hot");
  ContextualQuery unrestricted;
  unrestricted.context = *ecod;
  ASSERT_OK(RankCached(unrestricted, resolver, profile.version(), cache)
                .status());

  // Same context state, now with a selection: served from cache but
  // filtered.
  ContextualQuery restricted = unrestricted;
  StatusOr<db::Predicate> sel = db::Predicate::Create(
      poi_->relation.schema(), "location", db::CompareOp::kEq,
      db::Value("Plaka"));
  ASSERT_OK(sel.status());
  restricted.selections.push_back(*sel);
  StatusOr<QueryResult> result =
      RankCached(restricted, resolver, profile.version(), cache);
  ASSERT_OK(result.status());
  EXPECT_GE(cache.hits(), 1u);
  const size_t loc_col = *poi_->relation.schema().IndexOf("location");
  for (const db::ScoredTuple& t : result->tuples) {
    EXPECT_EQ(poi_->relation.row(t.row_id)[loc_col].AsString(), "Plaka");
  }
}

TEST_F(QueryCacheTest, RankCSWithStateCacheRejectsNonAssociativePolicies) {
  Profile profile(env_);
  StatusOr<ProfileTree> tree = ProfileTree::Build(profile);
  ASSERT_OK(tree.status());
  const FlatProfileTree flat = FlatProfileTree::Build(*tree);
  FlatResolver resolver(&flat);
  ContextQueryTree cache = MakeCache();
  ContextualQuery q;
  QueryOptions options;
  options.combine = db::CombinePolicy::kAvg;
  EXPECT_TRUE(RankCached(q, resolver, profile.version(), cache, options)
                  .status()
                  .IsInvalidArgument());
}

/// Eight enumerated states: the cached flat answer equals uncached
/// `RankCS` over the pointer tree, cold and warm, with identical
/// traces.
TEST_F(QueryCacheTest, EightStateRankCSWithStateCacheMatchesTreeOracle) {
  Profile profile(env_);
  ASSERT_OK(profile.Insert(
      Pref(*env_, "temperature = hot", "type", "park", 0.9)));
  ASSERT_OK(profile.Insert(
      Pref(*env_, "accompanying_people = friends", "type", "brewery", 0.7)));
  ASSERT_OK(profile.Insert(
      Pref(*env_, "location = Plaka", "type", "museum", 0.8)));
  StatusOr<ProfileTree> tree = ProfileTree::Build(profile);
  ASSERT_OK(tree.status());
  const FlatProfileTree flat = FlatProfileTree::Build(*tree);
  FlatResolver resolver(&flat);

  StatusOr<ExtendedDescriptor> ecod = ParseExtendedDescriptor(
      *env_,
      "location in {Plaka, Kifisia} and temperature in {hot, warm} and "
      "accompanying_people in {friends, family}");
  ASSERT_OK(ecod.status());
  ContextualQuery q;
  q.context = *ecod;

  StatusOr<QueryResult> oracle =
      RankCS(poi_->relation, q, TreeResolver(&*tree));
  ASSERT_OK(oracle.status());
  ASSERT_EQ(oracle->traces.size(), 8u);

  ContextQueryTree cache = MakeCache(64);
  for (const char* pass : {"cold", "warm"}) {
    SCOPED_TRACE(pass);
    StatusOr<QueryResult> cached =
        RankCached(q, resolver, profile.version(), cache);
    ASSERT_OK(cached.status());
    EXPECT_EQ(cached->tuples, oracle->tuples);
    ASSERT_EQ(cached->traces.size(), oracle->traces.size());
    for (size_t i = 0; i < oracle->traces.size(); ++i) {
      EXPECT_EQ(cached->traces[i].query_state, oracle->traces[i].query_state);
      ASSERT_EQ(cached->traces[i].candidates->size(),
                oracle->traces[i].candidates->size());
      for (size_t c = 0; c < oracle->traces[i].candidates->size(); ++c) {
        EXPECT_EQ((*cached->traces[i].candidates)[c].state,
                  (*oracle->traces[i].candidates)[c].state);
        EXPECT_EQ((*cached->traces[i].candidates)[c].distance,
                  (*oracle->traces[i].candidates)[c].distance);
      }
    }
  }
  EXPECT_EQ(cache.hits(), 8u);  // The warm pass hit every state.
}

/// Like `RankCS`, the per-state loop returns at the first state that
/// fails: the second state is never looked up.
TEST_F(QueryCacheTest, RankCSWithStateCacheStopsAtFirstFailingState) {
  Profile profile(env_);
  ASSERT_OK(profile.Insert(
      Pref(*env_, "location = Plaka", "no_such_attribute", "x", 0.9)));
  StatusOr<ProfileTree> tree = ProfileTree::Build(profile);
  ASSERT_OK(tree.status());
  const FlatProfileTree flat = FlatProfileTree::Build(*tree);
  FlatResolver resolver(&flat);
  StatusOr<ExtendedDescriptor> ecod = ParseExtendedDescriptor(
      *env_, "location = Plaka or location = Kifisia");
  ASSERT_OK(ecod.status());
  ContextualQuery q;
  q.context = *ecod;

  ContextQueryTree cache = MakeCache();
  StatusOr<QueryResult> result =
      RankCached(q, resolver, profile.version(), cache);
  EXPECT_TRUE(result.status().IsNotFound()) << result.status().ToString();
  EXPECT_EQ(cache.Stats().lookups, 1u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST_F(QueryCacheTest, RankCSWithStateCacheExpiredDeadlineEvaluatesNoState) {
  Profile profile(env_);
  ASSERT_OK(profile.Insert(
      Pref(*env_, "location = Plaka", "type", "museum", 0.8)));
  StatusOr<ProfileTree> tree = ProfileTree::Build(profile);
  ASSERT_OK(tree.status());
  const FlatProfileTree flat = FlatProfileTree::Build(*tree);
  FlatResolver resolver(&flat);
  StatusOr<ExtendedDescriptor> ecod = ParseExtendedDescriptor(
      *env_, "location = Plaka or location = Kifisia");
  ASSERT_OK(ecod.status());
  ContextualQuery q;
  q.context = *ecod;

  util::FakeClock clock;
  QueryOptions options;
  options.deadline = util::Deadline::AfterMicros(0, &clock);
  ContextQueryTree cache = MakeCache();
  StatusOr<QueryResult> result =
      RankCached(q, resolver, profile.version(), cache, options);
  ASSERT_TRUE(result.status().IsDeadlineExceeded())
      << result.status().ToString();
  EXPECT_NE(result.status().message().find("after 0/2 states"),
            std::string::npos)
      << result.status().ToString();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Stats().lookups, 0u);
}

/// A deadline that expires while a missed state resolves aborts before
/// that state's list is built: the status reports the states completed
/// before it, and the state is neither merged nor cached (its lookup
/// missed and no entry was put). The states before it stay cached.
TEST_F(QueryCacheTest, DeadlineAfterMissResolutionCachesNothingForThatState) {
  Profile profile(env_);
  ASSERT_OK(profile.Insert(
      Pref(*env_, "location = Plaka", "type", "museum", 0.8)));
  StatusOr<ProfileTree> tree = ProfileTree::Build(profile);
  ASSERT_OK(tree.status());
  const FlatProfileTree flat = FlatProfileTree::Build(*tree);
  FlatResolver flat_resolver(&flat);
  StatusOr<ExtendedDescriptor> ecod = ParseExtendedDescriptor(
      *env_, "location = Plaka or location = Kifisia");
  ASSERT_OK(ecod.status());
  ContextualQuery q;
  q.context = *ecod;
  const std::vector<ContextState> states = q.context.EnumerateStates(*env_);
  ASSERT_EQ(states.size(), 2u);

  for (size_t expire_in : {size_t{0}, size_t{1}}) {
    SCOPED_TRACE(expire_in);
    util::FakeClock clock;
    QueryOptions options;
    options.deadline = util::Deadline::AfterMicros(10, &clock);
    // Resolution of state `expire_in` uses up the budget.
    size_t resolved = 0;
    ResolveFn resolve = [&](const ContextState& s,
                            const ResolutionOptions& opts, AccessCounter* c) {
      if (resolved++ == expire_in) clock.Advance(20);
      return flat_resolver.ResolveBest(s, opts, c);
    };
    ContextQueryTree cache = MakeCache();
    const StateCache state_cache{&cache, &user_, profile.version()};
    StatusOr<QueryResult> result = RankCS(poi_->relation, q, *env_, resolve,
                                          options, nullptr, &state_cache);
    ASSERT_TRUE(result.status().IsDeadlineExceeded())
        << result.status().ToString();
    EXPECT_NE(result.status().message().find(
                  "after " + std::to_string(expire_in) + "/2 states"),
              std::string::npos)
        << result.status().ToString();
    EXPECT_EQ(resolved, expire_in + 1);
    const CacheStats stats = cache.Stats();
    EXPECT_EQ(stats.lookups, expire_in + 1);
    EXPECT_EQ(stats.misses, expire_in + 1);
    EXPECT_EQ(stats.size, expire_in) << "the aborted state was put";
    EXPECT_EQ(cache.Lookup(states[expire_in], profile.version()), nullptr);
  }
}

/// The cache is a step of the one Rank_CS loop, whatever resolves the
/// states: through the `ResolveFn` overload, a cached `RankCS` over the
/// pointer tree and over the sequential store answers every pass —
/// misses, then hits — with the tuples and traces of a cached `RankCS`
/// over the flat arena.
TEST_F(QueryCacheTest, CachedQueryMatchesAcrossResolvers) {
  Profile profile(env_);
  ASSERT_OK(profile.Insert(
      Pref(*env_, "temperature = hot", "type", "park", 0.9)));
  ASSERT_OK(profile.Insert(
      Pref(*env_, "accompanying_people = friends", "type", "brewery", 0.7)));
  ASSERT_OK(profile.Insert(
      Pref(*env_, "location = Plaka", "type", "museum", 0.8)));
  ASSERT_OK(profile.Insert(Pref(*env_, "*", "type", "theater", 0.4)));
  StatusOr<ProfileTree> tree = ProfileTree::Build(profile);
  ASSERT_OK(tree.status());
  TreeResolver tree_resolver(&*tree);
  const FlatProfileTree flat = FlatProfileTree::Build(*tree);
  FlatResolver flat_resolver(&flat);
  const SequentialStore store = SequentialStore::Build(profile);

  StatusOr<ExtendedDescriptor> ecod = ParseExtendedDescriptor(
      *env_,
      "location in {Plaka, Kifisia} and temperature in {hot, warm} and "
      "accompanying_people in {friends, family}");
  ASSERT_OK(ecod.status());
  ContextualQuery q;
  q.context = *ecod;
  QueryOptions options;
  options.top_k = 5;

  const std::vector<std::pair<const char*, ResolveFn>> backends = {
      {"tree",
       [&](const ContextState& s, const ResolutionOptions& opts,
           AccessCounter* c) { return tree_resolver.ResolveBest(s, opts, c); }},
      {"sequential",
       [&](const ContextState& s, const ResolutionOptions& opts,
           AccessCounter* c) { return store.ResolveBest(s, opts, c); }},
  };
  ContextQueryTree flat_cache = MakeCache();
  for (const char* pass : {"miss", "hit"}) {
    StatusOr<QueryResult> want =
        RankCached(q, flat_resolver, profile.version(), flat_cache, options);
    ASSERT_OK(want.status());
    ASSERT_EQ(want->traces.size(), 8u);
    ASSERT_FALSE(want->tuples.empty());
    for (const auto& [name, resolve] : backends) {
      SCOPED_TRACE(std::string(pass) + " " + name);
      // Each backend has its own tree, filled by its first pass.
      ContextQueryTree cache = MakeCache();
      const StateCache state_cache{&cache, &user_, profile.version()};
      for (int run = 0; run < 2; ++run) {
        StatusOr<QueryResult> got = RankCS(poi_->relation, q, *env_, resolve,
                                           options, nullptr, &state_cache);
        ASSERT_OK(got.status());
        EXPECT_EQ(got->tuples, want->tuples);
        ASSERT_EQ(got->traces.size(), want->traces.size());
        for (size_t i = 0; i < want->traces.size(); ++i) {
          const QueryResult::Trace& w = want->traces[i];
          const QueryResult::Trace& g = got->traces[i];
          EXPECT_EQ(g.query_state, w.query_state);
          ASSERT_EQ(g.candidates->size(), w.candidates->size());
          for (size_t c = 0; c < w.candidates->size(); ++c) {
            const CandidatePath& wc = (*w.candidates)[c];
            const CandidatePath& gc = (*g.candidates)[c];
            EXPECT_EQ(gc.state, wc.state);
            EXPECT_EQ(gc.distance, wc.distance);
            ASSERT_EQ(gc.entries.size(), wc.entries.size());
            for (size_t e = 0; e < wc.entries.size(); ++e) {
              EXPECT_EQ(gc.entries[e].clause, wc.entries[e].clause);
              EXPECT_EQ(gc.entries[e].score, wc.entries[e].score);
            }
          }
        }
      }
      EXPECT_EQ(cache.hits(), 8u) << "the second run hit every state";
    }
  }
  EXPECT_EQ(flat_cache.hits(), 8u);
}

}  // namespace
}  // namespace ctxpref
