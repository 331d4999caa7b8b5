// Differential oracle tests (ISSUE 5): on random small worlds,
//  (1) Rank_CS (through the profile tree) must equal a brute-force
//      ranker computed from first principles — covering states by
//      Def. 10, minimum-distance matching by Def. 12 with the
//      NearlyEqual tie rule, clause selection over the relation,
//      max-combine — for EVERY extended state of the world, both
//      distance kinds;
//  (2) cached answers served through the copy-on-write store must
//      equal uncached answers across interleaved profile swaps.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "context/descriptor.h"
#include "db/relation.h"
#include "db/schema.h"
#include "preference/flat_profile_tree.h"
#include "preference/profile_tree.h"
#include "preference/query_cache.h"
#include "preference/replicated_query_cache.h"
#include "preference/resolution.h"
#include "storage/profile_store.h"
#include "storage/serving.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace ctxpref {
namespace {

/// A tiny two-parameter environment (the exhaustive-test world):
///   place: a,b,c | X(a,b), Y(c) | ALL      (6 extended values)
///   mood:  happy,sad | ALL                  (3 extended values)
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

/// Every extended state of the two-parameter environment.
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

/// "v<k>", built with += because GCC 12's -Wrestrict misfires on
/// `literal + std::to_string(...)` at -O2 (breaks -Werror CI builds).
std::string ValueName(size_t k) {
  std::string v("v");
  v += std::to_string(k);
  return v;
}

/// A ten-row relation with one string attribute v0..v9, so every
/// clause `attr = v<k>` selects exactly row k.
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

/// A random conflict-free profile: a subset of world states carries a
/// preference `attr = v<k> : <grid score>`.
Profile RandomProfile(Rng& rng, EnvironmentPtr env,
                      const std::vector<ContextState>& world) {
  Profile profile(env);
  for (const ContextState& s : world) {
    if (!rng.Bernoulli(0.4)) continue;
    StatusOr<CompositeDescriptor> cod = CompositeDescriptor::ForState(*env, s);
    EXPECT_TRUE(cod.ok());
    StatusOr<ContextualPreference> pref = ContextualPreference::Create(
        std::move(*cod),
        AttributeClause{
            "attr", db::CompareOp::kEq,
            db::Value(ValueName(rng.Uniform(kAttrPool)))},
        static_cast<double>(rng.Uniform(21)) * 0.05);
    EXPECT_TRUE(pref.ok());
    EXPECT_OK(profile.Insert(std::move(*pref)));
  }
  return profile;
}

/// Brute-force Rank_CS from the formal definitions, no tree, no cache:
/// per query state, the minimum-distance covering states (NearlyEqual
/// ties kept, exactly the resolution rule) contribute their entries'
/// selected rows at their scores; duplicates combine under max.
std::map<db::RowId, double> BruteForceRank(
    const Profile& profile, const db::Relation& relation,
    const std::vector<ContextState>& query_states, DistanceKind kind) {
  std::map<db::RowId, double> scores;
  const std::vector<Profile::FlatEntry> flat = profile.Flatten();
  for (const ContextState& q : query_states) {
    const std::vector<ContextState> covering = CoveringStates(profile, q);
    if (covering.empty()) continue;
    double min_distance = std::numeric_limits<double>::infinity();
    for (const ContextState& s : covering) {
      min_distance =
          std::min(min_distance, StateDistance(kind, profile.env(), s, q));
    }
    std::vector<ContextState> tied;
    for (const ContextState& s : covering) {
      const double d = StateDistance(kind, profile.env(), s, q);
      if (NearlyEqual(d, min_distance)) tied.push_back(s);
    }
    // Jaccard ties are broken by hierarchy distance, mirroring
    // TieBreakByHierarchyDistance in the resolver.
    if (kind == DistanceKind::kJaccard && tied.size() > 1) {
      double best_h = std::numeric_limits<double>::infinity();
      for (const ContextState& s : tied) {
        best_h = std::min(
            best_h, StateDistance(DistanceKind::kHierarchy, profile.env(), s, q));
      }
      std::vector<ContextState> kept;
      for (const ContextState& s : tied) {
        if (NearlyEqual(StateDistance(DistanceKind::kHierarchy, profile.env(),
                                      s, q),
                        best_h)) {
          kept.push_back(s);
        }
      }
      tied = std::move(kept);
    }
    for (const ContextState& s : tied) {
      for (const Profile::FlatEntry& e : flat) {
        if (!(e.state == s)) continue;
        StatusOr<db::Predicate> pred = db::Predicate::Create(
            relation.schema(), e.clause->attribute, e.clause->op,
            e.clause->value);
        EXPECT_TRUE(pred.ok());
        // A plain Eval loop, independent of the relation's selection
        // path under test.
        for (db::RowId row = 0; row < relation.size(); ++row) {
          if (!pred->Eval(relation.row(row))) continue;
          auto [it, inserted] = scores.try_emplace(row, e.score);
          if (!inserted) it->second = std::max(it->second, e.score);
        }
      }
    }
  }
  return scores;
}

std::map<db::RowId, double> AsMap(const QueryResult& result) {
  std::map<db::RowId, double> scores;
  for (const db::ScoredTuple& t : result.tuples) {
    scores.emplace(t.row_id, t.score);
  }
  return scores;
}

class ServingDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ServingDifferentialTest, RankCsMatchesBruteForceOverAllStates) {
  EnvironmentPtr env = TinyEnv();
  const std::vector<ContextState> world = AllExtendedStates(*env);
  const db::Relation relation = MakeRelation();
  Rng rng(GetParam());
  Profile profile = RandomProfile(rng, env, world);
  if (profile.empty()) GTEST_SKIP() << "empty draw";

  StatusOr<ProfileTree> tree = ProfileTree::Build(profile);
  ASSERT_OK(tree.status());
  TreeResolver resolver(&*tree);

  for (DistanceKind kind :
       {DistanceKind::kHierarchy, DistanceKind::kJaccard}) {
    QueryOptions options;
    options.resolution.distance = kind;
    // (a) Every single extended state as the query context.
    for (const ContextState& q : world) {
      StatusOr<CompositeDescriptor> cod =
          CompositeDescriptor::ForState(*env, q);
      ASSERT_OK(cod.status());
      ContextualQuery query;
      query.context = ExtendedDescriptor::FromComposite(std::move(*cod));
      StatusOr<QueryResult> got = RankCS(relation, query, resolver, options);
      ASSERT_OK(got.status());
      EXPECT_EQ(AsMap(*got), BruteForceRank(profile, relation, {q}, kind))
          << "state " << q.ToString(*env) << " kind "
          << DistanceKindToString(kind);
    }
    // (b) Random multi-state extended descriptors (disjunctions).
    for (int trial = 0; trial < 10; ++trial) {
      std::vector<ContextState> states;
      ExtendedDescriptor ecod;
      const size_t disjuncts = 1 + rng.Uniform(3);
      for (size_t d = 0; d < disjuncts; ++d) {
        const ContextState& s = world[rng.Uniform(world.size())];
        StatusOr<CompositeDescriptor> cod =
            CompositeDescriptor::ForState(*env, s);
        ASSERT_OK(cod.status());
        ecod.AddDisjunct(std::move(*cod));
      }
      ContextualQuery query;
      query.context = ecod;
      // The oracle iterates the deduplicated enumeration, like Rank_CS.
      const std::vector<ContextState> enumerated =
          ecod.EnumerateStates(*env);
      StatusOr<QueryResult> got = RankCS(relation, query, resolver, options);
      ASSERT_OK(got.status());
      EXPECT_EQ(AsMap(*got),
                BruteForceRank(profile, relation, enumerated, kind))
          << "trial " << trial << " kind " << DistanceKindToString(kind);
    }
  }
}

TEST_P(ServingDifferentialTest, CachedEqualsUncachedAcrossProfileSwaps) {
  EnvironmentPtr env = TinyEnv();
  const std::vector<ContextState> world = AllExtendedStates(*env);
  const db::Relation relation = MakeRelation();
  Rng rng(GetParam());

  storage::ProfileStore store(env);
  ContextQueryTree cache(env, Ordering::Identity(env->size()),
                         /*capacity=*/64);
  store.AttachQueryCache(&cache);
  ASSERT_OK(store.CreateUser("u", RandomProfile(rng, env, world)));

  for (int swap = 0; swap < 12; ++swap) {
    // Interleave: queries against the current version…
    for (int trial = 0; trial < 8; ++trial) {
      const ContextState& s = world[rng.Uniform(world.size())];
      StatusOr<CompositeDescriptor> cod =
          CompositeDescriptor::ForState(*env, s);
      ASSERT_OK(cod.status());
      ContextualQuery query;
      query.context = ExtendedDescriptor::FromComposite(std::move(*cod));

      // Uncached ground truth from the same pinned snapshot.
      StatusOr<storage::SnapshotPtr> snapshot = store.GetSnapshot("u");
      ASSERT_OK(snapshot.status());
      StatusOr<QueryResult> uncached =
          storage::ServeQuery(**snapshot, relation, query, /*cache=*/nullptr);
      ASSERT_OK(uncached.status());

      // Twice through the cache: a cold miss, then a hit.
      for (int pass = 0; pass < 2; ++pass) {
        StatusOr<QueryResult> cached =
            storage::ServeQuery(**snapshot, relation, query, &cache);
        ASSERT_OK(cached.status());
        EXPECT_EQ(cached->tuples, uncached->tuples)
            << "swap " << swap << " trial " << trial << " pass " << pass;
        ASSERT_EQ(cached->traces.size(), uncached->traces.size());
        for (size_t i = 0; i < cached->traces.size(); ++i) {
          EXPECT_EQ(cached->traces[i].candidates.size(),
                    uncached->traces[i].candidates.size());
        }
      }
      // And against the brute-force oracle, closing the loop.
      EXPECT_EQ(AsMap(*uncached),
                BruteForceRank((*snapshot)->profile(), relation, {s},
                               DistanceKind::kHierarchy));
    }
    // …then a swap to a fresh random profile.
    ASSERT_OK(store.PublishProfile("u", RandomProfile(rng, env, world)));
  }
}

// ---- Flat-vs-pointer differential (ISSUE 7) ------------------------
//
// The arena-flattened tree is a pure layout change, so it must be
// *bit-identical* to the pointer tree: the same Search_CS candidate
// list (same order, same exact double distances, same entries) and the
// same ResolveBest winners, for every query state, both distance
// kinds, exact and non-exact resolution. Bit-exact distance equality
// (not NearlyEqual) is deliberate — it flushes accumulation-order
// drift, the class of bug where both sides are "correct" in isolation
// but disagree on which candidates tie.

void ExpectSameCandidates(const ContextEnvironment& env,
                          const std::vector<CandidatePath>& pointer,
                          const std::vector<CandidatePath>& flat,
                          const std::string& label) {
  ASSERT_EQ(pointer.size(), flat.size()) << label;
  for (size_t i = 0; i < pointer.size(); ++i) {
    EXPECT_TRUE(pointer[i].state == flat[i].state)
        << label << " candidate " << i << ": "
        << pointer[i].state.ToString(env) << " vs "
        << flat[i].state.ToString(env);
    EXPECT_EQ(pointer[i].distance, flat[i].distance)
        << label << " candidate " << i << " ("
        << pointer[i].state.ToString(env) << "): distances not bit-equal";
    ASSERT_EQ(pointer[i].entries.size(), flat[i].entries.size())
        << label << " candidate " << i;
    for (size_t j = 0; j < pointer[i].entries.size(); ++j) {
      EXPECT_TRUE(pointer[i].entries[j].clause == flat[i].entries[j].clause)
          << label << " candidate " << i << " entry " << j;
      EXPECT_EQ(pointer[i].entries[j].score, flat[i].entries[j].score)
          << label << " candidate " << i << " entry " << j;
      EXPECT_EQ(pointer[i].entries[j].ref, flat[i].entries[j].ref)
          << label << " candidate " << i << " entry " << j;
    }
  }
}

TEST_P(ServingDifferentialTest, FlatTreeMatchesPointerTreeExhaustively) {
  EnvironmentPtr env = TinyEnv();
  const std::vector<ContextState> world = AllExtendedStates(*env);
  Rng rng(GetParam() + 17);
  Profile profile = RandomProfile(rng, env, world);
  if (profile.empty()) GTEST_SKIP() << "empty draw";

  StatusOr<ProfileTree> tree = ProfileTree::Build(profile);
  ASSERT_OK(tree.status());
  const FlatProfileTree flat = FlatProfileTree::Build(*tree);
  TreeResolver pointer_resolver(&*tree);
  FlatResolver flat_resolver(&flat);
  const db::Relation relation = MakeRelation();

  for (DistanceKind kind :
       {DistanceKind::kHierarchy, DistanceKind::kJaccard}) {
    for (bool exact_only : {false, true}) {
      ResolutionOptions ropts;
      ropts.distance = kind;
      ropts.exact_only = exact_only;
      for (const ContextState& q : world) {
        std::string label = q.ToString(*env);
        label += exact_only ? " exact " : " cover ";
        label += DistanceKindToString(kind);
        ExpectSameCandidates(*env, pointer_resolver.SearchCS(q, ropts),
                             flat_resolver.SearchCS(q, ropts),
                             label + " search");
        ExpectSameCandidates(*env, pointer_resolver.ResolveBest(q, ropts),
                             flat_resolver.ResolveBest(q, ropts),
                             label + " best");
        EXPECT_EQ(flat.ExactLookup(q) != FlatProfileTree::kNoLeaf,
                  !pointer_resolver.SearchCS(
                                       q, {.distance = kind,
                                           .exact_only = true})
                       .empty())
            << label << " exact-lookup presence";
      }
    }
    // Full Rank_CS, pointer vs flat: layout swapped, answers still
    // identical.
    QueryOptions options;
    options.resolution.distance = kind;
    for (const ContextState& q : world) {
      StatusOr<CompositeDescriptor> cod =
          CompositeDescriptor::ForState(*env, q);
      ASSERT_OK(cod.status());
      ContextualQuery query;
      query.context = ExtendedDescriptor::FromComposite(std::move(*cod));
      StatusOr<QueryResult> via_pointer =
          RankCS(relation, query, pointer_resolver, options);
      StatusOr<QueryResult> via_flat =
          RankCS(relation, query, flat_resolver, options);
      ASSERT_OK(via_pointer.status());
      ASSERT_OK(via_flat.status());
      EXPECT_EQ(via_pointer->tuples, via_flat->tuples)
          << q.ToString(*env) << " kind " << DistanceKindToString(kind);
      ASSERT_EQ(via_pointer->traces.size(), via_flat->traces.size());
      for (size_t i = 0; i < via_pointer->traces.size(); ++i) {
        ExpectSameCandidates(*env, via_pointer->traces[i].candidates,
                             via_flat->traces[i].candidates,
                             q.ToString(*env) + " trace");
      }
    }
  }
}

TEST_P(ServingDifferentialTest, FlatTreeMatchesPointerTreeOnPaperEnv) {
  // The paper's three-parameter environment: deeper hierarchies, so
  // descent covers more levels and interning covers bigger domains
  // than TinyEnv exercises.
  EnvironmentPtr env = ctxpref::testing::PaperEnv();
  Rng rng(GetParam() + 31);
  auto random_state = [&rng, &env]() {
    std::vector<ValueRef> values;
    for (size_t p = 0; p < env->size(); ++p) {
      const Hierarchy& h = env->parameter(p).hierarchy();
      const auto level = static_cast<LevelIndex>(rng.Uniform(h.num_levels()));
      values.push_back(ValueRef{
          level, static_cast<ValueId>(rng.Uniform(h.level_size(level)))});
    }
    return ContextState(std::move(values));
  };

  Profile profile(env);
  std::set<std::string> seen;
  for (int i = 0; i < 48; ++i) {
    ContextState s = random_state();
    if (!seen.insert(s.ToString(*env)).second) continue;
    StatusOr<CompositeDescriptor> cod = CompositeDescriptor::ForState(*env, s);
    ASSERT_OK(cod.status());
    StatusOr<ContextualPreference> pref = ContextualPreference::Create(
        std::move(*cod),
        AttributeClause{"attr", db::CompareOp::kEq,
                        db::Value(ValueName(rng.Uniform(kAttrPool)))},
        static_cast<double>(rng.Uniform(21)) * 0.05);
    ASSERT_OK(pref.status());
    ASSERT_OK(profile.Insert(std::move(*pref)));
  }
  ASSERT_FALSE(profile.empty());

  StatusOr<ProfileTree> tree = ProfileTree::Build(profile);
  ASSERT_OK(tree.status());
  const FlatProfileTree flat = FlatProfileTree::Build(*tree);
  TreeResolver pointer_resolver(&*tree);
  FlatResolver flat_resolver(&flat);

  for (DistanceKind kind :
       {DistanceKind::kHierarchy, DistanceKind::kJaccard}) {
    for (bool exact_only : {false, true}) {
      ResolutionOptions ropts;
      ropts.distance = kind;
      ropts.exact_only = exact_only;
      for (int trial = 0; trial < 200; ++trial) {
        const ContextState q = random_state();
        std::string label = q.ToString(*env);
        label += exact_only ? " exact " : " cover ";
        label += DistanceKindToString(kind);
        ExpectSameCandidates(*env, pointer_resolver.SearchCS(q, ropts),
                             flat_resolver.SearchCS(q, ropts),
                             label + " search");
        ExpectSameCandidates(*env, pointer_resolver.ResolveBest(q, ropts),
                             flat_resolver.ResolveBest(q, ropts),
                             label + " best");
      }
    }
  }
}

// ---- Stale-rung differential (ISSUE 8) -----------------------------
//
// The degradation ladder's bounded-staleness rung promises its answer
// is exactly what a direct ServeQuery pinned at the older snapshot
// would have produced — same tuples, same traces, bit-identical
// scores. Anything weaker would mean the rung's cache-merge path is a
// second ranking implementation that can drift from the real one.

TEST_P(ServingDifferentialTest, StaleAnswersMatchDirectServeAtPinnedVersion) {
  EnvironmentPtr env = TinyEnv();
  const std::vector<ContextState> world = AllExtendedStates(*env);
  const db::Relation relation = MakeRelation();
  Rng rng(GetParam() + 53);

  storage::ProfileStore store(env);
  ContextQueryTree cache(env, Ordering::Identity(env->size()),
                         /*capacity=*/256);
  cache.SetRetainStale(true);
  store.AttachQueryCache(&cache);
  Profile initial = RandomProfile(rng, env, world);
  if (initial.empty()) GTEST_SKIP() << "empty draw";
  ASSERT_OK(store.CreateUser("u", std::move(initial)));

  storage::AdmissionController shed_all(
      storage::AdmissionPolicy{.max_in_flight = 0});

  for (int round = 0; round < 10; ++round) {
    // Warm the cache with a random multi-state query at the current
    // version, keeping that answer's snapshot pinned.
    ExtendedDescriptor ecod;
    const size_t disjuncts = 1 + rng.Uniform(3);
    for (size_t d = 0; d < disjuncts; ++d) {
      StatusOr<CompositeDescriptor> cod = CompositeDescriptor::ForState(
          *env, world[rng.Uniform(world.size())]);
      ASSERT_OK(cod.status());
      ecod.AddDisjunct(std::move(*cod));
    }
    ContextualQuery query;
    query.context = ecod;

    StatusOr<storage::ServedQuery> warm =
        storage::ServeQueryResilient(store, "u", relation, query, &cache);
    ASSERT_OK(warm.status());
    ASSERT_EQ(warm->provenance.via, storage::ServedVia::kFresh);
    const storage::SnapshotPtr pinned = warm->snapshot;

    // Publish a different random profile, then shed the same query: the
    // stale rung serves the retained entries at the pinned version.
    ASSERT_OK(store.PublishProfile("u", RandomProfile(rng, env, world)));
    storage::ServeOptions opts;
    opts.admission = &shed_all;
    StatusOr<storage::ServedQuery> stale =
        storage::ServeQueryResilient(store, "u", relation, query, &cache, opts);
    ASSERT_OK(stale.status());
    ASSERT_EQ(stale->provenance.via, storage::ServedVia::kStale)
        << "round " << round;
    EXPECT_EQ(stale->provenance.served_version, pinned->serving_version());

    StatusOr<QueryResult> direct =
        storage::ServeQuery(*pinned, relation, query, /*cache=*/nullptr);
    ASSERT_OK(direct.status());
    EXPECT_EQ(stale->result.tuples, direct->tuples) << "round " << round;
    ASSERT_EQ(stale->result.traces.size(), direct->traces.size());
    for (size_t i = 0; i < stale->result.traces.size(); ++i) {
      ExpectSameCandidates(*env, direct->traces[i].candidates,
                           stale->result.traces[i].candidates,
                           "round " + std::to_string(round) + " trace");
    }
  }

  // Beyond the staleness window the rung refuses even a cached entry;
  // with truncation off too, the shed surfaces as kUnavailable.
  ContextualQuery query;
  StatusOr<CompositeDescriptor> cod =
      CompositeDescriptor::ForState(*env, world[0]);
  ASSERT_OK(cod.status());
  query.context = ExtendedDescriptor::FromComposite(std::move(*cod));
  ASSERT_OK(storage::ServeQueryResilient(store, "u", relation, query, &cache)
                .status());  // Warm world[0] at the current version…
  for (int i = 0; i < 3; ++i) {  // …then age it past the window below.
    ASSERT_OK(store.PublishProfile("u", RandomProfile(rng, env, world)));
  }
  storage::ServeOptions tight;
  tight.admission = &shed_all;
  tight.max_stale_versions = 2;
  tight.allow_truncated = false;
  StatusOr<storage::ServedQuery> off = storage::ServeQueryResilient(
      store, "u", relation, query, &cache, tight);
  ASSERT_FALSE(off.ok());
  EXPECT_TRUE(off.status().IsUnavailable()) << off.status().ToString();
}

// ---- Options sweep: score discount x combine x cache path ---------
//
// Cached per-state lists hold undiscounted scores and merge only under
// an associative combine, so every serving path must either answer
// exactly what RankCS answers — same rows, bit-identical scores — or
// refuse the options with InvalidArgument. Never a quietly different
// answer (cached kInverseDistance once served 0.70 where RankCS gave
// 0.35).

/// Bit-for-bit tuple equality (`==` on doubles would let -0.0 pass for
/// 0.0).
void ExpectBitEqual(const std::vector<db::ScoredTuple>& got,
                    const std::vector<db::ScoredTuple>& want,
                    const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].row_id, want[i].row_id) << label << " tuple " << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(got[i].score),
              std::bit_cast<uint64_t>(want[i].score))
        << label << " tuple " << i << ": " << got[i].score << " vs "
        << want[i].score;
  }
}

/// A random extended query of 1..3 world states.
ContextualQuery RandomMultiStateQuery(Rng& rng, const ContextEnvironment& env,
                                      const std::vector<ContextState>& world) {
  ExtendedDescriptor ecod;
  const size_t disjuncts = 1 + rng.Uniform(3);
  for (size_t d = 0; d < disjuncts; ++d) {
    StatusOr<CompositeDescriptor> cod =
        CompositeDescriptor::ForState(env, world[rng.Uniform(world.size())]);
    EXPECT_OK(cod.status());
    ecod.AddDisjunct(std::move(*cod));
  }
  ContextualQuery query;
  query.context = std::move(ecod);
  return query;
}

TEST_P(ServingDifferentialTest, DiscountCombineSweepMatchesRankCsOrRejects) {
  EnvironmentPtr env = TinyEnv();
  const std::vector<ContextState> world = AllExtendedStates(*env);
  const db::Relation relation = MakeRelation();
  Rng rng(GetParam() + 71);
  const Profile profile = RandomProfile(rng, env, world);
  if (profile.empty()) GTEST_SKIP() << "empty draw";

  size_t discounted_differs = 0;
  for (DistanceKind kind :
       {DistanceKind::kHierarchy, DistanceKind::kJaccard}) {
    for (ScoreDiscount discount :
         {ScoreDiscount::kNone, ScoreDiscount::kInverseDistance,
          ScoreDiscount::kExponential}) {
      for (db::CombinePolicy combine :
           {db::CombinePolicy::kMax, db::CombinePolicy::kMin,
            db::CombinePolicy::kAvg, db::CombinePolicy::kWeighted}) {
        QueryOptions options;
        options.resolution.distance = kind;
        options.discount = discount;
        options.combine = combine;
        const bool cacheable = CheckCacheableOptions(options).ok();
        EXPECT_EQ(cacheable, discount == ScoreDiscount::kNone &&
                                 (combine == db::CombinePolicy::kMax ||
                                  combine == db::CombinePolicy::kMin));

        // Fresh caches per options combination, so pass 0 misses and
        // pass 1 hits (InterleavedConfigsShareOneCacheExactly shares
        // one cache across combinations).
        storage::ProfileStore store(env);
        ContextQueryTree cache(env, Ordering::Identity(env->size()));
        ReplicatedQueryCache::Options ropt;
        ropt.num_replicas = 2;
        ropt.mode = ReplicatedQueryCache::ConsumeMode::kInlineAtLookup;
        ReplicatedQueryCache replicas(env, Ordering::Identity(env->size()),
                                      ropt);
        store.AttachCoherenceLog(&replicas.log());
        ASSERT_OK(store.CreateUser("u", profile));
        StatusOr<storage::SnapshotPtr> pin = store.GetSnapshot("u");
        ASSERT_OK(pin.status());
        const FlatResolver resolver((*pin)->flat_tree());

        for (int trial = 0; trial < 8; ++trial) {
          ContextualQuery query = RandomMultiStateQuery(rng, *env, world);
          options.top_k = rng.Bernoulli(0.5) ? 0 : 1 + rng.Uniform(4);
          std::string label = DistanceKindToString(kind);
          label += " ";
          label += ScoreDiscountToString(discount);
          label += " ";
          label += db::CombinePolicyToString(combine);
          label += " trial ";
          label += std::to_string(trial);

          StatusOr<QueryResult> oracle =
              RankCS(relation, query, resolver, options);
          ASSERT_OK(oracle.status());
          if (discount != ScoreDiscount::kNone) {
            QueryOptions plain = options;
            plain.discount = ScoreDiscount::kNone;
            StatusOr<QueryResult> undiscounted =
                RankCS(relation, query, resolver, plain);
            ASSERT_OK(undiscounted.status());
            if (undiscounted->tuples != oracle->tuples) ++discounted_differs;
          }

          StatusOr<QueryResult> uncached = storage::ServeQuery(
              **pin, relation, query, /*cache=*/nullptr, options);
          ASSERT_OK(uncached.status());
          ExpectBitEqual(uncached->tuples, oracle->tuples,
                         label + " uncached");

          // Miss pass, then hit pass, through each cache path.
          for (int pass = 0; pass < 2; ++pass) {
            const std::string pass_label =
                label + " pass " + std::to_string(pass);
            StatusOr<QueryResult> cached =
                storage::ServeQuery(**pin, relation, query, &cache, options);
            if (cacheable) {
              ASSERT_OK(cached.status());
              ExpectBitEqual(cached->tuples, oracle->tuples,
                             pass_label + " cached");
            } else {
              EXPECT_TRUE(cached.status().IsInvalidArgument())
                  << pass_label << " cached: " << cached.status().ToString();
            }
            for (size_t r = 0; r < replicas.num_replicas(); ++r) {
              const std::string replica_label =
                  pass_label + " replica " + std::to_string(r);
              StatusOr<storage::ServedQuery> replicated =
                  storage::ServeQueryReplicated(store, "u", relation, query,
                                                replicas, options, nullptr, r);
              if (cacheable) {
                ASSERT_OK(replicated.status());
                ExpectBitEqual(replicated->result.tuples, oracle->tuples,
                               replica_label);
              } else {
                EXPECT_TRUE(replicated.status().IsInvalidArgument())
                    << replica_label << ": "
                    << replicated.status().ToString();
              }
            }
          }
        }
      }
    }
  }
  // The sweep only means something if discounting changed answers.
  EXPECT_GT(discounted_differs, 0u);
}

// Cache entries are keyed (user, state, version); the combine policy
// and resolution options they were computed under ride along in the
// entry, and a lookup under other options misses. One shared cache and
// one replica serve queries that interleave kMax/kMin x hierarchy/
// Jaccard, every answer bit-equal to RankCS under its own options.
TEST_P(ServingDifferentialTest, InterleavedConfigsShareOneCacheExactly) {
  EnvironmentPtr env = TinyEnv();
  const std::vector<ContextState> world = AllExtendedStates(*env);
  const db::Relation relation = MakeRelation();
  Rng rng(GetParam() + 131);
  const Profile profile = RandomProfile(rng, env, world);
  if (profile.empty()) GTEST_SKIP() << "empty draw";

  storage::ProfileStore store(env);
  ContextQueryTree cache(env, Ordering::Identity(env->size()));
  ReplicatedQueryCache::Options ropt;
  ropt.num_replicas = 1;
  ropt.mode = ReplicatedQueryCache::ConsumeMode::kInlineAtLookup;
  ReplicatedQueryCache replicas(env, Ordering::Identity(env->size()), ropt);
  store.AttachCoherenceLog(&replicas.log());
  ASSERT_OK(store.CreateUser("u", profile));
  StatusOr<storage::SnapshotPtr> pin = store.GetSnapshot("u");
  ASSERT_OK(pin.status());
  const FlatResolver resolver((*pin)->flat_tree());

  std::vector<QueryOptions> configs;
  for (db::CombinePolicy combine :
       {db::CombinePolicy::kMax, db::CombinePolicy::kMin}) {
    for (DistanceKind kind :
         {DistanceKind::kHierarchy, DistanceKind::kJaccard}) {
      QueryOptions options;
      options.combine = combine;
      options.resolution.distance = kind;
      configs.push_back(options);
    }
  }
  size_t config_sensitive = 0;
  for (int trial = 0; trial < 24; ++trial) {
    const ContextualQuery query = RandomMultiStateQuery(rng, *env, world);
    std::vector<std::vector<db::ScoredTuple>> oracles;
    // Two rounds through every config: each lookup may find entries
    // that any config before it left for the same states.
    for (int round = 0; round < 2; ++round) {
      for (const QueryOptions& options : configs) {
        std::string label = db::CombinePolicyToString(options.combine);
        label += " ";
        label += DistanceKindToString(options.resolution.distance);
        label += " trial " + std::to_string(trial);
        label += " round " + std::to_string(round);
        StatusOr<QueryResult> oracle =
            RankCS(relation, query, resolver, options);
        ASSERT_OK(oracle.status());
        if (round == 0) oracles.push_back(oracle->tuples);
        StatusOr<QueryResult> cached =
            storage::ServeQuery(**pin, relation, query, &cache, options);
        ASSERT_OK(cached.status());
        ExpectBitEqual(cached->tuples, oracle->tuples, label + " shared");
        StatusOr<storage::ServedQuery> replicated =
            storage::ServeQueryReplicated(store, "u", relation, query,
                                          replicas, options, nullptr, 0);
        ASSERT_OK(replicated.status());
        ExpectBitEqual(replicated->result.tuples, oracle->tuples,
                       label + " replica");
      }
    }
    for (const std::vector<db::ScoredTuple>& answer : oracles) {
      if (answer != oracles.front()) {
        ++config_sensitive;
        break;
      }
    }
  }
  // The interleaving only tests something if the configs disagree.
  EXPECT_GT(config_sensitive, 0u);
}

// The stale rung reads the same entries: lists retained from a kMax /
// hierarchy query serve that configuration stale, never another one.
TEST_P(ServingDifferentialTest, StaleRungServesOnlyTheEntriesConfig) {
  EnvironmentPtr env = TinyEnv();
  const std::vector<ContextState> world = AllExtendedStates(*env);
  const db::Relation relation = MakeRelation();
  Rng rng(GetParam() + 151);

  storage::ProfileStore store(env);
  ContextQueryTree cache(env, Ordering::Identity(env->size()));
  cache.SetRetainStale(true);
  store.AttachQueryCache(&cache);
  ASSERT_OK(store.CreateUser("u", RandomProfile(rng, env, world)));
  StatusOr<storage::SnapshotPtr> old_pin = store.GetSnapshot("u");
  ASSERT_OK(old_pin.status());
  const ContextualQuery query = RandomMultiStateQuery(rng, *env, world);
  storage::ServeOptions opts;  // kMax, hierarchy distance.
  ASSERT_OK(storage::ServeQueryResilient(store, "u", relation, query, &cache,
                                         opts)
                .status());  // Caches every state at the current version.
  ASSERT_OK(store.PublishProfile("u", RandomProfile(rng, env, world)));

  storage::AdmissionController shed_all(
      storage::AdmissionPolicy{.max_in_flight = 0});
  opts.admission = &shed_all;
  opts.allow_truncated = false;
  StatusOr<storage::ServedQuery> stale =
      storage::ServeQueryResilient(store, "u", relation, query, &cache, opts);
  ASSERT_OK(stale.status());
  EXPECT_EQ(stale->provenance.via, storage::ServedVia::kStale);
  StatusOr<QueryResult> at_old = RankCS(
      relation, query, FlatResolver((*old_pin)->flat_tree()), opts.query);
  ASSERT_OK(at_old.status());
  ExpectBitEqual(stale->result.tuples, at_old->tuples, "stale kMax");

  for (const auto& [combine, kind] :
       {std::pair{db::CombinePolicy::kMin, DistanceKind::kHierarchy},
        std::pair{db::CombinePolicy::kMax, DistanceKind::kJaccard}}) {
    storage::ServeOptions other = opts;
    other.query.combine = combine;
    other.query.resolution.distance = kind;
    StatusOr<storage::ServedQuery> refused = storage::ServeQueryResilient(
        store, "u", relation, query, &cache, other);
    EXPECT_TRUE(refused.status().IsUnavailable())
        << db::CombinePolicyToString(combine) << " "
        << DistanceKindToString(kind) << ": " << refused.status().ToString();
  }
}

// The stale rung answers from the same per-state lists, so it must
// refuse discounted queries too: with entries for the query retained
// at an older version, a shed discounted query falls off the ladder
// instead of being served undiscounted scores.
TEST_P(ServingDifferentialTest, StaleRungSkipsDiscountedQueries) {
  EnvironmentPtr env = TinyEnv();
  const std::vector<ContextState> world = AllExtendedStates(*env);
  const db::Relation relation = MakeRelation();
  Rng rng(GetParam() + 97);

  storage::ProfileStore store(env);
  ContextQueryTree cache(env, Ordering::Identity(env->size()));
  cache.SetRetainStale(true);
  store.AttachQueryCache(&cache);
  ASSERT_OK(store.CreateUser("u", RandomProfile(rng, env, world)));
  const ContextualQuery query = RandomMultiStateQuery(rng, *env, world);
  ASSERT_OK(storage::ServeQueryResilient(store, "u", relation, query, &cache)
                .status());  // Caches every state at the current version.
  ASSERT_OK(store.PublishProfile("u", RandomProfile(rng, env, world)));

  storage::AdmissionController shed_all(
      storage::AdmissionPolicy{.max_in_flight = 0});
  storage::ServeOptions opts;
  opts.admission = &shed_all;
  opts.allow_truncated = false;
  StatusOr<storage::ServedQuery> stale =
      storage::ServeQueryResilient(store, "u", relation, query, &cache, opts);
  ASSERT_OK(stale.status());
  EXPECT_EQ(stale->provenance.via, storage::ServedVia::kStale);

  for (ScoreDiscount discount :
       {ScoreDiscount::kInverseDistance, ScoreDiscount::kExponential}) {
    opts.query.discount = discount;
    StatusOr<storage::ServedQuery> refused =
        storage::ServeQueryResilient(store, "u", relation, query, &cache, opts);
    EXPECT_TRUE(refused.status().IsUnavailable())
        << ScoreDiscountToString(discount) << ": "
        << refused.status().ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ServingDifferentialTest,
                         ::testing::Values(8101, 8102, 8103, 8104));

}  // namespace
}  // namespace ctxpref
