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
#include <memory>
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
#include "util/deadline.h"
#include "util/metrics.h"
#include "util/random.h"

namespace ctxpref {
namespace {

using ::ctxpref::testing::TinyEnv;

/// Every extended state of `env`, the first parameter slowest.
std::vector<ContextState> AllExtendedStates(const ContextEnvironment& env) {
  std::vector<ContextState> out = {ContextState(std::vector<ValueRef>())};
  for (size_t i = 0; i < env.size(); ++i) {
    const Hierarchy& h = env.parameter(i).hierarchy();
    std::vector<ContextState> longer;
    for (const ContextState& prefix : out) {
      for (LevelIndex l = 0; l < h.num_levels(); ++l) {
        for (ValueId id = 0; id < h.level_size(l); ++id) {
          std::vector<ValueRef> values = prefix.values();
          values.push_back(ValueRef{l, id});
          longer.emplace_back(std::move(values));
        }
      }
    }
    out = std::move(longer);
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
  const std::vector<Profile::StateEntry> flat = profile.Flatten();
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
    // Jaccard ties are broken by hierarchy distance, mirroring the
    // second stage of BestCandidateIndices in the resolver.
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
      for (const Profile::StateEntry& e : flat) {
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

  ReplicatedQueryCache cache(env, Ordering::Identity(env->size()),
                             testing::SharedCache(64));
  storage::ProfileStore store(env);
  store.AttachCoherenceLog(&cache.log());
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
        StatusOr<storage::ServedQuery> cached =
            storage::ServeQuery(store, "u", relation, query, &cache);
        ASSERT_OK(cached.status());
        ASSERT_EQ(cached->snapshot, *snapshot);
        EXPECT_EQ(cached->result.tuples, uncached->tuples)
            << "swap " << swap << " trial " << trial << " pass " << pass;
        ASSERT_EQ(cached->result.traces.size(), uncached->traces.size());
        for (size_t i = 0; i < cached->result.traces.size(); ++i) {
          EXPECT_EQ(cached->result.traces[i].candidates->size(),
                    uncached->traces[i].candidates->size());
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
// set (same exact double distances, same entries) and the same
// ResolveBest winners in the same order, for every query state, both
// distance kinds, exact and non-exact resolution. Bit-exact distance equality
// (not NearlyEqual) is deliberate — it flushes accumulation-order
// drift, the class of bug where both sides are "correct" in isolation
// but disagree on which candidates tie.

/// Entry lists equal in order, clauses equal and scores bit-equal.
void ExpectSameEntries(const std::vector<ProfileTree::LeafEntry>& pointer,
                       const std::vector<ProfileTree::LeafEntry>& flat,
                       const std::string& label) {
  ASSERT_EQ(pointer.size(), flat.size()) << label;
  for (size_t j = 0; j < pointer.size(); ++j) {
    EXPECT_TRUE(pointer[j].clause == flat[j].clause)
        << label << " entry " << j;
    EXPECT_EQ(std::bit_cast<uint64_t>(pointer[j].score),
              std::bit_cast<uint64_t>(flat[j].score))
        << label << " entry " << j;
  }
}

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
    EXPECT_EQ(std::bit_cast<uint64_t>(pointer[i].distance),
              std::bit_cast<uint64_t>(flat[i].distance))
        << label << " candidate " << i << " ("
        << pointer[i].state.ToString(env) << "): distances not bit-equal";
    ExpectSameEntries(pointer[i].entries, flat[i].entries,
                      label + " candidate " + std::to_string(i));
  }
}

/// Search_CS returns a set of covering states (paper §4.4); each
/// layout emits it in its own order, so the comparison sorts both.
std::vector<CandidatePath> ByState(std::vector<CandidatePath> candidates) {
  std::sort(candidates.begin(), candidates.end(),
            [](const CandidatePath& a, const CandidatePath& b) {
              return a.state < b.state;
            });
  return candidates;
}

TEST_P(ServingDifferentialTest, FlatTreeMatchesPointerTreeExhaustively) {
  EnvironmentPtr env = TinyEnv();
  const std::vector<ContextState> world = AllExtendedStates(*env);
  Rng rng(GetParam() + 17);
  Profile profile = RandomProfile(rng, env, world);
  if (profile.empty()) GTEST_SKIP() << "empty draw";

  // The flat side is built the way publishing builds it: straight from
  // the profile.
  const FlatProfileTree flat = FlatProfileTree::Build(profile);
  StatusOr<ProfileTree> tree = ProfileTree::Build(profile);
  ASSERT_OK(tree.status());
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
        ExpectSameCandidates(*env, ByState(pointer_resolver.SearchCS(q, ropts)),
                             ByState(flat_resolver.SearchCS(q, ropts)),
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
        ExpectSameCandidates(*env, *via_pointer->traces[i].candidates,
                             *via_flat->traces[i].candidates,
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

  const FlatProfileTree flat = FlatProfileTree::Build(profile);
  StatusOr<ProfileTree> tree = ProfileTree::Build(profile);
  ASSERT_OK(tree.status());
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
        ExpectSameCandidates(*env, ByState(pointer_resolver.SearchCS(q, ropts)),
                             ByState(flat_resolver.SearchCS(q, ropts)),
                             label + " search");
        ExpectSameCandidates(*env, pointer_resolver.ResolveBest(q, ropts),
                             flat_resolver.ResolveBest(q, ropts),
                             label + " best");
      }
    }
  }
}

// ---- Arena vs pointer tree -----------------------------------------
//
// The arena indexes the same preferences as the pointer tree, so it
// must be that tree in another layout: the same ordering and structure
// counts, the same entries at every exact path, and the same Search_CS
// candidate set with bit-equal distances and scores.
// Publishing builds it from the `Profile` under the greedy ordering;
// `FlatProfileTree::Build(const ProfileTree&)` builds it under the
// tree's own ordering, so every ordering is checked too.

/// Adds `count` random multi-state preferences (value sets on some
/// parameters) over a three-clause pool and a three-score grid, so
/// preferences share (clause, score) leaf entries and some inserts
/// conflict or duplicate; those are skipped, as a profile refuses them.
void AddSetPreferences(Rng& rng, Profile& profile, size_t count) {
  const ContextEnvironment& env = profile.env();
  for (size_t i = 0; i < count; ++i) {
    std::vector<ParameterDescriptor> parts;
    for (size_t p = 0; p < env.size(); ++p) {
      if (!rng.Bernoulli(0.6)) continue;
      const Hierarchy& h = env.parameter(p).hierarchy();
      std::vector<ValueRef> values;
      for (uint64_t k = 1 + rng.Uniform(3); k > 0; --k) {
        const auto level =
            static_cast<LevelIndex>(rng.Uniform(h.num_levels()));
        values.push_back(ValueRef{
            level, static_cast<ValueId>(rng.Uniform(h.level_size(level)))});
      }
      StatusOr<ParameterDescriptor> pd =
          ParameterDescriptor::Set(env, p, std::move(values));
      EXPECT_OK(pd.status());
      if (pd.ok()) parts.push_back(std::move(*pd));
    }
    StatusOr<CompositeDescriptor> cod =
        CompositeDescriptor::Create(env, std::move(parts));
    EXPECT_OK(cod.status());
    if (!cod.ok()) continue;
    StatusOr<ContextualPreference> pref = ContextualPreference::Create(
        std::move(*cod),
        AttributeClause{"attr", db::CompareOp::kEq,
                        db::Value(ValueName(rng.Uniform(3)))},
        static_cast<double>(rng.Uniform(3)) * 0.25);
    EXPECT_OK(pref.status());
    if (pref.ok()) (void)profile.Insert(std::move(*pref));
  }
}

/// Checks `flat` against `tree`, which indexes the same preferences.
void ExpectSameArena(const ProfileTree& tree, const FlatProfileTree& flat,
                     const std::vector<ContextState>& queries,
                     const std::string& label) {
  const ContextEnvironment& env = tree.env();
  ASSERT_TRUE(flat.ordering() == tree.ordering())
      << label << ": " << flat.ordering().ToString(env) << " vs "
      << tree.ordering().ToString(env);
  ASSERT_EQ(flat.CellCount(), tree.CellCount()) << label;
  ASSERT_EQ(flat.NodeCount(), tree.NodeCount()) << label;
  ASSERT_EQ(flat.PathCount(), tree.PathCount()) << label;
  ASSERT_EQ(flat.LeafEntryCount(), tree.LeafEntryCount()) << label;
  const TreeResolver pointer_resolver(&tree);
  const FlatResolver flat_resolver(&flat);
  for (DistanceKind kind :
       {DistanceKind::kHierarchy, DistanceKind::kJaccard}) {
    for (bool exact_only : {false, true}) {
      const ResolutionOptions ropts{.distance = kind,
                                    .exact_only = exact_only};
      for (const ContextState& q : queries) {
        ExpectSameCandidates(env, ByState(pointer_resolver.SearchCS(q, ropts)),
                             ByState(flat_resolver.SearchCS(q, ropts)),
                             label + " " + q.ToString(env) +
                                 (exact_only ? " exact " : " cover ") +
                                 DistanceKindToString(kind));
      }
    }
  }
  for (const ContextState& q : queries) {
    const std::string where = label + " exact lookup " + q.ToString(env);
    const std::vector<ProfileTree::LeafEntry>* held = tree.ExactLookup(q);
    const uint32_t leaf = flat.ExactLookup(q);
    ASSERT_EQ(held == nullptr, leaf == FlatProfileTree::kNoLeaf) << where;
    if (held != nullptr) ExpectSameEntries(*held, flat.EntriesOf(leaf), where);
  }
}

/// Rank_CS of each single-state query in `queries` through `resolver`,
/// under every distance kind and combine policy.
template <typename Resolver>
std::vector<QueryResult> RankEach(const Resolver& resolver,
                                  const std::vector<ContextState>& queries) {
  const db::Relation relation = MakeRelation();
  const ContextEnvironment& env = resolver.tree().env();
  std::vector<QueryResult> out;
  for (DistanceKind kind :
       {DistanceKind::kHierarchy, DistanceKind::kJaccard}) {
    for (db::CombinePolicy combine :
         {db::CombinePolicy::kMax, db::CombinePolicy::kMin,
          db::CombinePolicy::kAvg}) {
      QueryOptions options;
      options.resolution.distance = kind;
      options.combine = combine;
      for (const ContextState& q : queries) {
        StatusOr<CompositeDescriptor> cod =
            CompositeDescriptor::ForState(env, q);
        EXPECT_OK(cod.status());
        ContextualQuery query;
        query.context = ExtendedDescriptor::FromComposite(std::move(*cod));
        StatusOr<QueryResult> result =
            RankCS(relation, query, resolver, options);
        EXPECT_OK(result.status());
        out.push_back(result.ok() ? std::move(*result) : QueryResult{});
      }
    }
  }
  return out;
}

/// Rank_CS answers equal bit for bit: tuples, and traces in order.
void ExpectSameRanking(const ContextEnvironment& env,
                       const std::vector<QueryResult>& pointer,
                       const std::vector<QueryResult>& flat,
                       const std::string& label) {
  ASSERT_EQ(pointer.size(), flat.size()) << label;
  for (size_t i = 0; i < pointer.size(); ++i) {
    const std::string where = label + " query " + std::to_string(i);
    ExpectBitEqual(flat[i].tuples, pointer[i].tuples, where);
    ASSERT_EQ(pointer[i].traces.size(), flat[i].traces.size()) << where;
    for (size_t t = 0; t < pointer[i].traces.size(); ++t) {
      ExpectSameCandidates(env, *pointer[i].traces[t].candidates,
                           *flat[i].traces[t].candidates, where + " trace");
    }
  }
}

/// `profile`'s arenas against its pointer trees: the publish build
/// under the greedy ordering, then the tree build under every ordering.
/// Rank_CS through each permuted arena answers what it answers through
/// the greedy pointer tree: answers depend on neither the layout nor
/// the ordering.
void ExpectSameArenas(const Profile& profile,
                      const std::vector<ContextState>& queries,
                      const std::string& label) {
  StatusOr<ProfileTree> greedy = ProfileTree::Build(profile);
  ASSERT_OK(greedy.status());
  ExpectSameArena(*greedy, FlatProfileTree::Build(profile), queries,
                  label + " greedy");
  const std::vector<QueryResult> ranked =
      RankEach(TreeResolver(&*greedy), queries);
  StatusOr<std::vector<Ordering>> orderings =
      AllOrderings(profile.env().size());
  ASSERT_OK(orderings.status());
  for (const Ordering& order : *orderings) {
    StatusOr<ProfileTree> tree = ProfileTree::Build(profile, order);
    ASSERT_OK(tree.status());
    const FlatProfileTree flat = FlatProfileTree::Build(*tree);
    const std::string where = label + " " + order.ToString(profile.env());
    ExpectSameArena(*tree, flat, queries, where);
    ExpectSameRanking(profile.env(), ranked,
                      RankEach(FlatResolver(&flat), queries),
                      where + " rank_cs");
  }
}

/// `over`, built over an earlier arena, against the pointer tree of
/// `profile` and against a fresh build of it: ordering, counts, every
/// leaf's entries in order with their score bits, and measured bytes.
void ExpectSameOverPrevious(const Profile& profile, const FlatProfileTree& over,
                      const std::vector<ContextState>& queries,
                      const std::string& label) {
  StatusOr<ProfileTree> greedy = ProfileTree::Build(profile);
  ASSERT_OK(greedy.status());
  ExpectSameArena(*greedy, over, queries, label + " over");
  const FlatProfileTree fresh = FlatProfileTree::Build(profile);
  ASSERT_TRUE(over.ordering() == fresh.ordering()) << label;
  ASSERT_EQ(over.CellCount(), fresh.CellCount()) << label;
  ASSERT_EQ(over.NodeCount(), fresh.NodeCount()) << label;
  ASSERT_EQ(over.PathCount(), fresh.PathCount()) << label;
  ASSERT_EQ(over.LeafEntryCount(), fresh.LeafEntryCount()) << label;
  for (uint32_t leaf = 0; leaf < fresh.PathCount(); ++leaf) {
    ExpectSameEntries(fresh.EntriesOf(leaf), over.EntriesOf(leaf),
                      label + " over leaf " + std::to_string(leaf));
  }
  EXPECT_EQ(over.MeasuredByteSize(), fresh.MeasuredByteSize()) << label;
}

/// A preference `attr = <value> : <score>` over `parts`.
ContextualPreference MakePreference(const ContextEnvironment& env,
                                    std::vector<ParameterDescriptor> parts,
                                    const std::string& value, double score) {
  StatusOr<CompositeDescriptor> cod =
      CompositeDescriptor::Create(env, std::move(parts));
  EXPECT_OK(cod.status());
  StatusOr<ContextualPreference> pref = ContextualPreference::Create(
      std::move(*cod),
      AttributeClause{"attr", db::CompareOp::kEq, db::Value(value)}, score);
  EXPECT_OK(pref.status());
  return *pref;
}

/// Index of `pref` (by `==`) in `profile`.
size_t IndexOf(const Profile& profile, const ContextualPreference& pref) {
  const std::vector<ContextualPreference>& prefs = profile.preferences();
  return static_cast<size_t>(std::find(prefs.begin(), prefs.end(), pref) -
                             prefs.begin());
}

TEST_P(ServingDifferentialTest, DirectArenaEqualsFlattenedPointerTree) {
  struct World {
    const char* name;
    EnvironmentPtr env;
  };
  for (const World& w : {World{"tiny", TinyEnv()},
                         World{"paper", ctxpref::testing::PaperEnv()}}) {
    const std::vector<ContextState> all = AllExtendedStates(*w.env);
    Rng rng(GetParam() + 53);
    // RandomProfile's single-state preferences over a sampled world,
    // then multi-state ones with shared entries.
    std::vector<ContextState> world;
    for (const ContextState& s : all) {
      if (world.size() < 40 && rng.Bernoulli(40.0 / all.size())) {
        world.push_back(s);
      }
    }
    Profile profile = RandomProfile(rng, w.env, world);
    AddSetPreferences(rng, profile, 24);

    ExpectSameArenas(profile, all, w.name);

    // Every prefix of the profile, too: small and empty profiles are
    // where layouts' edge cases live.
    Profile prefix(w.env);
    for (const ContextualPreference& pref : profile.preferences()) {
      ExpectSameArenas(prefix, world,
                       std::string(w.name) + " prefix " +
                           std::to_string(prefix.size()));
      ASSERT_OK(prefix.Insert(pref));
    }

    // A random edit sequence: rescores (which keep the preference's
    // index), inserts and removals, with the arenas checked after every
    // step. Edits a profile refuses (a Def. 6 conflict) leave it
    // unchanged and are compared all the same. Every step's arena is
    // also built over the previous step's, chaining shares across
    // consecutive rescores: a step that keeps every body at its index (a
    // rescore, refused or not) shares the shape, a removal or a new body
    // builds a new one.
    enum class Shape { kShared, kNew, kEither };
    FlatProfileTree previous = FlatProfileTree::Build(profile);
    auto check_step = [&](const std::string& label, Shape shape) {
      ExpectSameArenas(profile, world, label);
      FlatProfileTree over = FlatProfileTree::Build(
          std::make_shared<const Profile>(profile), &previous);
      if (shape != Shape::kEither) {
        EXPECT_EQ(over.SharesShapeWith(previous), shape == Shape::kShared)
            << label;
      }
      ExpectSameOverPrevious(profile, over, world, label);
      previous = std::move(over);
    };
    for (int step = 0; step < 60; ++step) {
      const uint64_t op = rng.Uniform(3);
      const bool was_empty = profile.empty();
      if (op == 0 && !was_empty) {
        (void)profile.UpdateScore(
            rng.Uniform(profile.size()),
            static_cast<double>(rng.Uniform(21)) * 0.05);
      } else if (op == 1 && !was_empty) {
        ASSERT_OK(profile.Remove(rng.Uniform(profile.size())));
      } else {
        AddSetPreferences(rng, profile, 1);
      }
      // An insert the profile refuses keeps every body.
      const Shape shape = was_empty ? Shape::kEither
                          : op == 0 ? Shape::kShared
                          : op == 1 ? Shape::kNew
                                    : Shape::kEither;
      check_step(std::string(w.name) + " edit " + std::to_string(step) +
                     " op " + std::to_string(op),
                 shape);
    }

    // Named steps at one world state s. A multi-state preference `b`
    // and a single-state `a` both hold clause x at s's leaf (same score,
    // so no conflict), with `c`'s clause y between them in insertion
    // order: s's leaf lists x (via b), then y.
    const ContextState& s = world.front();
    const ContextEnvironment& env = *w.env;
    std::vector<ParameterDescriptor> at_s;
    std::vector<ParameterDescriptor> around_s;
    for (size_t p = 0; p < env.size(); ++p) {
      const Hierarchy& h = env.parameter(p).hierarchy();
      const ValueRef v = s.value(p);
      StatusOr<ParameterDescriptor> one = ParameterDescriptor::Set(env, p, {v});
      ASSERT_OK(one.status());
      at_s.push_back(*one);
      // Parameter 0 also takes a second value, so `b` spans two leaves.
      const ValueRef other = v == h.AllValue() ? ValueRef{0, 0} : h.AllValue();
      StatusOr<ParameterDescriptor> two =
          p == 0 ? ParameterDescriptor::Set(env, p, {v, other}) : one;
      ASSERT_OK(two.status());
      around_s.push_back(*two);
    }
    const ContextualPreference b = MakePreference(env, around_s, "x", 0.5);
    const ContextualPreference c = MakePreference(env, at_s, "y", 0.25);
    const ContextualPreference a = MakePreference(env, at_s, "x", 0.5);
    for (const ContextualPreference& pref : {b, c, a}) {
      ASSERT_OK(profile.Insert(pref));
      check_step(std::string(w.name) + " insert " + pref.ToString(env),
                 Shape::kNew);
    }
    // A refused rescore: `a` at another score conflicts with `b` at s.
    ASSERT_FALSE(profile.UpdateScore(IndexOf(profile, a), 0.75).ok());
    check_step(std::string(w.name) + " refused rescore", Shape::kShared);
    // A same-score rescore keeps `b` before `a`: s's leaf still lists x
    // via `b`, then y.
    ASSERT_OK(profile.UpdateScore(IndexOf(profile, b), 0.5));
    check_step(std::string(w.name) + " same-score rescore", Shape::kShared);
    // Two rescores in one step, of the first two preferences (at their
    // own scores, so neither is refused): the same bodies at the same
    // indices.
    for (size_t k = 0; k < 2; ++k) {
      ASSERT_OK(profile.UpdateScore(k, profile.preference(k).score()));
    }
    check_step(std::string(w.name) + " two rescores", Shape::kShared);
    // `c` removed and a textually equal preference inserted: a new
    // body at the same states.
    ASSERT_OK(profile.Remove(IndexOf(profile, c)));
    ASSERT_OK(profile.Insert(MakePreference(env, at_s, "y", 0.25)));
    check_step(std::string(w.name) + " reinsert equal", Shape::kNew);
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

  ReplicatedQueryCache cache(env, Ordering::Identity(env->size()),
                             testing::SharedCache(256));
  storage::ProfileStore store(env);
  store.AttachCoherenceLog(&cache.log());
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
        storage::ServeQuery(store, "u", relation, query, &cache);
    ASSERT_OK(warm.status());
    ASSERT_EQ(warm->provenance.via, storage::ServedVia::kFresh);
    const storage::SnapshotPtr pinned = warm->snapshot;

    // Publish a different random profile, then shed the same query: the
    // stale rung serves the retained entries at the pinned version.
    ASSERT_OK(store.PublishProfile("u", RandomProfile(rng, env, world)));
    StatusOr<storage::ServedQuery> stale =
        storage::ServeQuery(store, "u", relation, query, &cache, {}, nullptr,
                            storage::kAnyReplica, &shed_all);
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
      ExpectSameCandidates(*env, *direct->traces[i].candidates,
                           *stale->result.traces[i].candidates,
                           "round " + std::to_string(round) + " trace");
    }
  }

  // Beyond the cache's staleness window the rung has no entry to serve;
  // with the truncated rung aborted by a spent deadline, the shed
  // surfaces as kUnavailable.
  ContextualQuery query;
  StatusOr<CompositeDescriptor> cod =
      CompositeDescriptor::ForState(*env, world[0]);
  ASSERT_OK(cod.status());
  query.context = ExtendedDescriptor::FromComposite(std::move(*cod));
  ASSERT_OK(storage::ServeQuery(store, "u", relation, query, &cache)
                .status());  // Warm world[0] at the current version…
  // …then age it past the window.
  for (uint64_t i = 0; i <= cache.options().staleness_window; ++i) {
    ASSERT_OK(store.PublishProfile("u", RandomProfile(rng, env, world)));
  }
  QueryOptions spent;
  spent.deadline = util::Deadline::AfterMicros(0);
  StatusOr<storage::ServedQuery> off =
      storage::ServeQuery(store, "u", relation, query, &cache, spent, nullptr,
                          storage::kAnyReplica, &shed_all);
  ASSERT_FALSE(off.ok());
  EXPECT_TRUE(off.status().IsUnavailable()) << off.status().ToString();
}

// ---- Options sweep: distance x combine x cache path ---------------
//
// Cached per-state lists merge only under an associative combine, so
// every serving path must either answer exactly what RankCS answers —
// same rows, bit-identical scores — or refuse the options with
// InvalidArgument. Never a quietly different answer.

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

TEST_P(ServingDifferentialTest, CombineCachePathSweepMatchesRankCsOrRejects) {
  EnvironmentPtr env = TinyEnv();
  const std::vector<ContextState> world = AllExtendedStates(*env);
  const db::Relation relation = MakeRelation();
  Rng rng(GetParam() + 71);
  const Profile profile = RandomProfile(rng, env, world);
  if (profile.empty()) GTEST_SKIP() << "empty draw";

  size_t scored_answers = 0;
  for (DistanceKind kind :
       {DistanceKind::kHierarchy, DistanceKind::kJaccard}) {
    for (db::CombinePolicy combine :
         {db::CombinePolicy::kMax, db::CombinePolicy::kMin,
          db::CombinePolicy::kAvg}) {
      QueryOptions options;
      options.resolution.distance = kind;
      options.combine = combine;
      const bool cacheable = CheckCacheableOptions(options).ok();
      EXPECT_EQ(cacheable, combine == db::CombinePolicy::kMax ||
                               combine == db::CombinePolicy::kMin);

      // Fresh caches per options combination, so pass 0 misses and
      // pass 1 hits (InterleavedConfigsShareOneCacheExactly shares
      // one cache across combinations).
      storage::ProfileStore store(env);
      ContextQueryTree cache;
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
        label += db::CombinePolicyToString(combine);
        label += " trial ";
        label += std::to_string(trial);

        StatusOr<QueryResult> oracle =
            RankCS(relation, query, resolver, options);
        ASSERT_OK(oracle.status());
        if (!oracle->tuples.empty()) ++scored_answers;

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
                storage::ServeQuery(store, "u", relation, query, &replicas,
                                    options, nullptr, r);
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
  // The sweep only means something if some answer ranks tuples.
  EXPECT_GT(scored_answers, 0u);
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
  ContextQueryTree cache;
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
        StatusOr<storage::ServedQuery> replicated = storage::ServeQuery(
            store, "u", relation, query, &replicas, options, nullptr, 0);
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
// hierarchy query serve that configuration stale, never another one,
// and never a non-associative combine (kAvg), which per-state lists
// cannot answer at all.
TEST_P(ServingDifferentialTest, StaleRungServesOnlyTheEntriesConfig) {
  EnvironmentPtr env = TinyEnv();
  const std::vector<ContextState> world = AllExtendedStates(*env);
  const db::Relation relation = MakeRelation();
  Rng rng(GetParam() + 151);

  ReplicatedQueryCache cache(env, Ordering::Identity(env->size()),
                             testing::SharedCache());
  storage::ProfileStore store(env);
  store.AttachCoherenceLog(&cache.log());
  ASSERT_OK(store.CreateUser("u", RandomProfile(rng, env, world)));
  StatusOr<storage::SnapshotPtr> old_pin = store.GetSnapshot("u");
  ASSERT_OK(old_pin.status());
  const ContextualQuery query = RandomMultiStateQuery(rng, *env, world);
  const QueryOptions options;  // kMax, hierarchy distance.
  ASSERT_OK(storage::ServeQuery(store, "u", relation, query, &cache, options)
                .status());  // Caches every state at the current version.
  ASSERT_OK(store.PublishProfile("u", RandomProfile(rng, env, world)));

  // Shed at the door, and a spent deadline aborts the truncated rung:
  // only the stale rung can answer.
  storage::AdmissionController shed_all(
      storage::AdmissionPolicy{.max_in_flight = 0});
  QueryOptions spent = options;
  spent.deadline = util::Deadline::AfterMicros(0);
  StatusOr<storage::ServedQuery> stale =
      storage::ServeQuery(store, "u", relation, query, &cache, spent, nullptr,
                          storage::kAnyReplica, &shed_all);
  ASSERT_OK(stale.status());
  EXPECT_EQ(stale->provenance.via, storage::ServedVia::kStale);
  StatusOr<QueryResult> at_old = RankCS(
      relation, query, FlatResolver((*old_pin)->flat_tree()), options);
  ASSERT_OK(at_old.status());
  ExpectBitEqual(stale->result.tuples, at_old->tuples, "stale kMax");

  for (const auto& [combine, kind] :
       {std::pair{db::CombinePolicy::kMin, DistanceKind::kHierarchy},
        std::pair{db::CombinePolicy::kMax, DistanceKind::kJaccard},
        std::pair{db::CombinePolicy::kAvg, DistanceKind::kHierarchy}}) {
    QueryOptions other = spent;
    other.combine = combine;
    other.resolution.distance = kind;
    StatusOr<storage::ServedQuery> refused =
        storage::ServeQuery(store, "u", relation, query, &cache, other,
                            nullptr, storage::kAnyReplica, &shed_all);
    EXPECT_TRUE(refused.status().IsUnavailable())
        << db::CombinePolicyToString(combine) << " "
        << DistanceKindToString(kind) << ": " << refused.status().ToString();
  }
}

// The ladder over a two-replica cache. Each round warms both replicas
// at the current version, publishes, and lets only replica 0 consume
// the publish. Shed requests through replica 0 (covered by the gate)
// get the stale rung: one consistent older version, bit-equal to the
// uncached oracle at that version. Replica 1 trails the publish, so
// its gate refuses: it never serves stale, and falls to the truncated
// rung (or off the ladder when a spent deadline aborts that rung).
TEST_P(ServingDifferentialTest, LadderOverReplicasServesStaleOnlyWhenCovered) {
  EnvironmentPtr env = TinyEnv();
  const std::vector<ContextState> world = AllExtendedStates(*env);
  const db::Relation relation = MakeRelation();
  Rng rng(GetParam() + 173);

  ReplicatedQueryCache::Options ropt;
  ropt.num_replicas = 2;
  // Background mode with no pool: a replica consumes only when this
  // test says so.
  ropt.mode = ReplicatedQueryCache::ConsumeMode::kBackground;
  ReplicatedQueryCache cache(env, Ordering::Identity(env->size()), ropt);
  storage::ProfileStore store(env);
  store.AttachCoherenceLog(&cache.log());
  Profile initial = RandomProfile(rng, env, world);
  if (initial.empty()) GTEST_SKIP() << "empty draw";
  ASSERT_OK(store.CreateUser("u", std::move(initial)));
  cache.ConsumeAll();

  Counter& refuses = MetricsRegistry::Global().GetCounter(
      "ctxpref_coherence_stale_refuses_total");
  storage::AdmissionController shed_all(
      storage::AdmissionPolicy{.max_in_flight = 0});
  QueryOptions spent;
  spent.deadline = util::Deadline::AfterMicros(0);

  for (int round = 0; round < 8; ++round) {
    const std::string label = "round " + std::to_string(round);
    const ContextualQuery query = RandomMultiStateQuery(rng, *env, world);
    storage::SnapshotPtr pinned;
    for (size_t r = 0; r < cache.num_replicas(); ++r) {
      StatusOr<storage::ServedQuery> warm = storage::ServeQuery(
          store, "u", relation, query, &cache, {}, nullptr, r);
      ASSERT_OK(warm.status());
      ASSERT_EQ(warm->provenance.via, storage::ServedVia::kFresh) << label;
      pinned = warm->snapshot;
    }

    ASSERT_OK(store.PublishProfile("u", RandomProfile(rng, env, world)));
    const uint64_t current = store.serving_version();
    cache.Consume(0);
    ASSERT_TRUE(cache.Covers(0, current));
    ASSERT_FALSE(cache.Covers(1, current));

    // Covered replica: the stale rung, at the one pinned older version.
    StatusOr<storage::ServedQuery> stale = storage::ServeQuery(
        store, "u", relation, query, &cache, {}, nullptr, 0, &shed_all);
    ASSERT_OK(stale.status());
    ASSERT_EQ(stale->provenance.via, storage::ServedVia::kStale) << label;
    EXPECT_EQ(stale->provenance.served_version, pinned->serving_version());
    EXPECT_EQ(stale->provenance.current_version, current);
    StatusOr<QueryResult> oracle =
        storage::ServeQuery(*pinned, relation, query, /*cache=*/nullptr);
    ASSERT_OK(oracle.status());
    ExpectBitEqual(stale->result.tuples, oracle->tuples, label + " stale");
    ASSERT_EQ(stale->result.traces.size(), oracle->traces.size());
    for (size_t i = 0; i < oracle->traces.size(); ++i) {
      ExpectSameCandidates(*env, *oracle->traces[i].candidates,
                           *stale->result.traces[i].candidates,
                           label + " trace");
    }

    // Refused replica: never stale, even though it holds the entries.
    const uint64_t refuses_before = refuses.value();
    StatusOr<storage::ServedQuery> truncated = storage::ServeQuery(
        store, "u", relation, query, &cache, {}, nullptr, 1, &shed_all);
    ASSERT_OK(truncated.status());
    EXPECT_EQ(truncated->provenance.via, storage::ServedVia::kTruncated)
        << label;
    EXPECT_EQ(truncated->provenance.served_version, current);
    EXPECT_EQ(truncated->result.traces.size(), 1u) << "first state only";
    EXPECT_EQ(refuses.value() - refuses_before, 1u);
    StatusOr<storage::ServedQuery> off = storage::ServeQuery(
        store, "u", relation, query, &cache, spent, nullptr, 1, &shed_all);
    EXPECT_TRUE(off.status().IsUnavailable()) << off.status().ToString();

    cache.ConsumeAll();  // Replica 1 catches up for the next round.
  }
}

// A plain request — no admission controller, no deadline — never leaves
// the fresh rung: it serves at the version it pinned, bit-equal to the
// snapshot-level ServeQuery at that snapshot, and of the serving
// layer's counters it moves only `requests` and `fresh`. With and
// without a cache.
TEST_P(ServingDifferentialTest, PlainServeQueryDoesNoLadderWork) {
  EnvironmentPtr env = TinyEnv();
  const std::vector<ContextState> world = AllExtendedStates(*env);
  const db::Relation relation = MakeRelation();
  Rng rng(GetParam() + 199);

  ReplicatedQueryCache cache(env, Ordering::Identity(env->size()),
                             testing::SharedCache());
  storage::ProfileStore store(env);
  store.AttachCoherenceLog(&cache.log());
  ASSERT_OK(store.CreateUser("u", RandomProfile(rng, env, world)));

  // The first two move by one per request; the rest must not move.
  const std::vector<std::string> counters = {
      "ctxpref_serving_requests_total",
      "ctxpref_serving_fresh_total",
      "ctxpref_serving_stale_total",
      "ctxpref_serving_truncated_total",
      "ctxpref_serving_unavailable_total",
      "ctxpref_serving_deadline_hits_total",
      "ctxpref_serving_admitted_total",
      "ctxpref_serving_shed_capacity_total",
      "ctxpref_serving_shed_deadline_total",
  };
  MetricsRegistry& registry = MetricsRegistry::Global();
  for (int round = 0; round < 8; ++round) {
    const std::string label = "round " + std::to_string(round);
    if (round % 3 == 2) {
      ASSERT_OK(store.PublishProfile("u", RandomProfile(rng, env, world)));
    }
    const ContextualQuery query = RandomMultiStateQuery(rng, *env, world);
    std::vector<uint64_t> before;
    for (const std::string& name : counters) {
      before.push_back(registry.GetCounter(name).value());
    }
    StatusOr<storage::ServedQuery> served = storage::ServeQuery(
        store, "u", relation, query, round % 2 == 0 ? &cache : nullptr);
    ASSERT_OK(served.status());
    for (size_t i = 0; i < counters.size(); ++i) {
      EXPECT_EQ(registry.GetCounter(counters[i]).value() - before[i],
                i < 2 ? 1u : 0u)
          << label << " " << counters[i];
    }

    const storage::ServingProvenance& prov = served->provenance;
    EXPECT_EQ(prov.via, storage::ServedVia::kFresh) << label;
    EXPECT_EQ(prov.served_version, prov.current_version) << label;
    EXPECT_EQ(prov.current_version, served->snapshot->serving_version());
    EXPECT_EQ(prov.admission, storage::AdmissionDecision::kAdmitted);
    EXPECT_FALSE(prov.deadline_hit);
    StatusOr<QueryResult> direct =
        storage::ServeQuery(*served->snapshot, relation, query);
    ASSERT_OK(direct.status());
    ExpectBitEqual(served->result.tuples, direct->tuples, label);
  }
}

// The stale rung reaches back exactly the cache's staleness_window. The
// cache consumes in the background and consumes nothing after the two
// entries are cached, so the consume step's retention plays no part:
// an entry exactly `window` versions behind the pinned version is
// served, one `window + 1` behind is not, though it is still cached.
TEST_P(ServingDifferentialTest, StaleReachIsTheCachesWindow) {
  EnvironmentPtr env = TinyEnv();
  const std::vector<ContextState> world = AllExtendedStates(*env);
  const db::Relation relation = MakeRelation();
  Rng rng(GetParam() + 211);

  ReplicatedQueryCache::Options ropt;
  ropt.num_replicas = 1;
  ropt.mode = ReplicatedQueryCache::ConsumeMode::kBackground;
  ReplicatedQueryCache cache(env, Ordering::Identity(env->size()), ropt);
  const uint64_t window = cache.options().staleness_window;
  storage::ProfileStore store(env);
  store.AttachCoherenceLog(&cache.log());
  Profile initial = RandomProfile(rng, env, world);
  if (initial.empty()) GTEST_SKIP() << "empty draw";
  ASSERT_OK(store.CreateUser("u", std::move(initial)));

  // pins[k] is the snapshot k publishes after the first one; the last
  // publish leaves the current version window + 1 past pins[0].
  std::vector<storage::SnapshotPtr> pins;
  for (uint64_t k = 0; k <= window + 1; ++k) {
    if (k > 0) {
      ASSERT_OK(store.PublishProfile("u", RandomProfile(rng, env, world)));
    }
    StatusOr<storage::SnapshotPtr> pin = store.GetSnapshot("u");
    ASSERT_OK(pin.status());
    pins.push_back(*pin);
  }
  const uint64_t current = store.serving_version();
  ASSERT_EQ(current, pins.back()->serving_version());
  ASSERT_EQ(current - pins[0]->serving_version(), window + 1);
  cache.ConsumeAll();  // The gate now covers `current`.

  auto single_state = [&](const ContextState& state) {
    StatusOr<CompositeDescriptor> cod =
        CompositeDescriptor::ForState(*env, state);
    EXPECT_OK(cod.status());
    ContextualQuery query;
    query.context = ExtendedDescriptor::FromComposite(std::move(*cod));
    return query;
  };
  const ContextualQuery edge_query = single_state(world[0]);
  const ContextualQuery beyond_query = single_state(world[1]);
  // Cache each state through the replica at its old snapshot's version.
  ASSERT_OK(storage::ServeQuery(*pins[1], relation, edge_query,
                                &cache.replica(0))
                .status());
  ASSERT_OK(storage::ServeQuery(*pins[0], relation, beyond_query,
                                &cache.replica(0))
                .status());

  // No controller; the spent deadline skips the fresh rung and aborts
  // the truncated one, so only the stale rung can answer.
  QueryOptions spent;
  spent.deadline = util::Deadline::AfterMicros(0);
  StatusOr<storage::ServedQuery> edge = storage::ServeQuery(
      store, "u", relation, edge_query, &cache, spent, nullptr, 0);
  ASSERT_OK(edge.status());
  EXPECT_EQ(edge->provenance.via, storage::ServedVia::kStale);
  EXPECT_EQ(edge->provenance.served_version, current - window);
  StatusOr<QueryResult> oracle =
      storage::ServeQuery(*pins[1], relation, edge_query);
  ASSERT_OK(oracle.status());
  ExpectBitEqual(edge->result.tuples, oracle->tuples, "edge of the window");

  StatusOr<storage::ServedQuery> beyond = storage::ServeQuery(
      store, "u", relation, beyond_query, &cache, spent, nullptr, 0);
  EXPECT_TRUE(beyond.status().IsUnavailable()) << beyond.status().ToString();
  EXPECT_NE(cache.replica(0).LookupAtOrBefore(
                "u", world[1], current, 0, CacheConfig::Of(QueryOptions{}),
                nullptr, nullptr),
            nullptr)
      << "the entry beyond the reach is still cached";
}

INSTANTIATE_TEST_SUITE_P(Seeds, ServingDifferentialTest,
                         ::testing::Values(8101, 8102, 8103, 8104));

}  // namespace
}  // namespace ctxpref
