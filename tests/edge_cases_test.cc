// Edge-shape coverage: degenerate and extreme context models and
// profiles that the mainline suites do not reach.

#include <gtest/gtest.h>

#include "context/validate.h"
#include "preference/contextual_query.h"
#include "preference/profile_tree.h"
#include "preference/resolution.h"
#include "preference/sequential_store.h"
#include "tests/test_util.h"
#include "workload/poi_dataset.h"
#include "workload/synthetic_hierarchy.h"

namespace ctxpref {
namespace {

using ::ctxpref::testing::Pref;

TEST(EdgeCaseTest, SingleValueSingleParameterWorld) {
  StatusOr<HierarchyPtr> h = MakeFlatHierarchy("only", "L", {"v"});
  ASSERT_OK(h.status());
  std::vector<ContextParameter> params;
  params.emplace_back("only", *h);
  StatusOr<EnvironmentPtr> env = ContextEnvironment::Create(std::move(params));
  ASSERT_OK(env.status());
  EXPECT_EQ((*env)->WorldSize(), 1u);
  EXPECT_EQ((*env)->ExtendedWorldSize(), 2u);
  EXPECT_OK(ValidateEnvironment(**env, true));

  Profile p(*env);
  ASSERT_OK(p.Insert(Pref(**env, "only = v", "attr", "x", 0.5)));
  StatusOr<ProfileTree> tree = ProfileTree::Build(p);
  ASSERT_OK(tree.status());
  EXPECT_EQ(tree->CellCount(), 1u);
  EXPECT_EQ(tree->PathCount(), 1u);

  TreeResolver resolver(&*tree);
  StatusOr<ContextState> q = ContextState::FromNames(**env, {"v"});
  ASSERT_OK(q.status());
  std::vector<CandidatePath> best = resolver.ResolveBest(*q);
  ASSERT_EQ(best.size(), 1u);
  EXPECT_DOUBLE_EQ(best[0].distance, 0.0);
}

TEST(EdgeCaseTest, DeepChainHierarchy) {
  // 6 declared levels over 64 values, fan 2: L0..L5 sizes 64..2, + ALL.
  StatusOr<HierarchyPtr> h = workload::MakeSyntheticHierarchy("deep", 64, 6, 2);
  ASSERT_OK(h.status());
  EXPECT_EQ((*h)->num_levels(), 7);
  EXPECT_OK(ValidateHierarchyInvariants(**h, true));
  // anc composition across the whole chain.
  ValueRef bottom{0, 63};
  ValueRef top = (*h)->Anc(bottom, 6);
  EXPECT_EQ(top, (*h)->AllValue());
  EXPECT_EQ((*h)->Desc((*h)->AllValue(), 0).size(), 64u);
  // Level distance spans the chain.
  EXPECT_EQ((*h)->LevelDistance(0, 6), 6u);
  // Jaccard shrinks stepwise up the chain.
  double prev = -1.0;
  for (LevelIndex l = 1; l <= 6; ++l) {
    double d = (*h)->JaccardDistance((*h)->Anc(bottom, l), bottom);
    EXPECT_GT(d, prev);
    prev = d;
  }
}

TEST(EdgeCaseTest, ManyParameterEnvironment) {
  // Six parameters: orderings beyond the paper's three-parameter world.
  std::vector<ContextParameter> params;
  for (int i = 0; i < 6; ++i) {
    std::string name = "p";  // Not `"p" + ...`: GCC 12 -Wrestrict.
    name += std::to_string(i);
    StatusOr<HierarchyPtr> h =
        workload::MakeSyntheticHierarchy(name, 4 + 2 * i, 2, 3);
    ASSERT_OK(h.status());
    params.emplace_back(std::move(name), *h);
  }
  StatusOr<EnvironmentPtr> env = ContextEnvironment::Create(std::move(params));
  ASSERT_OK(env.status());

  Profile p(*env);
  for (int k = 0; k < 20; ++k) {
    std::vector<ParameterDescriptor> parts;
    StatusOr<ParameterDescriptor> pd = ParameterDescriptor::Equals(
        **env, static_cast<size_t>(k % 6),
        ValueRef{0, static_cast<ValueId>(k % 4)});
    ASSERT_OK(pd.status());
    parts.push_back(std::move(*pd));
    StatusOr<CompositeDescriptor> cod =
        CompositeDescriptor::Create(**env, std::move(parts));
    ASSERT_OK(cod.status());
    std::string value = "v";
    value += std::to_string(k);
    StatusOr<ContextualPreference> pref = ContextualPreference::Create(
        std::move(*cod),
        AttributeClause{"a", db::CompareOp::kEq, db::Value(std::move(value))},
        0.5);
    ASSERT_OK(pref.status());
    ASSERT_OK(p.Insert(std::move(*pref)));
  }
  // Greedy ordering still sorts by active domain; the tree matches the
  // sequential baseline on a few queries.
  StatusOr<ProfileTree> tree = ProfileTree::Build(p);
  ASSERT_OK(tree.status());
  EXPECT_EQ(tree->ordering().size(), 6u);
  SequentialStore store = SequentialStore::Build(p);
  TreeResolver resolver(&*tree);
  ContextState all = ContextState::AllState(**env);
  EXPECT_EQ(resolver.SearchCS(all).size(), store.SearchCovering(all).size());
}

TEST(EdgeCaseTest, BoundaryScoresZeroAndOne) {
  EnvironmentPtr env = testing::PaperEnv();
  Profile p(env);
  ASSERT_OK(p.Insert(Pref(*env, "location = Plaka", "type", "museum", 0.0)));
  ASSERT_OK(p.Insert(Pref(*env, "location = Plaka", "type", "park", 1.0)));
  StatusOr<workload::PoiDatabase> poi = workload::MakePoiDatabase(40, 3);
  ASSERT_OK(poi.status());
  // Same env shape; rebuild against the POI env for querying.
  Profile q(poi->env);
  ASSERT_OK(q.Insert(Pref(*poi->env, "location = Plaka", "type", "museum", 0.0)));
  ASSERT_OK(q.Insert(Pref(*poi->env, "location = Plaka", "type", "park", 1.0)));
  StatusOr<ProfileTree> tree = ProfileTree::Build(q);
  ASSERT_OK(tree.status());
  TreeResolver resolver(&*tree);
  ContextualQuery query;
  StatusOr<CompositeDescriptor> cod = CompositeDescriptor::ForState(
      *poi->env,
      *ContextState::FromNames(*poi->env, {"Plaka", "warm", "friends"}));
  ASSERT_OK(cod.status());
  query.context = ExtendedDescriptor::FromComposite(std::move(*cod));
  StatusOr<QueryResult> result = RankCS(poi->relation, query, resolver);
  ASSERT_OK(result.status());
  // Parks at 1.0 on top, museums at 0.0 at the bottom — both present.
  ASSERT_FALSE(result->tuples.empty());
  EXPECT_DOUBLE_EQ(result->tuples.front().score, 1.0);
  EXPECT_DOUBLE_EQ(result->tuples.back().score, 0.0);
}

TEST(EdgeCaseTest, DescriptorCoveringWholeDetailedDomain) {
  EnvironmentPtr env = testing::PaperEnv();
  const Hierarchy& temp = env->parameter(1).hierarchy();
  // Range spanning the whole Conditions level = 5 states.
  StatusOr<ParameterDescriptor> pd = ParameterDescriptor::Range(
      *env, 1, ValueRef{0, 0},
      ValueRef{0, static_cast<ValueId>(temp.level_size(0) - 1)});
  ASSERT_OK(pd.status());
  std::vector<ParameterDescriptor> parts;
  parts.push_back(std::move(*pd));
  StatusOr<CompositeDescriptor> cod =
      CompositeDescriptor::Create(*env, std::move(parts));
  ASSERT_OK(cod.status());
  EXPECT_EQ(cod->NumStates(), 5u);
  StatusOr<ContextualPreference> pref = ContextualPreference::Create(
      std::move(*cod),
      AttributeClause{"type", db::CompareOp::kEq, db::Value("park")}, 0.7);
  ASSERT_OK(pref.status());
  Profile p(env);
  ASSERT_OK(p.Insert(std::move(*pref)));
  StatusOr<ProfileTree> tree = ProfileTree::Build(p);
  ASSERT_OK(tree.status());
  EXPECT_EQ(tree->PathCount(), 5u);
  // Every detailed weather resolves to exactly one covering state.
  TreeResolver resolver(&*tree);
  for (const char* w : {"freezing", "cold", "mild", "warm", "hot"}) {
    std::vector<CandidatePath> best = resolver.ResolveBest(
        *ContextState::FromNames(*env, {"Plaka", w, "friends"}));
    ASSERT_EQ(best.size(), 1u) << w;
  }
}

TEST(EdgeCaseTest, QueryAtAllStateOnlyMatchesAllPreferences) {
  EnvironmentPtr env = testing::PaperEnv();
  Profile p(env);
  ASSERT_OK(p.Insert(Pref(*env, "location = Plaka", "type", "museum", 0.5)));
  ASSERT_OK(p.Insert(Pref(*env, "*", "type", "park", 0.6)));
  StatusOr<ProfileTree> tree = ProfileTree::Build(p);
  ASSERT_OK(tree.status());
  TreeResolver resolver(&*tree);
  // The (all, all, all) query is only covered by the all-state pref:
  // (Plaka, all, all) does NOT cover it (Plaka is below all).
  std::vector<CandidatePath> found =
      resolver.SearchCS(ContextState::AllState(*env));
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].state, ContextState::AllState(*env));
  EXPECT_DOUBLE_EQ(found[0].distance, 0.0);
}

TEST(EdgeCaseTest, EmptyProfileResolvesToNothingEverywhere) {
  EnvironmentPtr env = testing::PaperEnv();
  Profile p(env);
  StatusOr<ProfileTree> tree = ProfileTree::Build(p);
  ASSERT_OK(tree.status());
  EXPECT_EQ(tree->CellCount(), 0u);
  TreeResolver resolver(&*tree);
  EXPECT_TRUE(resolver.SearchCS(ContextState::AllState(*env)).empty());
  SequentialStore store = SequentialStore::Build(p);
  EXPECT_TRUE(store.SearchCovering(ContextState::AllState(*env)).empty());
}

TEST(EdgeCaseTest, MaxCellEstimateHandlesDegenerateSizes) {
  EXPECT_EQ(MaxCellEstimate({}), 0u);
  EXPECT_EQ(MaxCellEstimate({1}), 1u);
  EXPECT_EQ(MaxCellEstimate({1, 1, 1}), 3u);
}

TEST(EdgeCaseTest, TreeWithIdentityAndReverseOrderingsAgreeOnSemantics) {
  EnvironmentPtr env = testing::PaperEnv();
  Profile p(env);
  ASSERT_OK(p.Insert(Pref(*env, "location = Athens and temperature = good",
                          "type", "museum", 0.8)));
  StatusOr<ProfileTree> forward =
      ProfileTree::Build(p, Ordering::Identity(3));
  StatusOr<ProfileTree> reverse =
      ProfileTree::Build(p, *Ordering::FromPermutation({2, 1, 0}));
  ASSERT_OK(forward.status());
  ASSERT_OK(reverse.status());
  TreeResolver f(&*forward), r(&*reverse);
  ContextState q =
      *ContextState::FromNames(*env, {"Plaka", "warm", "friends"});
  std::vector<CandidatePath> a = f.ResolveBest(q);
  std::vector<CandidatePath> b = r.ResolveBest(q);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.size(), 1u);
  EXPECT_EQ(a[0].state, b[0].state);
}

}  // namespace
}  // namespace ctxpref
