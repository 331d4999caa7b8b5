// Exhaustive semantics verification on a small world: instead of
// sampling, enumerate EVERY extended context state as a query and
// check the profile tree's resolution against the formal definitions
// (covers, Def. 12 matching, Properties 2/3) computed from first
// principles. The environment is small enough (|EW| = 6·4 = 24 per
// parameter combination) that this is a complete check, not a sample.

#include <gtest/gtest.h>

#include <algorithm>

#include "preference/flat_profile_tree.h"
#include "preference/profile_tree.h"
#include "preference/resolution.h"
#include "preference/sequential_store.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace ctxpref {
namespace {

using ::ctxpref::testing::ExpectSameWinners;
using ::ctxpref::testing::TinyEnv;

/// Every extended state of the environment.
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

class ExhaustiveSemanticsTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExhaustiveSemanticsTest, EveryQueryStateResolvesPerDefinition) {
  EnvironmentPtr env = TinyEnv();
  std::vector<ContextState> world = AllExtendedStates(*env);
  ASSERT_EQ(world.size(), 6u * 3u);

  // Random profile: a subset of world states carries preferences.
  Rng rng(GetParam());
  Profile profile(env);
  int added = 0;
  for (const ContextState& s : world) {
    if (!rng.Bernoulli(0.4)) continue;
    StatusOr<CompositeDescriptor> cod =
        CompositeDescriptor::ForState(*env, s);
    ASSERT_OK(cod.status());
    std::string value = "v";  // Not `"v" + ...`: GCC 12 -Wrestrict.
    value += std::to_string(added);
    StatusOr<ContextualPreference> pref = ContextualPreference::Create(
        std::move(*cod),
        AttributeClause{"attr", db::CompareOp::kEq,
                        db::Value(std::move(value))},
        0.5);
    ASSERT_OK(pref.status());
    ASSERT_OK(profile.Insert(std::move(*pref)));
    ++added;
  }
  if (profile.empty()) GTEST_SKIP() << "empty draw";

  StatusOr<ProfileTree> tree = ProfileTree::Build(profile);
  ASSERT_OK(tree.status());
  TreeResolver resolver(&*tree);
  const FlatProfileTree flat = FlatProfileTree::Build(*tree);
  FlatResolver flat_resolver(&flat);
  SequentialStore store = SequentialStore::Build(profile);

  for (const ContextState& query : world) {
    // Ground truth from first principles.
    std::vector<ContextState> covering = CoveringStates(profile, query);
    std::vector<ContextState> matches = FormalMatches(profile, query);

    for (DistanceKind kind :
         {DistanceKind::kHierarchy, DistanceKind::kJaccard}) {
      ResolutionOptions options;
      options.distance = kind;

      // (1) Search_CS finds exactly the covering states.
      std::vector<CandidatePath> found = resolver.SearchCS(query, options);
      ASSERT_EQ(found.size(), covering.size())
          << query.ToString(*env) << " " << DistanceKindToString(kind);
      for (const CandidatePath& c : found) {
        EXPECT_TRUE(std::find(covering.begin(), covering.end(), c.state) !=
                    covering.end())
            << c.state.ToString(*env);
        // Distance consistency with a direct computation.
        EXPECT_NEAR(c.distance, StateDistance(kind, *env, c.state, query),
                    1e-9);
      }

      // (2) Every minimum-distance candidate of each resolver is a
      // formal Def.-12 match, so the one winner rule is checked through
      // all three of its callers.
      const std::vector<CandidatePath> tree_best =
          resolver.ResolveBest(query, options);
      const std::vector<CandidatePath> flat_best =
          flat_resolver.ResolveBest(query, options);
      const std::vector<CandidatePath> scan_best =
          store.ResolveBest(query, options);
      for (const std::vector<CandidatePath>* best :
           {&tree_best, &flat_best, &scan_best}) {
        for (const CandidatePath& c : *best) {
          EXPECT_TRUE(std::find(matches.begin(), matches.end(), c.state) !=
                      matches.end())
              << "query " << query.ToString(*env) << " best "
              << c.state.ToString(*env) << " under "
              << DistanceKindToString(kind);
        }
      }

      // (3) The three resolvers agree on the winning states and their
      // distances.
      SCOPED_TRACE("query " + query.ToString(*env) + " under " +
                   DistanceKindToString(kind));
      ExpectSameWinners(*env, tree_best, flat_best);
      ExpectSameWinners(*env, tree_best, scan_best);
    }

    // (4) Exact lookup agrees with membership of the exact state.
    const bool stored =
        std::find(covering.begin(), covering.end(), query) != covering.end() &&
        query.Covers(*env, query);
    const bool exact_hit = tree->ExactLookup(query) != nullptr;
    const bool exact_stored =
        !store.SearchExact(query).empty();
    EXPECT_EQ(exact_hit, exact_stored) << query.ToString(*env);
    if (exact_hit) {
      EXPECT_TRUE(stored);
    }
  }
}

TEST_P(ExhaustiveSemanticsTest, CoversRelationIsAPartialOrderOnTheWorld) {
  EnvironmentPtr env = TinyEnv();
  std::vector<ContextState> world = AllExtendedStates(*env);
  // Complete check of Theorem 1 over all pairs/triples (18³ = 5832).
  for (const ContextState& a : world) {
    EXPECT_TRUE(a.Covers(*env, a));
    for (const ContextState& b : world) {
      if (a.Covers(*env, b) && b.Covers(*env, a)) {
        EXPECT_EQ(a, b);
      }
      for (const ContextState& c : world) {
        if (a.Covers(*env, b) && b.Covers(*env, c)) {
          EXPECT_TRUE(a.Covers(*env, c));
        }
      }
    }
  }
}

TEST_P(ExhaustiveSemanticsTest, DistancesCompatibleWithCoversEverywhere) {
  EnvironmentPtr env = TinyEnv();
  std::vector<ContextState> world = AllExtendedStates(*env);
  // Complete check of Properties 2/3 over all covering triples.
  for (const ContextState& s1 : world) {
    for (const ContextState& s2 : world) {
      if (!s2.Covers(*env, s1) || s1 == s2) continue;
      for (const ContextState& s3 : world) {
        if (!s3.Covers(*env, s2) || s2 == s3) continue;
        EXPECT_GT(HierarchyStateDistance(*env, s3, s1),
                  HierarchyStateDistance(*env, s2, s1))
            << s1.ToString(*env) << " " << s2.ToString(*env) << " "
            << s3.ToString(*env);
        // Jaccard: >= in general (see DESIGN.md errata on Property 3),
        // strict when some detailed extent strictly grows.
        EXPECT_GE(JaccardStateDistance(*env, s3, s1) + 1e-12,
                  JaccardStateDistance(*env, s2, s1));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExhaustiveSemanticsTest,
                         ::testing::Values(601, 602, 603, 604, 605));

}  // namespace
}  // namespace ctxpref
