#include "preference/resolution.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "preference/ordering.h"
#include "preference/sequential_store.h"
#include "tests/test_util.h"

namespace ctxpref {
namespace {

using ::ctxpref::testing::PaperEnv;
using ::ctxpref::testing::Pref;
using ::ctxpref::testing::State;
using ::ctxpref::testing::TinyEnv;

class ResolutionTest : public ::testing::Test {
 protected:
  void Add(Profile& p, const std::string& cod, const std::string& attr,
           const std::string& value, double score) {
    ASSERT_OK(p.Insert(Pref(*env_, cod, attr, value, score)));
  }

  EnvironmentPtr env_ = PaperEnv();
};

TEST_F(ResolutionTest, ExactMatchWinsWithDistanceZero) {
  Profile p(env_);
  Add(p, "location = Plaka and temperature = warm", "name", "Acropolis", 0.8);
  Add(p, "location = Athens", "type", "museum", 0.7);
  StatusOr<ProfileTree> tree = ProfileTree::Build(p);
  ASSERT_OK(tree.status());
  TreeResolver resolver(&*tree);

  std::vector<CandidatePath> best =
      resolver.ResolveBest(State(*env_, {"Plaka", "warm", "all"}));
  ASSERT_EQ(best.size(), 1u);
  EXPECT_DOUBLE_EQ(best[0].distance, 0.0);
  EXPECT_EQ(best[0].state, State(*env_, {"Plaka", "warm", "all"}));
}

TEST_F(ResolutionTest, PaperSection42MoreSpecificWins) {
  // Profile: (Greece, warm) and (Europe→here Greece-level vs city) —
  // we reproduce the paper's first §4.2 example with Greece vs Athens:
  // query (Plaka, warm): (Athens, warm) is more specific than
  // (Greece, warm) and must win.
  Profile p(env_);
  Add(p, "location = Greece and temperature = warm", "type", "park", 0.5);
  Add(p, "location = Athens and temperature = warm", "type", "park", 0.9);
  StatusOr<ProfileTree> tree = ProfileTree::Build(p);
  ASSERT_OK(tree.status());
  TreeResolver resolver(&*tree);

  std::vector<CandidatePath> best =
      resolver.ResolveBest(State(*env_, {"Plaka", "warm", "all"}));
  ASSERT_EQ(best.size(), 1u);
  EXPECT_EQ(best[0].state, State(*env_, {"Athens", "warm", "all"}));
  ASSERT_EQ(best[0].entries.size(), 1u);
  EXPECT_DOUBLE_EQ(best[0].entries[0].score, 0.9);
}

TEST_F(ResolutionTest, PaperSection42IncomparableTie) {
  // The paper's second §4.2 example: (Greece, warm) and (Athens, good)
  // both cover (Athens, warm); neither covers the other. Under the
  // hierarchy distance both are 1 away -> tie, both returned.
  Profile p(env_);
  Add(p, "location = Greece and temperature = warm", "type", "park", 0.5);
  Add(p, "location = Athens and temperature = good", "type", "park", 0.9);
  StatusOr<ProfileTree> tree = ProfileTree::Build(p);
  ASSERT_OK(tree.status());
  TreeResolver resolver(&*tree);

  ContextState q = State(*env_, {"Athens", "warm", "all"});
  ResolutionOptions hier;
  hier.distance = DistanceKind::kHierarchy;
  std::vector<CandidatePath> best = resolver.ResolveBest(q, hier);
  EXPECT_EQ(best.size(), 2u);

  // The Jaccard distance breaks the tie: Athens's detailed extent (8
  // regions) is smaller than Greece's (15) but 'good' (3 conditions)
  // is larger than 'warm'... compute both and expect a single winner.
  ResolutionOptions jacc;
  jacc.distance = DistanceKind::kJaccard;
  std::vector<CandidatePath> jbest = resolver.ResolveBest(q, jacc);
  EXPECT_EQ(jbest.size(), 1u);
  // d(Greece/Athens) = 1 - 8/15; d(warm/warm) = 0 => 7/15 ≈ 0.467.
  // d(Athens/Athens) = 0; d(good/warm) = 1 - 1/3 ≈ 0.667.
  EXPECT_EQ(jbest[0].state, State(*env_, {"Greece", "warm", "all"}));
}

TEST(ResolveBestOrderTest, TiedWinnersComeBackInStateOrder) {
  // (a, happy) is one hierarchy step from both (X, happy) and (a, all),
  // and 1/2 a Jaccard step from each (X holds two spots, all two
  // moods), so the two tie under both distances. They are inserted in
  // descending state order; every resolver, under every ordering,
  // returns them ascending.
  EnvironmentPtr env = TinyEnv();
  Profile p(env);
  ASSERT_OK(p.Insert(Pref(*env, "place = X and mood = happy", "attr", "x",
                          0.5)));
  ASSERT_OK(p.Insert(Pref(*env, "place = a", "attr", "a", 0.7)));
  const ContextState query = State(*env, {"a", "happy"});
  const std::vector<ContextState> expected = {State(*env, {"a", "all"}),
                                              State(*env, {"X", "happy"})};
  ASSERT_LT(expected[0], expected[1]);

  StatusOr<std::vector<Ordering>> orderings = AllOrderings(env->size());
  ASSERT_OK(orderings.status());
  const SequentialStore store = SequentialStore::Build(p);
  const FlatProfileTree greedy = FlatProfileTree::Build(p);
  for (DistanceKind kind :
       {DistanceKind::kHierarchy, DistanceKind::kJaccard}) {
    const ResolutionOptions options{.distance = kind};
    auto expect_winners = [&](const std::vector<CandidatePath>& best,
                              const std::string& label) {
      ASSERT_EQ(best.size(), expected.size()) << label;
      for (size_t i = 0; i < best.size(); ++i) {
        EXPECT_EQ(best[i].state, expected[i])
            << label << " winner " << i << ": "
            << best[i].state.ToString(*env);
      }
    };
    const std::string kind_name = DistanceKindToString(kind);
    expect_winners(store.ResolveBest(query, options),
                   "sequential " + kind_name);
    expect_winners(FlatResolver(&greedy).ResolveBest(query, options),
                   "flat greedy " + kind_name);
    for (const Ordering& order : *orderings) {
      StatusOr<ProfileTree> tree = ProfileTree::Build(p, order);
      ASSERT_OK(tree.status());
      const FlatProfileTree flat = FlatProfileTree::Build(*tree);
      const std::string where = order.ToString(*env) + " " + kind_name;
      expect_winners(TreeResolver(&*tree).ResolveBest(query, options),
                     "tree " + where);
      expect_winners(FlatResolver(&flat).ResolveBest(query, options),
                     "flat " + where);
    }
  }
}

TEST_F(ResolutionTest, NoCoverMeansEmptyResult) {
  Profile p(env_);
  Add(p, "location = Perama", "type", "park", 0.5);
  StatusOr<ProfileTree> tree = ProfileTree::Build(p);
  ASSERT_OK(tree.status());
  TreeResolver resolver(&*tree);
  EXPECT_TRUE(
      resolver.ResolveBest(State(*env_, {"Plaka", "warm", "friends"})).empty());
}

TEST_F(ResolutionTest, AllStatePreferenceCoversEverything) {
  Profile p(env_);
  Add(p, "*", "type", "museum", 0.6);
  StatusOr<ProfileTree> tree = ProfileTree::Build(p);
  ASSERT_OK(tree.status());
  TreeResolver resolver(&*tree);
  std::vector<CandidatePath> best =
      resolver.ResolveBest(State(*env_, {"Plaka", "warm", "friends"}));
  ASSERT_EQ(best.size(), 1u);
  EXPECT_EQ(best[0].state, ContextState::AllState(*env_));
  // location 'all' is 3 levels above Region, temperature 'all' 2 above
  // Conditions, companions 'all' 1 above Relationship: distH = 6.
  EXPECT_DOUBLE_EQ(best[0].distance, 6.0);
}

TEST_F(ResolutionTest, SearchCSReturnsAllCoveringCandidates) {
  Profile p(env_);
  Add(p, "*", "type", "museum", 0.6);
  Add(p, "accompanying_people = friends", "type", "brewery", 0.9);
  Add(p, "location = Athens", "type", "cafeteria", 0.7);
  Add(p, "location = Perama", "type", "park", 0.5);  // Not covering.
  StatusOr<ProfileTree> tree = ProfileTree::Build(p);
  ASSERT_OK(tree.status());
  TreeResolver resolver(&*tree);
  std::vector<CandidatePath> all =
      resolver.SearchCS(State(*env_, {"Plaka", "warm", "friends"}));
  EXPECT_EQ(all.size(), 3u);
}

TEST_F(ResolutionTest, ExactOnlyOptionRestricts) {
  Profile p(env_);
  Add(p, "*", "type", "museum", 0.6);
  Add(p, "location = Plaka", "type", "park", 0.9);
  StatusOr<ProfileTree> tree = ProfileTree::Build(p);
  ASSERT_OK(tree.status());
  TreeResolver resolver(&*tree);
  ResolutionOptions exact;
  exact.exact_only = true;
  EXPECT_TRUE(
      resolver.SearchCS(State(*env_, {"Plaka", "warm", "all"}), exact).empty());
  EXPECT_EQ(
      resolver.SearchCS(State(*env_, {"Plaka", "all", "all"}), exact).size(),
      1u);
}

TEST_F(ResolutionTest, CountsCellAccesses) {
  Profile p(env_);
  Add(p, "location = Plaka", "type", "park", 0.9);
  Add(p, "location = Athens", "type", "museum", 0.7);
  StatusOr<ProfileTree> tree = ProfileTree::Build(p);
  ASSERT_OK(tree.status());
  TreeResolver resolver(&*tree);
  AccessCounter counter;
  resolver.SearchCS(State(*env_, {"Plaka", "warm", "friends"}), {}, &counter);
  EXPECT_GT(counter.cells(), 0u);
}

/// `BestCandidateIndices` over plain distance lists: `distance[i]` is
/// candidate i's distance, `hierarchy[i]` its hierarchy distance (read
/// only by the Jaccard tie-break).
std::vector<size_t> Winners(const std::vector<double>& distance,
                            DistanceKind kind = DistanceKind::kHierarchy,
                            const std::vector<double>& hierarchy = {}) {
  return BestCandidateIndices(
      distance.size(), kind, [&](size_t i) { return distance[i]; },
      [&](size_t i) { return hierarchy.at(i); });
}

TEST_F(ResolutionTest, BestCandidatesKeepsAllMinima) {
  EXPECT_EQ(Winners({2.0, 1.0, 1.0}), (std::vector<size_t>{1, 2}));
  EXPECT_TRUE(Winners({}).empty());
}

TEST_F(ResolutionTest, BestCandidatesKeepsEpsilonTies) {
  // Two candidates whose per-level Jaccard sums are mathematically
  // equal but accumulate in different orders: 0.1 + 0.2 != 0.3 in
  // binary floating point. Exact `==` used to drop one of them.
  const double accumulated = 0.1 + 0.2;  // 0.30000000000000004...
  const double direct = 0.3;
  ASSERT_NE(accumulated, direct);  // The tie really is inexact.
  ASSERT_TRUE(NearlyEqual(accumulated, direct));
  EXPECT_EQ(Winners({accumulated, direct}), (std::vector<size_t>{0, 1}));
  // Order independence: the larger representation first.
  EXPECT_EQ(Winners({direct, accumulated}), (std::vector<size_t>{0, 1}));

  // The Jaccard tie-break's second stage ties the same way: three
  // candidates tie at Jaccard distance 0 (a degenerate chain), two of
  // them sit at the minimum hierarchy distance one ulp apart, and the
  // third a real step above.
  const double low = 1.0;
  const double ulp_above = std::nextafter(low, 2.0);
  ASSERT_NE(low, ulp_above);
  EXPECT_EQ(Winners({0.0, 0.0, 0.0}, DistanceKind::kJaccard,
                    {ulp_above, 2.0, low}),
            (std::vector<size_t>{0, 2}));
  // Under kHierarchy the second stage does not run.
  EXPECT_EQ(Winners({0.0, 0.0, 0.0}, DistanceKind::kHierarchy,
                    {ulp_above, 2.0, low}),
            (std::vector<size_t>{0, 1, 2}));
}

TEST_F(ResolutionTest, NearlyEqualIsRelative) {
  EXPECT_TRUE(NearlyEqual(0.0, 0.0));
  EXPECT_TRUE(NearlyEqual(1e9, 1e9 + 0.5));    // Relative slack scales up.
  EXPECT_FALSE(NearlyEqual(0.3, 0.3000001));   // A real difference stays one.
  EXPECT_FALSE(NearlyEqual(1.0, 2.0));
}

TEST_F(ResolutionTest, FormalMatchesDef12) {
  Profile p(env_);
  Add(p, "location = Greece and temperature = warm", "type", "park", 0.5);
  Add(p, "location = Athens and temperature = good", "type", "park", 0.9);
  Add(p, "*", "type", "museum", 0.6);  // Covers everything, never minimal
                                        // when something tighter covers.
  ContextState q = State(*env_, {"Athens", "warm", "all"});
  std::vector<ContextState> matches = FormalMatches(p, q);
  // (Greece, warm, all) and (Athens, good, all) are both minimal; the
  // all-state covers both so it is not minimal.
  ASSERT_EQ(matches.size(), 2u);
  EXPECT_TRUE(std::find(matches.begin(), matches.end(),
                        State(*env_, {"Greece", "warm", "all"})) !=
              matches.end());
  EXPECT_TRUE(std::find(matches.begin(), matches.end(),
                        State(*env_, {"Athens", "good", "all"})) !=
              matches.end());
}

TEST_F(ResolutionTest, MinDistanceCandidateIsAlwaysAFormalMatch) {
  Profile p(env_);
  Add(p, "location = Greece and temperature = warm", "type", "park", 0.5);
  Add(p, "location = Athens and temperature = good", "type", "park", 0.9);
  Add(p, "*", "type", "museum", 0.6);
  StatusOr<ProfileTree> tree = ProfileTree::Build(p);
  ASSERT_OK(tree.status());
  TreeResolver resolver(&*tree);

  ContextState q = State(*env_, {"Athens", "warm", "all"});
  std::vector<ContextState> matches = FormalMatches(p, q);
  for (DistanceKind kind : {DistanceKind::kHierarchy, DistanceKind::kJaccard}) {
    ResolutionOptions options;
    options.distance = kind;
    for (const CandidatePath& c : resolver.ResolveBest(q, options)) {
      EXPECT_TRUE(std::find(matches.begin(), matches.end(), c.state) !=
                  matches.end())
          << DistanceKindToString(kind) << " picked non-match "
          << c.state.ToString(*env_);
    }
  }
}

TEST_F(ResolutionTest, CoveringStatesDeduplicates) {
  Profile p(env_);
  // Two preferences denoting the same state.
  Add(p, "location = Plaka", "type", "park", 0.9);
  Add(p, "location = Plaka", "name", "Acropolis", 0.8);
  std::vector<ContextState> covering =
      CoveringStates(p, State(*env_, {"Plaka", "warm", "all"}));
  EXPECT_EQ(covering.size(), 1u);
}

}  // namespace
}  // namespace ctxpref
