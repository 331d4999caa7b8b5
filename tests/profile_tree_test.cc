#include "preference/profile_tree.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace ctxpref {
namespace {

using ::ctxpref::testing::PaperEnv;
using ::ctxpref::testing::Pref;
using ::ctxpref::testing::State;

class ProfileTreeTest : public ::testing::Test {
 protected:
  /// The profile of the paper's Fig. 4: cafeteria @ (Kifisia, warm,
  /// friends), brewery @ friends, Acropolis @ Plaka × {warm, hot}.
  Profile Fig4Profile() {
    Profile p(env_);
    EXPECT_OK(p.Insert(Pref(*env_,
                            "location = Kifisia and temperature = warm and "
                            "accompanying_people = friends",
                            "type", "cafeteria", 0.9)));
    EXPECT_OK(p.Insert(
        Pref(*env_, "accompanying_people = friends", "type", "brewery", 0.9)));
    EXPECT_OK(p.Insert(Pref(*env_,
                            "location = Plaka and temperature in {warm, hot}",
                            "name", "Acropolis", 0.8)));
    return p;
  }

  /// Fig. 4's level assignment: accompanying_people (param 2) at level
  /// 1, temperature (param 1) at level 2, location (param 0) at level 3.
  Ordering Fig4Ordering() {
    return *Ordering::FromPermutation({2, 1, 0});
  }

  EnvironmentPtr env_ = PaperEnv();
};

TEST_F(ProfileTreeTest, BuildsFig4Tree) {
  Profile p = Fig4Profile();
  StatusOr<ProfileTree> tree = ProfileTree::Build(p, Fig4Ordering());
  ASSERT_OK(tree.status());
  // Fig. 4: root {friends, all}; under friends {warm, all}; under
  // friends/warm {Kifisia}; under friends/all {all}; under all
  // {warm, hot}; under all/warm {Plaka}; under all/hot {Plaka}.
  // Paths: (f,w,K), (f,all,all), (all,w,P), (all,h,P) = 4.
  EXPECT_EQ(tree->PathCount(), 4u);
  // Cells: level1: 2 (friends, all); level2: 2 (warm, all) + 2
  // (warm, hot) = 4; level3: 1 (Kifisia) + 1 (all) + 1 (Plaka) + 1
  // (Plaka) = 4. Total internal cells = 2 + 4 + 4 = 10... but the last
  // level's cells point to leaves, so cells = 10 and leaf nodes = 4.
  EXPECT_EQ(tree->CellCount(), 10u);
  EXPECT_EQ(tree->LeafEntryCount(), 4u);
  // Nodes: root + 2 (level2) + 4 (level3) + 4 leaves = 11.
  EXPECT_EQ(tree->NodeCount(), 11u);
}

TEST_F(ProfileTreeTest, ExactLookupFindsLeaf) {
  Profile p = Fig4Profile();
  StatusOr<ProfileTree> tree = ProfileTree::Build(p, Fig4Ordering());
  ASSERT_OK(tree.status());
  const auto* entries =
      tree->ExactLookup(State(*env_, {"Kifisia", "warm", "friends"}));
  ASSERT_NE(entries, nullptr);
  ASSERT_EQ(entries->size(), 1u);
  EXPECT_EQ((*entries)[0].clause.value.AsString(), "cafeteria");
  EXPECT_DOUBLE_EQ((*entries)[0].score, 0.9);
}

TEST_F(ProfileTreeTest, ExactLookupIsExactNotCovering) {
  Profile p = Fig4Profile();
  StatusOr<ProfileTree> tree = ProfileTree::Build(p, Fig4Ordering());
  ASSERT_OK(tree.status());
  // (Plaka, warm, friends) has covering paths but no exact path.
  EXPECT_EQ(tree->ExactLookup(State(*env_, {"Plaka", "warm", "friends"})),
            nullptr);
  // The stored generalized state is found exactly.
  EXPECT_NE(tree->ExactLookup(State(*env_, {"Plaka", "warm", "all"})),
            nullptr);
}

TEST_F(ProfileTreeTest, ExactLookupCountsCellAccesses) {
  Profile p = Fig4Profile();
  StatusOr<ProfileTree> tree = ProfileTree::Build(p, Fig4Ordering());
  ASSERT_OK(tree.status());
  AccessCounter counter;
  tree->ExactLookup(State(*env_, {"Kifisia", "warm", "friends"}), &counter);
  // Level 1: friends is the 1st cell (1 access). Level 2: warm 1st
  // (1 access). Level 3: Kifisia 1st (1 access). Total 3.
  EXPECT_EQ(counter.cells(), 3u);
  // A miss scans whole nodes on the failing level.
  counter.Reset();
  tree->ExactLookup(State(*env_, {"Perama", "warm", "friends"}), &counter);
  EXPECT_GT(counter.cells(), 0u);
}

TEST_F(ProfileTreeTest, SharedPrefixesShareCells) {
  Profile p(env_);
  ASSERT_OK(p.Insert(Pref(*env_, "accompanying_people = friends and "
                          "temperature = warm", "type", "park", 0.9)));
  ASSERT_OK(p.Insert(Pref(*env_, "accompanying_people = friends and "
                          "temperature = hot", "type", "park", 0.7)));
  StatusOr<ProfileTree> tree =
      ProfileTree::Build(p, *Ordering::FromPermutation({2, 1, 0}));
  ASSERT_OK(tree.status());
  // friends shared at level 1: 1 cell; warm+hot at level 2: 2 cells;
  // all+all at level 3: 2 cells.
  EXPECT_EQ(tree->CellCount(), 5u);
  EXPECT_EQ(tree->PathCount(), 2u);
}

TEST_F(ProfileTreeTest, InsertConflictLeavesTreeUnchanged) {
  Profile p = Fig4Profile();
  StatusOr<ProfileTree> tree = ProfileTree::Build(p, Fig4Ordering());
  ASSERT_OK(tree.status());
  const size_t cells = tree->CellCount();
  const size_t entries = tree->LeafEntryCount();
  // Conflicts on the second of its two states — had insertion begun
  // before checking, the first state's path would leak.
  ContextualPreference conflicting =
      Pref(*env_, "location = Plaka and temperature in {freezing, hot}",
           "name", "Acropolis", 0.2);
  Status st = tree->Insert(conflicting);
  EXPECT_TRUE(st.IsConflict()) << st.ToString();
  EXPECT_EQ(tree->CellCount(), cells);
  EXPECT_EQ(tree->LeafEntryCount(), entries);
}

TEST_F(ProfileTreeTest, DuplicatePathIsDeduplicated) {
  Profile p(env_);
  ASSERT_OK(p.Insert(Pref(*env_, "location = Plaka", "name", "Acropolis", 0.8)));
  StatusOr<ProfileTree> tree = ProfileTree::Build(p);
  ASSERT_OK(tree.status());
  const size_t entries = tree->LeafEntryCount();
  // Re-inserting the identical (state, clause, score) adds no entry.
  StatusOr<CompositeDescriptor> cod = CompositeDescriptor::ForState(
      *env_, State(*env_, {"Plaka", "all", "all"}));
  ASSERT_OK(cod.status());
  StatusOr<ContextualPreference> again = ContextualPreference::Create(
      std::move(*cod),
      AttributeClause{"name", db::CompareOp::kEq, db::Value("Acropolis")},
      0.8);
  ASSERT_OK(again.status());
  EXPECT_OK(tree->Insert(*again));
  EXPECT_EQ(tree->LeafEntryCount(), entries);
  EXPECT_EQ(tree->preferences().size(), 2u);
}

TEST_F(ProfileTreeTest, MultipleClausesShareALeaf) {
  Profile p(env_);
  ASSERT_OK(p.Insert(Pref(*env_, "location = Plaka", "name", "Acropolis", 0.8)));
  ASSERT_OK(p.Insert(Pref(*env_, "location = Plaka", "type", "museum", 0.6)));
  StatusOr<ProfileTree> tree = ProfileTree::Build(p);
  ASSERT_OK(tree.status());
  EXPECT_EQ(tree->PathCount(), 1u);
  const auto* entries = tree->ExactLookup(State(*env_, {"Plaka", "all", "all"}));
  ASSERT_NE(entries, nullptr);
  EXPECT_EQ(entries->size(), 2u);
}

TEST_F(ProfileTreeTest, ByteSizeModel) {
  Profile p = Fig4Profile();
  StatusOr<ProfileTree> tree = ProfileTree::Build(p, Fig4Ordering());
  ASSERT_OK(tree.status());
  EXPECT_EQ(tree->ByteSize(), tree->CellCount() * ProfileTree::kCellBytes +
                                  tree->LeafEntryCount() *
                                      ProfileTree::kLeafEntryBytes);
}

TEST_F(ProfileTreeTest, OrderingAffectsCellCount) {
  // With location (15 active values... here few) vs companion domains,
  // putting the small domain first shares more prefixes.
  Profile p(env_);
  for (const char* region : {"Plaka", "Kifisia", "Monastiraki", "Kolonaki"}) {
    ASSERT_OK(p.Insert(Pref(*env_,
                            std::string("location = ") + region +
                                " and accompanying_people = friends",
                            "type", "cafeteria", 0.9)));
  }
  StatusOr<ProfileTree> small_first =
      ProfileTree::Build(p, *Ordering::FromPermutation({2, 1, 0}));
  StatusOr<ProfileTree> large_first =
      ProfileTree::Build(p, *Ordering::FromPermutation({0, 1, 2}));
  ASSERT_OK(small_first.status());
  ASSERT_OK(large_first.status());
  EXPECT_LT(small_first->CellCount(), large_first->CellCount());
}

TEST_F(ProfileTreeTest, BuildRejectsMismatchedOrdering) {
  Profile p = Fig4Profile();
  EXPECT_TRUE(ProfileTree::Build(p, *Ordering::FromPermutation({1, 0}))
                  .status()
                  .IsInvalidArgument());
}

TEST_F(ProfileTreeTest, GreedyBuildPlacesLargeDomainsLow) {
  Profile p = Fig4Profile();
  StatusOr<ProfileTree> tree = ProfileTree::Build(p);
  ASSERT_OK(tree.status());
  std::vector<uint64_t> active = ActiveDomainSizes(p);
  const Ordering& order = tree->ordering();
  for (size_t l = 0; l + 1 < order.size(); ++l) {
    EXPECT_LE(active[order.param_at_level(l)],
              active[order.param_at_level(l + 1)]);
  }
}

}  // namespace
}  // namespace ctxpref
