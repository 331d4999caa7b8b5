// Arena build edge cases (ISSUE 7 satellite): the flat tree must agree
// with the pointer tree on the degenerate shapes the fuzzers rarely
// draw — an empty profile, a single-state profile, a chain hierarchy
// whose ancestor extents equal their children's (the DESIGN.md
// Property-3 erratum, where every Jaccard distance along the chain
// ties), and a leaf entry two preferences share, across removal from
// the profile and rebuild. The arena built straight from a `Profile`
// must equal the arena of its pointer tree on the same shapes.

#include "preference/flat_profile_tree.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "context/environment.h"
#include "context/hierarchy.h"
#include "context/parser.h"
#include "db/value.h"
#include "preference/ordering.h"
#include "preference/profile.h"
#include "preference/profile_tree.h"
#include "preference/resolution.h"
#include "tests/test_util.h"

namespace ctxpref {
namespace {

EnvironmentPtr TwoFlatEnv() {
  StatusOr<HierarchyPtr> mood =
      MakeFlatHierarchy("mood", "Mood", {"happy", "sad"});
  EXPECT_TRUE(mood.ok());
  StatusOr<HierarchyPtr> day = MakeFlatHierarchy("day", "Day", {"work", "off"});
  EXPECT_TRUE(day.ok());
  std::vector<ContextParameter> params;
  params.emplace_back("mood", *mood);
  params.emplace_back("day", *day);
  StatusOr<EnvironmentPtr> env = ContextEnvironment::Create(std::move(params));
  EXPECT_TRUE(env.ok());
  return *env;
}

/// A chain hierarchy with one value per level: City {athens} under
/// Country {greece} under ALL. Every ancestor's detailed extent is
/// {athens}, so all Jaccard distances along the chain are 0 — the
/// Property-3 degenerate case.
EnvironmentPtr ChainEnv() {
  HierarchyBuilder pb("place");
  pb.AddDetailedLevel("City", {"athens"});
  pb.AddLevel("Country", {{"greece", {"athens"}}});
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

AttributeClause Clause(const std::string& value) {
  return AttributeClause{"attr", db::CompareOp::kEq, db::Value(value)};
}

/// `attr = value : score` for the single state `s`.
ContextualPreference StatePref(const ContextEnvironment& env,
                               const ContextState& s, const std::string& value,
                               double score) {
  StatusOr<CompositeDescriptor> cod = CompositeDescriptor::ForState(env, s);
  EXPECT_OK(cod.status());
  StatusOr<ContextualPreference> pref =
      ContextualPreference::Create(std::move(*cod), Clause(value), score);
  EXPECT_OK(pref.status());
  return std::move(*pref);
}

void ExpectParity(const ProfileTree& tree, const FlatProfileTree& flat,
                  const ContextState& query, DistanceKind kind) {
  TreeResolver pointer_resolver(&tree);
  FlatResolver flat_resolver(&flat);
  ResolutionOptions ropts;
  ropts.distance = kind;
  for (const bool exact_only : {false, true}) {
    ropts.exact_only = exact_only;
    const std::vector<CandidatePath> pointer =
        pointer_resolver.ResolveBest(query, ropts);
    const std::vector<CandidatePath> via_flat =
        flat_resolver.ResolveBest(query, ropts);
    ASSERT_EQ(pointer.size(), via_flat.size());
    for (size_t i = 0; i < pointer.size(); ++i) {
      EXPECT_TRUE(pointer[i].state == via_flat[i].state);
      EXPECT_EQ(pointer[i].distance, via_flat[i].distance);
      ASSERT_EQ(pointer[i].entries.size(), via_flat[i].entries.size());
      for (size_t j = 0; j < pointer[i].entries.size(); ++j) {
        EXPECT_TRUE(pointer[i].entries[j].clause ==
                    via_flat[i].entries[j].clause);
        EXPECT_EQ(pointer[i].entries[j].score, via_flat[i].entries[j].score);
      }
    }
  }
}

TEST(FlatProfileTreeTest, EmptyProfileBuildsEmptyArena) {
  EnvironmentPtr env = TwoFlatEnv();
  ProfileTree tree(env, Ordering::Identity(env->size()));
  const FlatProfileTree flat = FlatProfileTree::Build(tree);

  EXPECT_EQ(flat.PathCount(), 0u);
  EXPECT_EQ(flat.CellCount(), 0u);
  EXPECT_EQ(flat.NodeCount(), tree.NodeCount());
  EXPECT_EQ(flat.LeafEntryCount(), 0u);
  EXPECT_GT(flat.MeasuredByteSize(), 0u);

  const ContextState q({ValueRef{0, 0}, ValueRef{0, 1}});
  EXPECT_EQ(flat.ExactLookup(q), FlatProfileTree::kNoLeaf);
  FlatResolver resolver(&flat);
  EXPECT_TRUE(resolver.SearchCS(q).empty());
  EXPECT_TRUE(resolver.ResolveBest(q).empty());
  for (DistanceKind kind :
       {DistanceKind::kHierarchy, DistanceKind::kJaccard}) {
    ExpectParity(tree, flat, q, kind);
  }
}

TEST(FlatProfileTreeTest, SingleStateProfileRoundTrips) {
  EnvironmentPtr env = TwoFlatEnv();
  ProfileTree tree(env, Ordering::Identity(env->size()));
  const ContextState s({ValueRef{0, 0}, ValueRef{0, 1}});  // (happy, off)
  ASSERT_OK(tree.Insert(StatePref(*env, s, "v1", 0.75)));
  const FlatProfileTree flat = FlatProfileTree::Build(tree);

  EXPECT_EQ(flat.PathCount(), 1u);
  EXPECT_EQ(flat.CellCount(), tree.CellCount());
  EXPECT_EQ(flat.NodeCount(), tree.NodeCount());
  EXPECT_EQ(flat.LeafEntryCount(), 1u);

  const uint32_t leaf = flat.ExactLookup(s);
  ASSERT_NE(leaf, FlatProfileTree::kNoLeaf);
  const std::vector<ProfileTree::LeafEntry> entries = flat.EntriesOf(leaf);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_TRUE(entries[0].clause == Clause("v1"));
  EXPECT_EQ(entries[0].score, 0.75);

  // The exact query resolves to the stored state at distance 0; a
  // different detailed state resolves to nothing (flat hierarchies
  // only share the ALL ancestor, which is not stored).
  FlatResolver resolver(&flat);
  const std::vector<CandidatePath> best = resolver.ResolveBest(s);
  ASSERT_EQ(best.size(), 1u);
  EXPECT_TRUE(best[0].state == s);
  EXPECT_EQ(best[0].distance, 0.0);
  for (DistanceKind kind :
       {DistanceKind::kHierarchy, DistanceKind::kJaccard}) {
    ExpectParity(tree, flat, s, kind);
    ExpectParity(tree, flat, ContextState({ValueRef{0, 1}, ValueRef{0, 0}}),
                 kind);
  }
}

TEST(FlatProfileTreeTest, DegenerateChainHierarchyJaccardTieBreak) {
  EnvironmentPtr env = ChainEnv();
  ProfileTree tree(env, Ordering::Identity(env->size()));
  const ValueRef athens{0, 0};
  const ValueRef greece{1, 0};
  const ValueRef all_place{2, 0};
  const ValueRef happy{0, 0};
  ASSERT_OK(tree.Insert(
      StatePref(*env, ContextState({athens, happy}), "exact", 0.5)));
  ASSERT_OK(tree.Insert(
      StatePref(*env, ContextState({greece, happy}), "country", 0.6)));
  ASSERT_OK(tree.Insert(
      StatePref(*env, ContextState({all_place, happy}), "all", 0.7)));
  const FlatProfileTree flat = FlatProfileTree::Build(tree);

  // Jaccard: all three stored states are at distance 0 from the
  // detailed query (equal extents along the chain — the Property-3
  // erratum), so the hierarchy-distance tie-break must pick the exact
  // state alone. Flat and pointer must agree on all of it.
  const ContextState q({athens, happy});
  FlatResolver resolver(&flat);
  ResolutionOptions jaccard;
  jaccard.distance = DistanceKind::kJaccard;
  ASSERT_EQ(resolver.SearchCS(q, jaccard).size(), 3u);
  const std::vector<CandidatePath> best = resolver.ResolveBest(q, jaccard);
  ASSERT_EQ(best.size(), 1u);
  EXPECT_TRUE(best[0].state == q);
  ASSERT_EQ(best[0].entries.size(), 1u);
  EXPECT_TRUE(best[0].entries[0].clause == Clause("exact"));
  for (DistanceKind kind :
       {DistanceKind::kHierarchy, DistanceKind::kJaccard}) {
    ExpectParity(tree, flat, q, kind);
    ExpectParity(tree, flat, ContextState({greece, happy}), kind);
    ExpectParity(tree, flat, ContextState({all_place, ValueRef{1, 0}}), kind);
  }
}

TEST(FlatProfileTreeTest, SharedEntrySurvivesRemovingOneOfItsPreferences) {
  EnvironmentPtr env = TwoFlatEnv();
  Profile profile(env);
  // Both preferences put v2 at 0.4 on (sad, work); the second also
  // covers (sad, off).
  for (const char* descriptor :
       {"mood = sad and day = work", "mood = sad and day in {work, off}"}) {
    StatusOr<CompositeDescriptor> cod =
        ParseCompositeDescriptor(*env, descriptor);
    ASSERT_OK(cod.status());
    StatusOr<ContextualPreference> pref =
        ContextualPreference::Create(std::move(*cod), Clause("v2"), 0.4);
    ASSERT_OK(pref.status());
    ASSERT_OK(profile.Insert(std::move(*pref)));
  }
  const ContextState s({ValueRef{0, 1}, ValueRef{0, 0}});  // (sad, work)
  // Rebuilds both indexes from `profile`: while `held`, each holds the
  // shared entry once at `s`; after, neither has a path to `s`.
  const auto expect_rebuilds = [&](bool held) {
    StatusOr<ProfileTree> tree = ProfileTree::Build(profile);
    ASSERT_OK(tree.status());
    const FlatProfileTree flat = FlatProfileTree::Build(profile);
    const std::vector<ProfileTree::LeafEntry>* pointer = tree->ExactLookup(s);
    const uint32_t leaf = flat.ExactLookup(s);
    if (held) {
      ASSERT_NE(pointer, nullptr);
      ASSERT_EQ(pointer->size(), 1u);
      EXPECT_TRUE((*pointer)[0].clause == Clause("v2"));
      EXPECT_EQ((*pointer)[0].score, 0.4);
      ASSERT_NE(leaf, FlatProfileTree::kNoLeaf);
      const std::vector<ProfileTree::LeafEntry> entries =
          flat.EntriesOf(leaf);
      ASSERT_EQ(entries.size(), 1u);
      EXPECT_TRUE(entries[0].clause == Clause("v2"));
      EXPECT_EQ(entries[0].score, 0.4);
    } else {
      EXPECT_EQ(pointer, nullptr);
      EXPECT_EQ(leaf, FlatProfileTree::kNoLeaf);
    }
    ExpectParity(*tree, flat, s, DistanceKind::kHierarchy);
  };
  expect_rebuilds(true);
  // The second preference still puts the entry on (sad, work).
  ASSERT_OK(profile.Remove(0));
  expect_rebuilds(true);
  ASSERT_OK(profile.Remove(0));
  expect_rebuilds(false);
}

/// The arena publishing builds (straight from the profile) must equal
/// the arena of its pointer tree; checked through everything the arena
/// exposes.
void ExpectDirectEqualsTreeArena(const Profile& profile,
                                 const std::vector<ContextState>& queries) {
  const FlatProfileTree direct = FlatProfileTree::Build(profile);
  StatusOr<ProfileTree> tree = ProfileTree::Build(profile);
  ASSERT_OK(tree.status());
  const FlatProfileTree flat = FlatProfileTree::Build(*tree);
  EXPECT_TRUE(direct.ordering() == flat.ordering());
  EXPECT_EQ(direct.CellCount(), flat.CellCount());
  EXPECT_EQ(direct.NodeCount(), flat.NodeCount());
  ASSERT_EQ(direct.PathCount(), flat.PathCount());
  EXPECT_EQ(direct.LeafEntryCount(), flat.LeafEntryCount());
  for (uint32_t leaf = 0; leaf < flat.PathCount(); ++leaf) {
    const std::vector<ProfileTree::LeafEntry> a = direct.EntriesOf(leaf);
    const std::vector<ProfileTree::LeafEntry> b = flat.EntriesOf(leaf);
    ASSERT_EQ(a.size(), b.size());
    for (size_t j = 0; j < a.size(); ++j) {
      EXPECT_TRUE(a[j].clause == b[j].clause);
      EXPECT_EQ(a[j].score, b[j].score);
    }
  }
  for (const ContextState& q : queries) {
    EXPECT_EQ(direct.ExactLookup(q), flat.ExactLookup(q));
    for (DistanceKind kind :
         {DistanceKind::kHierarchy, DistanceKind::kJaccard}) {
      ExpectParity(*tree, direct, q, kind);
    }
  }
}

TEST(FlatProfileTreeTest, DirectBuildOfEmptyProfile) {
  EnvironmentPtr env = TwoFlatEnv();
  const Profile profile(env);
  const FlatProfileTree flat = FlatProfileTree::Build(profile);
  EXPECT_TRUE(flat.ordering() == Ordering::Identity(env->size()));
  EXPECT_EQ(flat.PathCount(), 0u);
  EXPECT_EQ(flat.CellCount(), 0u);
  EXPECT_EQ(flat.NodeCount(), 1u);
  EXPECT_EQ(flat.LeafEntryCount(), 0u);
  const ContextState q({ValueRef{0, 0}, ValueRef{0, 1}});
  EXPECT_EQ(flat.ExactLookup(q), FlatProfileTree::kNoLeaf);
  ExpectDirectEqualsTreeArena(profile, {q});
}

TEST(FlatProfileTreeTest, DirectBuildCountsSharedEntries) {
  EnvironmentPtr env = TwoFlatEnv();
  Profile profile(env);
  // Two preferences put the same (clause, score) on (happy, all): one
  // leaf entry, as the pointer tree's merge gives.
  StatusOr<CompositeDescriptor> both =
      ParseCompositeDescriptor(*env, "mood in {happy, sad}");
  ASSERT_OK(both.status());
  StatusOr<CompositeDescriptor> happy =
      ParseCompositeDescriptor(*env, "mood = happy");
  ASSERT_OK(happy.status());
  StatusOr<ContextualPreference> p1 =
      ContextualPreference::Create(std::move(*both), Clause("v2"), 0.4);
  ASSERT_OK(p1.status());
  StatusOr<ContextualPreference> p2 =
      ContextualPreference::Create(std::move(*happy), Clause("v2"), 0.4);
  ASSERT_OK(p2.status());
  ASSERT_OK(profile.Insert(*p1));
  ASSERT_OK(profile.Insert(*p2));

  const FlatProfileTree flat = FlatProfileTree::Build(profile);
  EXPECT_EQ(flat.PathCount(), 2u);
  EXPECT_EQ(flat.LeafEntryCount(), 2u);
  const ContextState happy_all({ValueRef{0, 0}, ValueRef{1, 0}});
  const ContextState sad_all({ValueRef{0, 1}, ValueRef{1, 0}});
  // Each leaf holds the one clause, v2 at 0.4.
  for (const ContextState& s : {happy_all, sad_all}) {
    const uint32_t leaf = flat.ExactLookup(s);
    ASSERT_NE(leaf, FlatProfileTree::kNoLeaf);
    const std::vector<ProfileTree::LeafEntry> entries = flat.EntriesOf(leaf);
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_TRUE(entries[0].clause == Clause("v2"));
    EXPECT_EQ(entries[0].score, 0.4);
  }
  ExpectDirectEqualsTreeArena(
      profile,
      {happy_all, sad_all, ContextState({ValueRef{0, 0}, ValueRef{0, 0}})});
}

TEST(FlatProfileTreeTest, ReboundArenaMeasuresWhatAFreshBuildMeasures) {
  EnvironmentPtr env = TwoFlatEnv();
  Profile profile(env);
  for (const char* cod : {"mood in {happy, sad}", "mood = sad and day = off",
                          "day in {work, off}"}) {
    StatusOr<CompositeDescriptor> d = ParseCompositeDescriptor(*env, cod);
    ASSERT_OK(d.status());
    StatusOr<ContextualPreference> pref =
        ContextualPreference::Create(std::move(*d), Clause(cod), 0.5);
    ASSERT_OK(pref.status());
    ASSERT_OK(profile.Insert(*pref));
  }
  const FlatProfileTree previous = FlatProfileTree::Build(profile);
  ASSERT_OK(profile.UpdateScore(0, 0.75));
  const FlatProfileTree rebound = FlatProfileTree::Build(
      std::make_shared<const Profile>(profile), &previous);
  const FlatProfileTree fresh = FlatProfileTree::Build(profile);
  ASSERT_TRUE(rebound.SharesShapeWith(previous));
  ASSERT_FALSE(fresh.SharesShapeWith(previous));
  // The shared shape counts in full: bytes as if the arena were alone.
  EXPECT_EQ(rebound.MeasuredByteSize(), fresh.MeasuredByteSize());
  EXPECT_EQ(previous.MeasuredByteSize(), fresh.MeasuredByteSize());
}

}  // namespace
}  // namespace ctxpref
