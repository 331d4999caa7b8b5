#include "context/hierarchy.h"

#include <gtest/gtest.h>

#include <vector>

#include "tests/test_util.h"
#include "workload/synthetic_hierarchy.h"

namespace ctxpref {
namespace {

/// The paper's Fig. 1 location hierarchy: Region ≺ City ≺ Country ≺ ALL
/// with Plaka/Kifisia under Athens, Perama under Ioannina.
StatusOr<HierarchyPtr> Fig1Location() {
  HierarchyBuilder b("location");
  b.AddDetailedLevel("Region", {"Plaka", "Kifisia", "Perama"});
  b.AddLevel("City", {{"Athens", {"Plaka", "Kifisia"}},
                      {"Ioannina", {"Perama"}}});
  b.AddLevel("Country", {{"Greece", {"Athens", "Ioannina"}}});
  return b.Build();
}

TEST(HierarchyTest, BuildsPaperLocationHierarchy) {
  StatusOr<HierarchyPtr> h = Fig1Location();
  ASSERT_OK(h.status());
  EXPECT_EQ((*h)->num_levels(), 4);  // Region, City, Country, ALL
  EXPECT_EQ((*h)->level_name(0), "Region");
  EXPECT_EQ((*h)->level_name(3), "ALL");
  EXPECT_EQ((*h)->level_size(0), 3u);
  EXPECT_EQ((*h)->level_size(3), 1u);
  EXPECT_EQ((*h)->extended_domain_size(), 3u + 2u + 1u + 1u);
}

TEST(HierarchyTest, AncMatchesPaperExample) {
  StatusOr<HierarchyPtr> h = Fig1Location();
  ASSERT_OK(h.status());
  // anc^City_Region(Plaka) = Athens (paper §3.1).
  ValueRef plaka = *(*h)->Find(0, "Plaka");
  ValueRef athens = (*h)->Anc(plaka, 1);
  EXPECT_EQ((*h)->value_name(athens), "Athens");
  // Composition: anc^Country_Region(Plaka) = Greece.
  EXPECT_EQ((*h)->value_name((*h)->Anc(plaka, 2)), "Greece");
  // Identity: anc to own level.
  EXPECT_EQ((*h)->Anc(plaka, 0), plaka);
  // Top: everything maps to 'all'.
  EXPECT_EQ((*h)->Anc(plaka, 3), (*h)->AllValue());
}

TEST(HierarchyTest, DescMatchesPaperExample) {
  StatusOr<HierarchyPtr> h = Fig1Location();
  ASSERT_OK(h.status());
  // desc^City_Region(Athens) = {Plaka, Kifisia}.
  ValueRef athens = *(*h)->Find(1, "Athens");
  std::vector<ValueRef> regions = (*h)->Desc(athens, 0);
  ASSERT_EQ(regions.size(), 2u);
  EXPECT_EQ((*h)->value_name(regions[0]), "Plaka");
  EXPECT_EQ((*h)->value_name(regions[1]), "Kifisia");
  // desc^Country_City(Greece) = {Athens, Ioannina}.
  ValueRef greece = *(*h)->Find(2, "Greece");
  std::vector<ValueRef> cities = (*h)->Desc(greece, 1);
  ASSERT_EQ(cities.size(), 2u);
  EXPECT_EQ((*h)->value_name(cities[0]), "Athens");
  EXPECT_EQ((*h)->value_name(cities[1]), "Ioannina");
  // Desc to own level is identity.
  std::vector<ValueRef> self = (*h)->Desc(athens, 1);
  ASSERT_EQ(self.size(), 1u);
  EXPECT_EQ(self[0], athens);
}

TEST(HierarchyTest, DetailedDescendantCounts) {
  StatusOr<HierarchyPtr> h = Fig1Location();
  ASSERT_OK(h.status());
  EXPECT_EQ((*h)->DetailedDescendantCount(*(*h)->Find(0, "Plaka")), 1u);
  EXPECT_EQ((*h)->DetailedDescendantCount(*(*h)->Find(1, "Athens")), 2u);
  EXPECT_EQ((*h)->DetailedDescendantCount(*(*h)->Find(1, "Ioannina")), 1u);
  EXPECT_EQ((*h)->DetailedDescendantCount(*(*h)->Find(2, "Greece")), 3u);
  EXPECT_EQ((*h)->DetailedDescendantCount((*h)->AllValue()), 3u);
}

TEST(HierarchyTest, IsAncestorOrSelf) {
  StatusOr<HierarchyPtr> h = Fig1Location();
  ASSERT_OK(h.status());
  ValueRef plaka = *(*h)->Find(0, "Plaka");
  ValueRef perama = *(*h)->Find(0, "Perama");
  ValueRef athens = *(*h)->Find(1, "Athens");
  ValueRef ioannina = *(*h)->Find(1, "Ioannina");
  EXPECT_TRUE((*h)->IsAncestorOrSelf(athens, plaka));
  EXPECT_FALSE((*h)->IsAncestorOrSelf(athens, perama));
  EXPECT_TRUE((*h)->IsAncestorOrSelf(ioannina, perama));
  EXPECT_TRUE((*h)->IsAncestorOrSelf(plaka, plaka));
  EXPECT_FALSE((*h)->IsAncestorOrSelf(plaka, athens));  // Wrong direction.
  EXPECT_TRUE((*h)->IsAncestorOrSelf((*h)->AllValue(), plaka));
}

TEST(HierarchyTest, JaccardDistanceNestedAndDisjoint) {
  StatusOr<HierarchyPtr> h = Fig1Location();
  ASSERT_OK(h.status());
  ValueRef plaka = *(*h)->Find(0, "Plaka");
  ValueRef perama = *(*h)->Find(0, "Perama");
  ValueRef athens = *(*h)->Find(1, "Athens");
  ValueRef greece = *(*h)->Find(2, "Greece");
  // Identical values: distance 0.
  EXPECT_DOUBLE_EQ((*h)->JaccardDistance(plaka, plaka), 0.0);
  // Nested: 1 - 1/2.
  EXPECT_DOUBLE_EQ((*h)->JaccardDistance(athens, plaka), 0.5);
  EXPECT_DOUBLE_EQ((*h)->JaccardDistance(plaka, athens), 0.5);
  // Nested deeper: 1 - 1/3.
  EXPECT_NEAR((*h)->JaccardDistance(greece, plaka), 2.0 / 3.0, 1e-12);
  // Disjoint siblings: 1.
  EXPECT_DOUBLE_EQ((*h)->JaccardDistance(plaka, perama), 1.0);
  // Nested city in country: 1 - 2/3.
  EXPECT_NEAR((*h)->JaccardDistance(greece, athens), 1.0 / 3.0, 1e-12);
}

TEST(HierarchyTest, LevelDistanceIsChainDistance) {
  StatusOr<HierarchyPtr> h = Fig1Location();
  ASSERT_OK(h.status());
  EXPECT_EQ((*h)->LevelDistance(0, 0), 0u);
  EXPECT_EQ((*h)->LevelDistance(0, 2), 2u);
  EXPECT_EQ((*h)->LevelDistance(3, 1), 2u);
}

TEST(HierarchyTest, FindAnyLevelSearchesDetailedFirst) {
  StatusOr<HierarchyPtr> h = Fig1Location();
  ASSERT_OK(h.status());
  StatusOr<ValueRef> v = (*h)->FindAnyLevel("Athens");
  ASSERT_OK(v.status());
  EXPECT_EQ(v->level, 1);
  EXPECT_TRUE((*h)->FindAnyLevel("Atlantis").status().IsNotFound());
  StatusOr<ValueRef> all = (*h)->FindAnyLevel("all");
  ASSERT_OK(all.status());
  EXPECT_EQ(*all, (*h)->AllValue());
}

TEST(HierarchyTest, FindLevel) {
  StatusOr<HierarchyPtr> h = Fig1Location();
  ASSERT_OK(h.status());
  EXPECT_EQ(*(*h)->FindLevel("City"), 1);
  EXPECT_EQ(*(*h)->FindLevel("ALL"), 3);
  EXPECT_TRUE((*h)->FindLevel("Continent").status().IsNotFound());
}

TEST(HierarchyBuilderTest, RejectsDuplicateValues) {
  HierarchyBuilder b("h");
  b.AddDetailedLevel("L0", {"a", "b", "a"});
  EXPECT_TRUE(b.Build().status().IsInvalidArgument());
}

TEST(HierarchyBuilderTest, RejectsUnknownChild) {
  HierarchyBuilder b("h");
  b.AddDetailedLevel("L0", {"a", "b"});
  b.AddLevel("L1", {{"p", {"a", "zz"}}});
  EXPECT_TRUE(b.Build().status().IsInvalidArgument());
}

TEST(HierarchyBuilderTest, RejectsUnparentedChild) {
  HierarchyBuilder b("h");
  b.AddDetailedLevel("L0", {"a", "b"});
  b.AddLevel("L1", {{"p", {"a"}}});  // b has no parent.
  EXPECT_TRUE(b.Build().status().IsInvalidArgument());
}

TEST(HierarchyBuilderTest, RejectsDoubleParent) {
  HierarchyBuilder b("h");
  b.AddDetailedLevel("L0", {"a", "b"});
  b.AddLevel("L1", {{"p", {"a", "b"}}, {"q", {"b"}}});
  EXPECT_TRUE(b.Build().status().IsInvalidArgument());
}

TEST(HierarchyBuilderTest, EnforcesMonotonicityByDefault) {
  // a < b but parent(a)=q (index 1) > parent(b)=p (index 0): violates
  // the paper's condition 3.
  HierarchyBuilder b("h");
  b.AddDetailedLevel("L0", {"a", "b"});
  b.AddLevel("L1", {{"p", {"b"}}, {"q", {"a"}}});
  EXPECT_TRUE(b.Build().status().IsInvalidArgument());
}

TEST(HierarchyBuilderTest, MonotonicityCanBeRelaxed) {
  HierarchyBuilder b("h");
  b.AddDetailedLevel("L0", {"a", "b"});
  b.AddLevel("L1", {{"p", {"b"}}, {"q", {"a"}}});
  b.set_require_monotone(false);
  EXPECT_OK(b.Build().status());
}

TEST(HierarchyBuilderTest, RejectsEmptyHierarchy) {
  HierarchyBuilder b("h");
  EXPECT_TRUE(b.Build().status().IsInvalidArgument());
}

TEST(HierarchyBuilderTest, RejectsDetailedLevelTwice) {
  HierarchyBuilder b("h");
  b.AddDetailedLevel("L0", {"a"});
  b.AddDetailedLevel("L0b", {"b"});
  EXPECT_TRUE(b.Build().status().IsInvalidArgument());
}

TEST(HierarchyBuilderTest, FlatHierarchyHasTwoLevels) {
  StatusOr<HierarchyPtr> h = MakeFlatHierarchy("company", "Relationship",
                                               {"friends", "family", "alone"});
  ASSERT_OK(h.status());
  EXPECT_EQ((*h)->num_levels(), 2);
  EXPECT_EQ((*h)->level_size(0), 3u);
  // Everything is a child of 'all'.
  EXPECT_EQ((*h)->DetailedDescendantCount((*h)->AllValue()), 3u);
}

/// The extended-domain key layout `Hierarchy::Key` promises: a
/// bijection of every (level, id) onto [0, extended_domain_size()),
/// inverted by `ValueAt`, each level a contiguous run of keys in id
/// order and the levels in order — the layout the flat arena's per-node
/// key sort and binary search rely on.
void ExpectDenseKeyLayout(const Hierarchy& h) {
  SCOPED_TRACE(h.name());
  std::vector<bool> taken(h.extended_domain_size(), false);
  uint32_t next = 0;
  for (LevelIndex l = 0; l < h.num_levels(); ++l) {
    for (ValueId id = 0; id < h.level_size(l); ++id) {
      const ValueRef v{l, id};
      const uint32_t key = h.Key(v);
      ASSERT_LT(key, h.extended_domain_size());
      EXPECT_FALSE(taken[key]) << "key " << key << " taken twice";
      taken[key] = true;
      EXPECT_EQ(key, next++) << "level " << l << " id " << id;
      EXPECT_EQ(h.ValueAt(key), v);
      EXPECT_EQ(h.level_of_keys()[key], l);
    }
  }
  EXPECT_EQ(next, h.extended_domain_size());
}

TEST(HierarchyTest, KeysAreDenseLevelOrderedAndInvertible) {
  const EnvironmentPtr env = ::ctxpref::testing::PaperEnv();
  for (const ContextParameter& p : env->parameters()) {
    ExpectDenseKeyLayout(p.hierarchy());
  }
  StatusOr<HierarchyPtr> synthetic =
      workload::MakeSyntheticHierarchy("syn", 50, 3, 4);
  ASSERT_OK(synthetic.status());
  EXPECT_EQ((*synthetic)->extended_domain_size(), 50u + 13u + 4u + 1u);
  ExpectDenseKeyLayout(**synthetic);
}

TEST(HierarchyTest, ContainsValidatesRefs) {
  StatusOr<HierarchyPtr> h = Fig1Location();
  ASSERT_OK(h.status());
  EXPECT_TRUE((*h)->Contains(ValueRef{0, 2}));
  EXPECT_FALSE((*h)->Contains(ValueRef{0, 3}));
  EXPECT_FALSE((*h)->Contains(ValueRef{9, 0}));
}

}  // namespace
}  // namespace ctxpref
