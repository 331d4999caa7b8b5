#include <gtest/gtest.h>

#include "context/validate.h"
#include "preference/qualitative.h"
#include "tests/test_util.h"
#include "workload/synthetic_hierarchy.h"

namespace ctxpref {
namespace {

using ::ctxpref::testing::PaperEnv;

class ValidateTest : public ::testing::Test {};

TEST_F(ValidateTest, PaperEnvironmentIsSound) {
  EnvironmentPtr env = PaperEnv();
  EXPECT_OK(ValidateEnvironment(*env, /*require_monotone=*/true));
}

TEST_F(ValidateTest, SyntheticHierarchiesAreSound) {
  for (size_t levels : {1u, 2u, 3u}) {
    StatusOr<HierarchyPtr> h =
        workload::MakeSyntheticHierarchy("h", 60, levels, 5);
    ASSERT_OK(h.status());
    EXPECT_OK(ValidateHierarchyInvariants(**h, true)) << levels;
  }
}

TEST_F(ValidateTest, NonMonotoneDetectedOnlyWhenRequired) {
  HierarchyBuilder b("h");
  b.AddDetailedLevel("L0", {"a", "b"});
  b.AddLevel("L1", {{"p", {"b"}}, {"q", {"a"}}});
  b.set_require_monotone(false);
  StatusOr<HierarchyPtr> h = b.Build();
  ASSERT_OK(h.status());
  EXPECT_OK(ValidateHierarchyInvariants(**h, /*require_monotone=*/false));
  EXPECT_TRUE(ValidateHierarchyInvariants(**h, /*require_monotone=*/true)
                  .IsCorruption());
}

// ---- Composition operators ----

class CompositionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    StatusOr<db::Schema> schema =
        db::Schema::Create({{"type", db::ColumnType::kString},
                            {"cost", db::ColumnType::kString}});
    ASSERT_OK(schema.status());
    relation_ = std::make_unique<db::Relation>(std::move(*schema));
    // (museum, cheap), (museum, pricey), (park, cheap), (park, pricey)
    for (const char* type : {"museum", "park"}) {
      for (const char* cost : {"cheap", "pricey"}) {
        ASSERT_OK(relation_->Append({db::Value(type), db::Value(cost)}));
      }
    }
    env_ = PaperEnv();
    type_pref_ = MakePref("type", "museum", "park");
    cost_pref_ = MakePref("cost", "cheap", "pricey");
  }

  QualitativePreference MakePref(const char* col, const char* better,
                                 const char* worse) {
    StatusOr<CompositeDescriptor> cod = ParseCompositeDescriptor(*env_, "*");
    StatusOr<db::Predicate> b = db::Predicate::Create(
        relation_->schema(), col, db::CompareOp::kEq, db::Value(better));
    StatusOr<db::Predicate> w = db::Predicate::Create(
        relation_->schema(), col, db::CompareOp::kEq, db::Value(worse));
    StatusOr<QualitativePreference> pref =
        QualitativePreference::Create(std::move(*cod), {*b}, {*w});
    EXPECT_OK(pref.status());
    return *pref;
  }

  EnvironmentPtr env_;
  std::unique_ptr<db::Relation> relation_;
  std::optional<QualitativePreference> type_pref_;
  std::optional<QualitativePreference> cost_pref_;
};

TEST_F(CompositionTest, OpinionSigns) {
  // Rows: 0=(museum,cheap) 1=(museum,pricey) 2=(park,cheap) 3=(park,pricey)
  EXPECT_EQ(PreferenceOpinion(*type_pref_, relation_->row(0),
                              relation_->row(2)),
            1);
  EXPECT_EQ(PreferenceOpinion(*type_pref_, relation_->row(2),
                              relation_->row(0)),
            -1);
  EXPECT_EQ(PreferenceOpinion(*type_pref_, relation_->row(0),
                              relation_->row(1)),
            0);
}

TEST_F(CompositionTest, ParetoRequiresNoOpposition) {
  std::vector<const QualitativePreference*> prefs = {&*type_pref_,
                                                     &*cost_pref_};
  // (museum,cheap) Pareto-dominates (park,pricey): better on both.
  EXPECT_TRUE(ParetoDominates(prefs, relation_->row(0), relation_->row(3)));
  // (museum,pricey) vs (park,cheap): opposed -> no domination either way.
  EXPECT_FALSE(ParetoDominates(prefs, relation_->row(1), relation_->row(2)));
  EXPECT_FALSE(ParetoDominates(prefs, relation_->row(2), relation_->row(1)));
  // (museum,cheap) dominates (museum,pricey): tie on type, strict cost.
  EXPECT_TRUE(ParetoDominates(prefs, relation_->row(0), relation_->row(1)));

  std::vector<db::RowId> winners = WinnowWith(
      *relation_, [&](const db::Tuple& a, const db::Tuple& b) {
        return ParetoDominates(prefs, a, b);
      });
  // Pareto-optimal: (museum,cheap) only — it dominates all others.
  EXPECT_EQ(winners, (std::vector<db::RowId>{0}));
}

TEST_F(CompositionTest, PrioritizedFirstOpinionWins) {
  std::vector<const QualitativePreference*> type_first = {&*type_pref_,
                                                          &*cost_pref_};
  // (museum,pricey) vs (park,cheap): type decides -> museum wins.
  EXPECT_TRUE(
      PrioritizedDominates(type_first, relation_->row(1), relation_->row(2)));
  std::vector<const QualitativePreference*> cost_first = {&*cost_pref_,
                                                          &*type_pref_};
  // Cost decides first -> cheap park beats pricey museum.
  EXPECT_TRUE(
      PrioritizedDominates(cost_first, relation_->row(2), relation_->row(1)));

  std::vector<db::RowId> winners = WinnowWith(
      *relation_, [&](const db::Tuple& a, const db::Tuple& b) {
        return PrioritizedDominates(type_first, a, b);
      });
  EXPECT_EQ(winners, (std::vector<db::RowId>{0}));
}

TEST_F(CompositionTest, ParetoIsStricterThanUnionWinnow) {
  // The union semantics (plain Winnow) lets a single strict edge kill
  // a tuple even when another preference opposes it; Pareto does not.
  std::vector<const QualitativePreference*> prefs = {&*type_pref_,
                                                     &*cost_pref_};
  std::vector<db::RowId> union_winners = Winnow(*relation_, prefs);
  std::vector<db::RowId> pareto_winners = WinnowWith(
      *relation_, [&](const db::Tuple& a, const db::Tuple& b) {
        return ParetoDominates(prefs, a, b);
      });
  // Every union winner is a Pareto winner.
  for (db::RowId r : union_winners) {
    EXPECT_TRUE(std::find(pareto_winners.begin(), pareto_winners.end(), r) !=
                pareto_winners.end());
  }
  EXPECT_LE(union_winners.size(), pareto_winners.size());
}

}  // namespace
}  // namespace ctxpref
