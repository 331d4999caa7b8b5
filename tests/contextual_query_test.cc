#include "preference/contextual_query.h"

#include <gtest/gtest.h>

#include "context/parser.h"
#include "tests/test_util.h"
#include "workload/poi_dataset.h"

namespace ctxpref {
namespace {

using ::ctxpref::testing::Pref;
using ::ctxpref::testing::State;

class ContextualQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    StatusOr<workload::PoiDatabase> poi = workload::MakePoiDatabase(40, 3);
    ASSERT_OK(poi.status());
    poi_ = std::make_unique<workload::PoiDatabase>(std::move(*poi));
    env_ = poi_->env;
  }

  /// Finds a row id by POI name.
  db::RowId RowByName(const std::string& name) {
    const size_t col = *poi_->relation.schema().IndexOf("name");
    for (db::RowId r = 0; r < poi_->relation.size(); ++r) {
      if (poi_->relation.row(r)[col].AsString() == name) return r;
    }
    ADD_FAILURE() << "no POI named " << name;
    return 0;
  }

  ContextualQuery QueryFor(const std::string& ecod_text) {
    StatusOr<ExtendedDescriptor> ecod =
        ParseExtendedDescriptor(*env_, ecod_text);
    EXPECT_OK(ecod.status());
    ContextualQuery q;
    q.context = *ecod;
    return q;
  }

  std::unique_ptr<workload::PoiDatabase> poi_;
  EnvironmentPtr env_;
};

TEST_F(ContextualQueryTest, RankCSScoresMatchingTuples) {
  Profile p(env_);
  ASSERT_OK(p.Insert(Pref(*env_, "location = Plaka and temperature = warm",
                          "name", "Acropolis", 0.8)));
  StatusOr<ProfileTree> tree = ProfileTree::Build(p);
  ASSERT_OK(tree.status());
  TreeResolver resolver(&*tree);

  StatusOr<QueryResult> result = RankCS(
      poi_->relation,
      QueryFor("location = Plaka and temperature = warm"), resolver);
  ASSERT_OK(result.status());
  ASSERT_EQ(result->tuples.size(), 1u);
  EXPECT_EQ(result->tuples[0].row_id, RowByName("Acropolis"));
  EXPECT_DOUBLE_EQ(result->tuples[0].score, 0.8);
  ASSERT_EQ(result->traces.size(), 1u);
  EXPECT_EQ(result->traces[0].candidates->size(), 1u);
}

TEST_F(ContextualQueryTest, CoverResolutionAppliesGeneralPreference) {
  Profile p(env_);
  ASSERT_OK(p.Insert(
      Pref(*env_, "accompanying_people = friends", "type", "brewery", 0.9)));
  StatusOr<ProfileTree> tree = ProfileTree::Build(p);
  ASSERT_OK(tree.status());
  TreeResolver resolver(&*tree);

  // Query at detailed level: covered by the friends-only preference.
  StatusOr<QueryResult> result = RankCS(
      poi_->relation,
      QueryFor("location = Plaka and temperature = warm and "
               "accompanying_people = friends"),
      resolver);
  ASSERT_OK(result.status());
  ASSERT_FALSE(result->tuples.empty());
  const size_t type_col = *poi_->relation.schema().IndexOf("type");
  for (const db::ScoredTuple& t : result->tuples) {
    EXPECT_EQ(poi_->relation.row(t.row_id)[type_col].AsString(), "brewery");
    EXPECT_DOUBLE_EQ(t.score, 0.9);
  }
}

TEST_F(ContextualQueryTest, DisjunctiveContextUnionsResults) {
  Profile p(env_);
  ASSERT_OK(p.Insert(
      Pref(*env_, "temperature = hot", "type", "park", 0.9)));
  ASSERT_OK(p.Insert(
      Pref(*env_, "temperature = freezing", "type", "museum", 0.8)));
  StatusOr<ProfileTree> tree = ProfileTree::Build(p);
  ASSERT_OK(tree.status());
  TreeResolver resolver(&*tree);

  StatusOr<QueryResult> result = RankCS(
      poi_->relation,
      QueryFor("temperature = hot or temperature = freezing"), resolver);
  ASSERT_OK(result.status());
  const size_t type_col = *poi_->relation.schema().IndexOf("type");
  bool saw_park = false, saw_museum = false;
  for (const db::ScoredTuple& t : result->tuples) {
    const std::string& type = poi_->relation.row(t.row_id)[type_col].AsString();
    saw_park |= type == "park";
    saw_museum |= type == "museum";
  }
  EXPECT_TRUE(saw_park);
  EXPECT_TRUE(saw_museum);
  EXPECT_EQ(result->traces.size(), 2u);
}

TEST_F(ContextualQueryTest, CombinePolicyMaxOnDuplicates) {
  Profile p(env_);
  // Two preferences that both apply at (all, hot, friends) and target
  // overlapping tuples (type=park scored differently per context).
  ASSERT_OK(p.Insert(Pref(*env_, "temperature = hot", "type", "park", 0.9)));
  ASSERT_OK(p.Insert(
      Pref(*env_, "accompanying_people = friends", "type", "park", 0.5)));
  StatusOr<ProfileTree> tree = ProfileTree::Build(p);
  ASSERT_OK(tree.status());
  TreeResolver resolver(&*tree);

  // The query has two states (via or), one resolving to each pref.
  ContextualQuery q = QueryFor(
      "(temperature = hot) or (accompanying_people = friends)");
  QueryOptions max_opts;
  max_opts.combine = db::CombinePolicy::kMax;
  StatusOr<QueryResult> result = RankCS(poi_->relation, q, resolver, max_opts);
  ASSERT_OK(result.status());
  ASSERT_FALSE(result->tuples.empty());
  for (const db::ScoredTuple& t : result->tuples) {
    EXPECT_DOUBLE_EQ(t.score, 0.9);
  }

  QueryOptions avg_opts;
  avg_opts.combine = db::CombinePolicy::kAvg;
  StatusOr<QueryResult> avg = RankCS(poi_->relation, q, resolver, avg_opts);
  ASSERT_OK(avg.status());
  for (const db::ScoredTuple& t : avg->tuples) {
    EXPECT_DOUBLE_EQ(t.score, 0.7);
  }
}

TEST_F(ContextualQueryTest, SelectionsRestrictEligibleTuples) {
  Profile p(env_);
  ASSERT_OK(p.Insert(Pref(*env_, "*", "type", "park", 0.9)));
  StatusOr<ProfileTree> tree = ProfileTree::Build(p);
  ASSERT_OK(tree.status());
  TreeResolver resolver(&*tree);

  ContextualQuery q = QueryFor("temperature = hot");
  StatusOr<db::Predicate> sel = db::Predicate::Create(
      poi_->relation.schema(), "location", db::CompareOp::kEq,
      db::Value("Plaka"));
  ASSERT_OK(sel.status());
  q.selections.push_back(*sel);

  StatusOr<QueryResult> result = RankCS(poi_->relation, q, resolver);
  ASSERT_OK(result.status());
  const size_t loc_col = *poi_->relation.schema().IndexOf("location");
  for (const db::ScoredTuple& t : result->tuples) {
    EXPECT_EQ(poi_->relation.row(t.row_id)[loc_col].AsString(), "Plaka");
  }
}

TEST_F(ContextualQueryTest, EmptyContextUsesAllState) {
  Profile p(env_);
  ASSERT_OK(p.Insert(Pref(*env_, "*", "type", "museum", 0.6)));
  StatusOr<ProfileTree> tree = ProfileTree::Build(p);
  ASSERT_OK(tree.status());
  TreeResolver resolver(&*tree);
  ContextualQuery q;  // No context at all.
  StatusOr<QueryResult> result = RankCS(poi_->relation, q, resolver);
  ASSERT_OK(result.status());
  EXPECT_FALSE(result->tuples.empty());
}

TEST_F(ContextualQueryTest, NoApplicablePreferenceYieldsEmpty) {
  Profile p(env_);
  ASSERT_OK(p.Insert(Pref(*env_, "location = Perama", "type", "park", 0.9)));
  StatusOr<ProfileTree> tree = ProfileTree::Build(p);
  ASSERT_OK(tree.status());
  TreeResolver resolver(&*tree);
  StatusOr<QueryResult> result =
      RankCS(poi_->relation, QueryFor("location = Plaka"), resolver);
  ASSERT_OK(result.status());
  EXPECT_TRUE(result->tuples.empty());
  ASSERT_EQ(result->traces.size(), 1u);
  EXPECT_TRUE(result->traces[0].candidates->empty());
}

TEST_F(ContextualQueryTest, TopKCapsResults) {
  Profile p(env_);
  ASSERT_OK(p.Insert(Pref(*env_, "*", "type", "park", 0.9)));
  ASSERT_OK(p.Insert(Pref(*env_, "*", "type", "museum", 0.8)));
  StatusOr<ProfileTree> tree = ProfileTree::Build(p);
  ASSERT_OK(tree.status());
  TreeResolver resolver(&*tree);
  QueryOptions options;
  options.top_k = 3;
  StatusOr<QueryResult> result =
      RankCS(poi_->relation, QueryFor("temperature = hot"), resolver, options);
  ASSERT_OK(result.status());
  // Top-3 extends through the tie at the 3rd score (all parks are 0.9).
  ASSERT_GE(result->tuples.size(), 3u);
  const double third = result->tuples[2].score;
  for (size_t i = 3; i < result->tuples.size(); ++i) {
    EXPECT_DOUBLE_EQ(result->tuples[i].score, third);
  }
}

TEST_F(ContextualQueryTest, TreeAndSequentialBackendsAgree) {
  Profile p(env_);
  ASSERT_OK(p.Insert(Pref(*env_, "temperature = hot", "type", "park", 0.9)));
  ASSERT_OK(p.Insert(
      Pref(*env_, "accompanying_people = friends", "type", "brewery", 0.7)));
  StatusOr<ProfileTree> tree = ProfileTree::Build(p);
  ASSERT_OK(tree.status());
  TreeResolver resolver(&*tree);
  SequentialStore store = SequentialStore::Build(p);

  ContextualQuery q = QueryFor(
      "location = Plaka and temperature = hot and "
      "accompanying_people = friends");
  StatusOr<QueryResult> a = RankCS(poi_->relation, q, resolver);
  StatusOr<QueryResult> b = RankCS(poi_->relation, q, store);
  ASSERT_OK(a.status());
  ASSERT_OK(b.status());
  EXPECT_EQ(a->tuples, b->tuples);
}

TEST_F(ContextualQueryTest, UnknownClauseAttributeFailsCleanly) {
  Profile p(env_);
  ASSERT_OK(p.Insert(Pref(*env_, "*", "nonexistent_column", "x", 0.5)));
  StatusOr<ProfileTree> tree = ProfileTree::Build(p);
  ASSERT_OK(tree.status());
  TreeResolver resolver(&*tree);
  StatusOr<QueryResult> result =
      RankCS(poi_->relation, QueryFor("temperature = hot"), resolver);
  EXPECT_TRUE(result.status().IsNotFound());
}

}  // namespace
}  // namespace ctxpref
