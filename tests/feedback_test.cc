#include "preference/feedback.h"

#include <gtest/gtest.h>

#include <cmath>

#include "preference/explain.h"
#include "preference/replicated_query_cache.h"
#include "storage/profile_store.h"
#include "tests/test_util.h"
#include "workload/poi_dataset.h"

namespace ctxpref {
namespace {

using ::ctxpref::testing::Pref;
using ::ctxpref::testing::State;

class FeedbackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    StatusOr<workload::PoiDatabase> poi = workload::MakePoiDatabase(40, 19);
    ASSERT_OK(poi.status());
    poi_ = std::make_unique<workload::PoiDatabase>(std::move(*poi));
    env_ = poi_->env;
  }

  db::RowId RowOfType(const std::string& type) {
    const size_t col = *poi_->relation.schema().IndexOf("type");
    for (db::RowId r = 0; r < poi_->relation.size(); ++r) {
      if (poi_->relation.row(r)[col].AsString() == type) return r;
    }
    ADD_FAILURE() << "no POI of type " << type;
    return 0;
  }

  std::unique_ptr<workload::PoiDatabase> poi_;
  EnvironmentPtr env_;
};

TEST_F(FeedbackTest, PositiveFeedbackRaisesMatchingScore) {
  Profile p(env_);
  ASSERT_OK(p.Insert(
      Pref(*env_, "accompanying_people = friends", "type", "brewery", 0.5)));
  FeedbackEvent event{State(*env_, {"Plaka", "warm", "friends"}),
                      RowOfType("brewery"), +1};
  StatusOr<FeedbackOutcome> outcome =
      ApplyFeedback(p, poi_->relation, event);
  ASSERT_OK(outcome.status());
  EXPECT_EQ(outcome->rescored, 1u);
  EXPECT_FALSE(outcome->created);
  // 0.5 + 0.2·(1 − 0.5) = 0.6.
  EXPECT_DOUBLE_EQ(p.preference(0).score(), 0.6);
}

TEST_F(FeedbackTest, NegativeFeedbackLowersScore) {
  Profile p(env_);
  ASSERT_OK(p.Insert(
      Pref(*env_, "accompanying_people = friends", "type", "brewery", 0.5)));
  FeedbackEvent event{State(*env_, {"Plaka", "warm", "friends"}),
                      RowOfType("brewery"), -1};
  ASSERT_OK(ApplyFeedback(p, poi_->relation, event).status());
  EXPECT_DOUBLE_EQ(p.preference(0).score(), 0.4);
}

TEST_F(FeedbackTest, ContextMustCoverTheEvent) {
  Profile p(env_);
  ASSERT_OK(p.Insert(
      Pref(*env_, "accompanying_people = family", "type", "brewery", 0.5)));
  // Event with friends: the family preference does not apply, and the
  // positive signal bootstraps a new preference instead.
  FeedbackEvent event{State(*env_, {"Plaka", "warm", "friends"}),
                      RowOfType("brewery"), +1};
  StatusOr<FeedbackOutcome> outcome =
      ApplyFeedback(p, poi_->relation, event);
  ASSERT_OK(outcome.status());
  EXPECT_EQ(outcome->rescored, 0u);
  EXPECT_TRUE(outcome->created);
  EXPECT_EQ(p.size(), 2u);
  EXPECT_DOUBLE_EQ(p.preference(0).score(), 0.5);  // Untouched.
  EXPECT_DOUBLE_EQ(p.preference(1).score(), 0.6);  // Bootstrap.
}

TEST_F(FeedbackTest, NegativeFeedbackNeverCreates) {
  Profile p(env_);
  FeedbackEvent event{State(*env_, {"Plaka", "warm", "friends"}),
                      RowOfType("museum"), -1};
  StatusOr<FeedbackOutcome> outcome =
      ApplyFeedback(p, poi_->relation, event);
  ASSERT_OK(outcome.status());
  EXPECT_FALSE(outcome->created);
  EXPECT_TRUE(p.empty());
}

TEST_F(FeedbackTest, RepeatedPositiveFeedbackConvergesUpward) {
  Profile p(env_);
  ASSERT_OK(p.Insert(
      Pref(*env_, "accompanying_people = friends", "type", "brewery", 0.3)));
  FeedbackEvent event{State(*env_, {"Plaka", "warm", "friends"}),
                      RowOfType("brewery"), +1};
  double prev = 0.3;
  for (int i = 0; i < 12; ++i) {
    ASSERT_OK(ApplyFeedback(p, poi_->relation, event).status());
    double now = 0.0;
    for (size_t j = 0; j < p.size(); ++j) {
      if (p.preference(j).clause().attribute == "type") {
        now = p.preference(j).score();
      }
    }
    EXPECT_GE(now, prev);
    prev = now;
  }
  EXPECT_GE(prev, 0.9);
  EXPECT_LE(prev, 1.0);
}

TEST_F(FeedbackTest, ScoresStayOnTheGrid) {
  Profile p(env_);
  ASSERT_OK(p.Insert(
      Pref(*env_, "accompanying_people = friends", "type", "brewery", 0.45)));
  FeedbackEvent event{State(*env_, {"Plaka", "warm", "friends"}),
                      RowOfType("brewery"), +1};
  ASSERT_OK(ApplyFeedback(p, poi_->relation, event).status());
  const double score = p.preference(0).score();
  EXPECT_NEAR(score / 0.05, std::round(score / 0.05), 1e-9);
}

TEST_F(FeedbackTest, BootstrapUsesConfiguredAttribute) {
  Profile p(env_);
  FeedbackOptions options;
  options.bootstrap_attribute = "name";
  const db::RowId acropolis = RowOfType("archaeological_site");
  FeedbackEvent event{State(*env_, {"Plaka", "warm", "friends"}), acropolis,
                      +1};
  ASSERT_OK(ApplyFeedback(p, poi_->relation, event, options).status());
  ASSERT_EQ(p.size(), 1u);
  EXPECT_EQ(p.preference(0).clause().attribute, "name");
  const size_t name_col = *poi_->relation.schema().IndexOf("name");
  EXPECT_EQ(p.preference(0).clause().value,
            poi_->relation.row(acropolis)[name_col]);
}

TEST_F(FeedbackTest, ValidationErrors) {
  Profile p(env_);
  FeedbackEvent bad_row{State(*env_, {"Plaka", "warm", "friends"}), 9999, +1};
  EXPECT_TRUE(ApplyFeedback(p, poi_->relation, bad_row)
                  .status()
                  .IsInvalidArgument());
  FeedbackEvent bad_signal{State(*env_, {"Plaka", "warm", "friends"}), 0, 0};
  EXPECT_TRUE(ApplyFeedback(p, poi_->relation, bad_signal)
                  .status()
                  .IsInvalidArgument());
}

TEST_F(FeedbackTest, BatchAccumulates) {
  Profile p(env_);
  std::vector<FeedbackEvent> events = {
      {State(*env_, {"Plaka", "warm", "friends"}), RowOfType("brewery"), +1},
      {State(*env_, {"Plaka", "warm", "friends"}), RowOfType("brewery"), +1},
  };
  StatusOr<FeedbackOutcome> outcome =
      ApplyFeedbackBatch(p, poi_->relation, events);
  ASSERT_OK(outcome.status());
  EXPECT_TRUE(outcome->created);       // First event bootstraps...
  EXPECT_GE(outcome->rescored, 1u);    // ...second one rescored it.
}

TEST_F(FeedbackTest, FeedbackFlowsThroughCopyOnWriteStore) {
  // Feedback is a store writer like any other: routed through
  // `UpdateUser` it rescores a copy off to the side, publishes a new
  // serving version, and never disturbs readers pinned on the old one.
  // One replica with no staleness window: consuming a publish drops
  // the user's older entries.
  ReplicatedQueryCache::Options options = testing::SharedCache();
  options.staleness_window = 0;
  ReplicatedQueryCache replicas(env_, Ordering::Identity(env_->size()),
                                options);
  ContextQueryTree& cache = replicas.replica(0);
  storage::ProfileStore store(env_);
  store.AttachCoherenceLog(&replicas.log());
  Profile seed(env_);
  ASSERT_OK(seed.Insert(
      Pref(*env_, "accompanying_people = friends", "type", "brewery", 0.5)));
  ASSERT_OK(store.CreateUser("alice", std::move(seed)));

  StatusOr<storage::SnapshotPtr> before = store.GetSnapshot("alice");
  ASSERT_OK(before.status());
  const ContextState ctx = State(*env_, {"Plaka", "warm", "friends"});
  cache.Put("alice", ctx, (*before)->serving_version(), {});

  FeedbackEvent event{ctx, RowOfType("brewery"), +1};
  ASSERT_OK(store.UpdateUser("alice", [&](Profile& p) {
    return ApplyFeedback(p, poi_->relation, event).status();
  }));

  // Readers pinned before the event keep the pre-feedback score...
  EXPECT_DOUBLE_EQ((*before)->profile().preference(0).score(), 0.5);
  // ...the published snapshot carries the rescored one...
  StatusOr<storage::SnapshotPtr> after = store.GetSnapshot("alice");
  ASSERT_OK(after.status());
  EXPECT_DOUBLE_EQ((*after)->profile().preference(0).score(), 0.6);
  EXPECT_GT((*after)->serving_version(), (*before)->serving_version());
  // ...and the publish dropped alice's cached answers.
  replicas.ConsumeAll();
  EXPECT_EQ(cache.Lookup("alice", ctx, (*before)->serving_version()), nullptr);
  store.AttachCoherenceLog(nullptr);
}

TEST_F(FeedbackTest, FeedbackImprovesRankingForTheUser) {
  // End-to-end: after liking breweries with friends, breweries outrank
  // the default suggestions in that context.
  Profile p(env_);
  ASSERT_OK(p.Insert(
      Pref(*env_, "accompanying_people = friends", "type", "cafeteria", 0.7)));
  ContextState ctx = State(*env_, {"Plaka", "warm", "friends"});
  for (int i = 0; i < 6; ++i) {
    ASSERT_OK(ApplyFeedback(p, poi_->relation,
                            FeedbackEvent{ctx, RowOfType("brewery"), +1})
                  .status());
  }
  StatusOr<ProfileTree> tree = ProfileTree::Build(p);
  ASSERT_OK(tree.status());
  TreeResolver resolver(&*tree);
  StatusOr<CompositeDescriptor> cod =
      CompositeDescriptor::ForState(*env_, ctx);
  ContextualQuery q;
  q.context = ExtendedDescriptor::FromComposite(std::move(*cod));
  StatusOr<QueryResult> result = RankCS(poi_->relation, q, resolver);
  ASSERT_OK(result.status());
  ASSERT_FALSE(result->tuples.empty());
  const size_t type_col = *poi_->relation.schema().IndexOf("type");
  EXPECT_EQ(
      poi_->relation.row(result->tuples.front().row_id)[type_col].AsString(),
      "brewery");
}

}  // namespace
}  // namespace ctxpref
