#include <gtest/gtest.h>

#include "db/predicate.h"
#include "db/ranker.h"
#include "db/relation.h"
#include "db/schema.h"
#include "db/value.h"
#include "tests/test_util.h"

namespace ctxpref::db {
namespace {

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_EQ(Value(int64_t{5}).type(), ColumnType::kInt64);
  EXPECT_EQ(Value(2.5).type(), ColumnType::kDouble);
  EXPECT_EQ(Value("x").type(), ColumnType::kString);
  EXPECT_EQ(Value(true).type(), ColumnType::kBool);
  EXPECT_EQ(Value(int64_t{5}).AsInt64(), 5);
  EXPECT_DOUBLE_EQ(Value(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value("x").AsString(), "x");
  EXPECT_TRUE(Value(true).AsBool());
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value(int64_t{5}).ToString(), "5");
  EXPECT_EQ(Value(0.85).ToString(), "0.85");
  EXPECT_EQ(Value("abc").ToString(), "abc");
  EXPECT_EQ(Value(false).ToString(), "false");
}

TEST(ValueTest, CompareWithinType) {
  EXPECT_TRUE(EvalCompare(Value(int64_t{3}), CompareOp::kLt, Value(int64_t{5})));
  EXPECT_TRUE(EvalCompare(Value("abc"), CompareOp::kEq, Value("abc")));
  EXPECT_TRUE(EvalCompare(Value(1.5), CompareOp::kGe, Value(1.5)));
  EXPECT_FALSE(EvalCompare(Value("a"), CompareOp::kGt, Value("b")));
  EXPECT_TRUE(EvalCompare(Value("a"), CompareOp::kNe, Value("b")));
}

TEST(ValueTest, MismatchedTypesOnlyNeIsTrue) {
  EXPECT_FALSE(EvalCompare(Value(int64_t{1}), CompareOp::kEq, Value("1")));
  EXPECT_TRUE(EvalCompare(Value(int64_t{1}), CompareOp::kNe, Value("1")));
  EXPECT_FALSE(EvalCompare(Value(int64_t{1}), CompareOp::kLt, Value(1.0)));
}

TEST(ValueTest, ParseCompareOp) {
  EXPECT_EQ(*ParseCompareOp("="), CompareOp::kEq);
  EXPECT_EQ(*ParseCompareOp("=="), CompareOp::kEq);
  EXPECT_EQ(*ParseCompareOp("!="), CompareOp::kNe);
  EXPECT_EQ(*ParseCompareOp("<>"), CompareOp::kNe);
  EXPECT_EQ(*ParseCompareOp("<="), CompareOp::kLe);
  EXPECT_EQ(*ParseCompareOp(">="), CompareOp::kGe);
  EXPECT_TRUE(ParseCompareOp("~").status().IsCorruption());
}

TEST(SchemaTest, CreateAndLookup) {
  StatusOr<Schema> schema = Schema::Create(
      {{"id", ColumnType::kInt64}, {"name", ColumnType::kString}});
  ASSERT_OK(schema.status());
  EXPECT_EQ(schema->num_columns(), 2u);
  EXPECT_EQ(*schema->IndexOf("name"), 1u);
  EXPECT_TRUE(schema->IndexOf("xyz").status().IsNotFound());
  EXPECT_EQ(schema->ToString(), "(id:int64, name:string)");
}

TEST(SchemaTest, RejectsDuplicatesEmptyAndUnnamed) {
  EXPECT_TRUE(Schema::Create({}).status().IsInvalidArgument());
  EXPECT_TRUE(Schema::Create({{"a", ColumnType::kInt64},
                              {"a", ColumnType::kInt64}})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(
      Schema::Create({{"", ColumnType::kInt64}}).status().IsInvalidArgument());
}

class RelationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    StatusOr<Schema> schema = Schema::Create({{"id", ColumnType::kInt64},
                                              {"type", ColumnType::kString},
                                              {"score", ColumnType::kDouble}});
    ASSERT_OK(schema.status());
    relation_ = std::make_unique<Relation>(std::move(*schema));
    ASSERT_OK(relation_->Append(
        {Value(int64_t{1}), Value("museum"), Value(0.5)}));
    ASSERT_OK(relation_->Append(
        {Value(int64_t{2}), Value("park"), Value(0.9)}));
    ASSERT_OK(relation_->Append(
        {Value(int64_t{3}), Value("museum"), Value(0.7)}));
  }
  std::unique_ptr<Relation> relation_;
};

TEST_F(RelationTest, AppendValidatesArityAndTypes) {
  EXPECT_TRUE(relation_->Append({Value(int64_t{4})}).IsInvalidArgument());
  EXPECT_TRUE(relation_->Append({Value("4"), Value("x"), Value(0.1)})
                  .IsInvalidArgument());
  EXPECT_EQ(relation_->size(), 3u);
}

TEST_F(RelationTest, SelectByEquality) {
  StatusOr<Predicate> pred = Predicate::Create(relation_->schema(), "type",
                                               CompareOp::kEq, Value("museum"));
  ASSERT_OK(pred.status());
  std::vector<RowId> rows = relation_->Select(*pred);
  EXPECT_EQ(rows, (std::vector<RowId>{0, 2}));
}

TEST_F(RelationTest, SelectByOrdering) {
  StatusOr<Predicate> pred = Predicate::Create(relation_->schema(), "score",
                                               CompareOp::kGt, Value(0.6));
  ASSERT_OK(pred.status());
  EXPECT_EQ(relation_->Select(*pred), (std::vector<RowId>{1, 2}));
}

TEST_F(RelationTest, PredicateCreateValidates) {
  EXPECT_TRUE(Predicate::Create(relation_->schema(), "nope", CompareOp::kEq,
                                Value("x"))
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(Predicate::Create(relation_->schema(), "type", CompareOp::kEq,
                                Value(int64_t{1}))
                  .status()
                  .IsInvalidArgument());
}

TEST_F(RelationTest, TupleToString) {
  EXPECT_EQ(TupleToString(relation_->schema(), relation_->row(0)),
            "{id: 1, type: museum, score: 0.5}");
}

TEST(RankerTest, MaxCombinesDuplicates) {
  Ranker r(CombinePolicy::kMax, 10);
  r.Add(1, 0.5);
  r.Add(1, 0.9);
  r.Add(2, 0.7);
  std::vector<ScoredTuple> ranked = r.Ranked();
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0], (ScoredTuple{1, 0.9}));
  EXPECT_EQ(ranked[1], (ScoredTuple{2, 0.7}));
}

TEST(RankerTest, MinAndAvgPolicies) {
  Ranker mn(CombinePolicy::kMin, 10);
  mn.Add(1, 0.5);
  mn.Add(1, 0.9);
  EXPECT_DOUBLE_EQ(mn.Ranked()[0].score, 0.5);

  Ranker avg(CombinePolicy::kAvg, 10);
  avg.Add(1, 0.5);
  avg.Add(1, 0.9);
  EXPECT_DOUBLE_EQ(avg.Ranked()[0].score, 0.7);
}

TEST(RankerTest, TiesBrokenByRowId) {
  Ranker r(CombinePolicy::kMax, 10);
  r.Add(5, 0.7);
  r.Add(2, 0.7);
  r.Add(9, 0.9);
  std::vector<ScoredTuple> ranked = r.Ranked();
  EXPECT_EQ(ranked[0].row_id, 9u);
  EXPECT_EQ(ranked[1].row_id, 2u);
  EXPECT_EQ(ranked[2].row_id, 5u);
}

TEST(RankerTest, TopKExtendsThroughTies) {
  // Paper §5.1: "when there are ties in the ranking, we consider all
  // results with the same score".
  Ranker r(CombinePolicy::kMax, 10);
  r.Add(1, 0.9);
  r.Add(2, 0.7);
  r.Add(3, 0.7);
  r.Add(4, 0.7);
  r.Add(5, 0.1);
  std::vector<ScoredTuple> top2 = r.TopK(2);
  ASSERT_EQ(top2.size(), 4u);  // 0.9 + all three 0.7s.
  std::vector<ScoredTuple> top1 = r.TopK(1);
  EXPECT_EQ(top1.size(), 1u);
  EXPECT_EQ(r.TopK(0).size(), 5u);  // 0 = all.
  EXPECT_EQ(r.TopK(99).size(), 5u);
}

TEST(RankerTest, ClearResets) {
  Ranker r(CombinePolicy::kMax, 10);
  r.Add(1, 0.9);
  r.Clear();
  EXPECT_EQ(r.size(), 0u);
  EXPECT_TRUE(r.Ranked().empty());
}

TEST(RankerTest, PolicyToString) {
  EXPECT_STREQ(CombinePolicyToString(CombinePolicy::kMax), "max");
  EXPECT_STREQ(CombinePolicyToString(CombinePolicy::kAvg), "avg");
}

}  // namespace
}  // namespace ctxpref::db
