// Differential test of the relation's selection path: `Relation::Select`
// (posting lists for `=`, per-value truth tables for the other five
// operators) must return exactly the row ids, in the same order, that a
// literal `Predicate::Eval` loop over the rows returns — for every
// `CompareOp`, every column type, constants present and absent,
// duplicates, an empty relation, appends interleaved with selects, and
// the doubles a hash- or `<`-keyed dictionary gets wrong: -0.0 vs 0.0
// (equal under `EvalCompare`) and NaN (never `=`, always `!=`).

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "db/csv.h"
#include "db/predicate.h"
#include "db/relation.h"
#include "preference/contextual_query.h"
#include "preference/profile_tree.h"
#include "tests/test_util.h"
#include "util/random.h"
#include "workload/poi_dataset.h"

namespace ctxpref::db {
namespace {

using ::ctxpref::testing::Pref;

constexpr CompareOp kAllOps[] = {CompareOp::kEq, CompareOp::kNe,
                                 CompareOp::kLt, CompareOp::kLe,
                                 CompareOp::kGt, CompareOp::kGe};

/// The oracle: σ by evaluating the predicate on every row.
std::vector<RowId> EvalScan(const Relation& relation, const Predicate& pred) {
  std::vector<RowId> out;
  for (RowId id = 0; id < relation.size(); ++id) {
    if (pred.Eval(relation.row(id))) out.push_back(id);
  }
  return out;
}

/// Select vs EvalScan for every operator against `constant`.
void ExpectSelectMatchesEvalScan(const Relation& relation,
                                 std::string_view column,
                                 const Value& constant,
                                 const std::string& label) {
  for (CompareOp op : kAllOps) {
    StatusOr<Predicate> pred =
        Predicate::Create(relation.schema(), column, op, constant);
    ASSERT_OK(pred.status());
    EXPECT_EQ(relation.Select(*pred), EvalScan(relation, *pred))
        << label << ": " << column << " " << CompareOpToString(op) << " "
        << constant.ToString() << " over " << relation.size() << " rows";
  }
}

Schema AllTypesSchema() {
  StatusOr<Schema> schema = Schema::Create({{"i", ColumnType::kInt64},
                                            {"d", ColumnType::kDouble},
                                            {"s", ColumnType::kString},
                                            {"b", ColumnType::kBool}});
  EXPECT_OK(schema.status());
  return *schema;
}

/// Constants probing every column: each value the relations below hold,
/// plus absent ones below, between and above them.
std::vector<std::pair<std::string, Value>> Probes() {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<std::pair<std::string, Value>> probes;
  for (int64_t i : {-5, -1, 0, 1, 2, 3, 7, 100}) {
    probes.emplace_back("i", Value(i));
  }
  for (double d : {-3.0, -0.5, -0.0, 0.0, 0.5, 1.5, 2.0, 9.0, nan, -nan,
                   std::numeric_limits<double>::infinity()}) {
    probes.emplace_back("d", Value(d));
  }
  for (const char* s : {"", "a", "b", "ba", "c", "zz"}) {
    probes.emplace_back("s", Value(s));
  }
  probes.emplace_back("b", Value(true));
  probes.emplace_back("b", Value(false));
  return probes;
}

TEST(RelationSelectTest, EveryOpAndTypeMatchesEvalScan) {
  Relation relation(AllTypesSchema());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  struct Row {
    int64_t i;
    double d;
    const char* s;
    bool b;
  };
  // Duplicates in every column; -0.0/0.0 and two NaNs in `d`.
  const Row rows[] = {{1, 0.5, "b", true},   {3, -0.0, "a", false},
                      {1, 0.0, "c", true},   {2, nan, "b", true},
                      {3, 1.5, "ba", false}, {1, -nan, "a", false},
                      {-1, 0.5, "b", true},  {2, 0.0, "c", false}};
  for (const Row& r : rows) {
    ASSERT_OK(relation.Append({Value(r.i), Value(r.d), Value(r.s),
                               Value(r.b)}));
  }
  EXPECT_EQ(relation.distinct_values(0), 4u);  // -1, 1, 2, 3
  EXPECT_EQ(relation.distinct_values(1), 4u);  // 0.5, ±0, NaN, 1.5
  EXPECT_EQ(relation.distinct_values(2), 4u);  // a, b, ba, c
  EXPECT_EQ(relation.distinct_values(3), 2u);
  for (const auto& [column, constant] : Probes()) {
    ExpectSelectMatchesEvalScan(relation, column, constant, "fixed rows");
  }
}

TEST(RelationSelectTest, EmptyRelationSelectsNothing) {
  const Relation relation(AllTypesSchema());
  for (const auto& [column, constant] : Probes()) {
    for (CompareOp op : kAllOps) {
      StatusOr<Predicate> pred =
          Predicate::Create(relation.schema(), column, op, constant);
      ASSERT_OK(pred.status());
      EXPECT_TRUE(relation.Select(*pred).empty());
    }
  }
  EXPECT_TRUE(relation.SelectAll({}).empty());
}

TEST(RelationSelectTest, AppendsInterleavedWithSelects) {
  // Values from small pools, so codes repeat and postings grow; the
  // slot table grows past its first sizes on the way.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double doubles[] = {-0.0, 0.0, 0.5, 1.5, 2.0, nan, -nan, -3.0};
  const char* strings[] = {"a", "b", "ba", "c", ""};
  Relation relation(AllTypesSchema());
  const std::vector<std::pair<std::string, Value>> probes = Probes();
  Rng rng(4242);
  for (int step = 0; step < 300; ++step) {
    ASSERT_OK(relation.Append({Value(static_cast<int64_t>(rng.Uniform(9)) - 2),
                               Value(doubles[rng.Uniform(8)]),
                               Value(strings[rng.Uniform(5)]),
                               Value(rng.Bernoulli(0.5))}));
    if (step < 20 || step % 25 == 0) {
      for (const auto& [column, constant] : probes) {
        ExpectSelectMatchesEvalScan(relation, column, constant,
                                    "after append " + std::to_string(step));
      }
    }
  }
  // Unique values: one code per row, so the slot table grows many times.
  for (int64_t i = 300; i < 1300; ++i) {
    ASSERT_OK(relation.Append({Value(i * 1024), Value(1.0 / (i + 1)),
                               Value("u" + std::to_string(i)), Value(true)}));
  }
  for (const auto& [column, constant] : probes) {
    ExpectSelectMatchesEvalScan(relation, column, constant, "unique tail");
  }
  ExpectSelectMatchesEvalScan(relation, "i", Value(int64_t{700 * 1024}),
                              "unique tail");
  ExpectSelectMatchesEvalScan(relation, "s", Value("u999"), "unique tail");
}

TEST(RelationSelectTest, SignedZeroAndNaNFromCsv) {
  // std::from_chars parses all of these; the relation must put "-0" and
  // "0" in one class and never let NaN equal anything.
  StatusOr<Relation> relation = LoadCsv(
      AllTypesSchema(),
      "i,d,s,b\n"
      "0,0,x,true\n"
      "1,-0,x,true\n"
      "2,nan,x,true\n"
      "3,1.5,x,true\n"
      "4,-nan,x,true\n"
      "5,-0.0,x,true\n");
  ASSERT_OK(relation.status());
  ASSERT_TRUE(std::signbit(relation->row(1)[1].AsDouble()));
  ASSERT_TRUE(std::isnan(relation->row(2)[1].AsDouble()));
  EXPECT_EQ(relation->distinct_values(1), 3u);  // ±0, NaN, 1.5

  auto select = [&](CompareOp op, double constant) {
    StatusOr<Predicate> pred =
        Predicate::Create(relation->schema(), "d", op, Value(constant));
    EXPECT_OK(pred.status());
    return relation->Select(*pred);
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(select(CompareOp::kEq, 0.0), (std::vector<RowId>{0, 1, 5}));
  EXPECT_EQ(select(CompareOp::kEq, -0.0), (std::vector<RowId>{0, 1, 5}));
  EXPECT_EQ(select(CompareOp::kNe, -0.0), (std::vector<RowId>{2, 3, 4}));
  EXPECT_TRUE(select(CompareOp::kEq, nan).empty());
  EXPECT_EQ(select(CompareOp::kNe, nan),
            (std::vector<RowId>{0, 1, 2, 3, 4, 5}));
  EXPECT_TRUE(select(CompareOp::kLe, nan).empty());
  EXPECT_EQ(select(CompareOp::kGe, 0.0), (std::vector<RowId>{0, 1, 3, 5}));
  for (double d : {0.0, -0.0, nan, 1.5, -1.0}) {
    ExpectSelectMatchesEvalScan(*relation, "d", Value(d), "csv doubles");
  }
}

// ---------------------------------------------------------------------
// The row-set assertions of the former opt-in equality-index tests, now
// against the index the relation keeps itself.

class IndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    StatusOr<Schema> schema = Schema::Create({{"id", ColumnType::kInt64},
                                              {"type", ColumnType::kString}});
    ASSERT_OK(schema.status());
    relation_ = std::make_unique<Relation>(std::move(*schema));
    const char* types[] = {"museum", "park", "museum", "zoo", "park",
                           "museum"};
    for (int64_t i = 0; i < 6; ++i) {
      ASSERT_OK(relation_->Append({Value(i), Value(types[i])}));
    }
  }
  std::unique_ptr<Relation> relation_;
};

TEST_F(IndexTest, LookupMatchesScan) {
  EXPECT_EQ(relation_->distinct_values(1), 3u);
  EXPECT_EQ(relation_->distinct_values(0), 6u);
  const std::map<std::string, std::vector<RowId>> want = {
      {"museum", {0, 2, 5}}, {"park", {1, 4}}, {"zoo", {3}}, {"absent", {}}};
  for (const auto& [type, rows] : want) {
    StatusOr<Predicate> pred = Predicate::Create(
        relation_->schema(), "type", CompareOp::kEq, Value(type));
    ASSERT_OK(pred.status());
    EXPECT_EQ(relation_->Select(*pred), rows) << type;
    EXPECT_EQ(EvalScan(*relation_, *pred), rows) << type;
  }
}

TEST_F(IndexTest, BuildRejectsUnknownColumn) {
  EXPECT_TRUE(BindColumn(relation_->schema(), "nope", ColumnType::kString)
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(BindColumn(relation_->schema(), "type", ColumnType::kInt64)
                  .status()
                  .IsInvalidArgument());
  EXPECT_EQ(*BindColumn(relation_->schema(), "type", ColumnType::kString), 1u);
  // Rank_CS's selection call binds the clause the same way.
  size_t visited = 0;
  EXPECT_TRUE(SelectClause(*relation_,
                           AttributeClause{"nope", CompareOp::kEq,
                                           Value("park")},
                           [&](RowId) { ++visited; })
                  .IsNotFound());
  EXPECT_OK(SelectClause(*relation_,
                         AttributeClause{"type", CompareOp::kEq, Value("park")},
                         [&](RowId) { ++visited; }));
  EXPECT_EQ(visited, 2u);
}

TEST_F(IndexTest, EveryOpOnEveryColumnMatchesEvalScan) {
  for (int64_t id = -1; id <= 6; ++id) {
    ExpectSelectMatchesEvalScan(*relation_, "id", Value(id), "small");
  }
  for (const char* type : {"museum", "park", "zoo", "absent", "a", "zzz"}) {
    ExpectSelectMatchesEvalScan(*relation_, "type", Value(type), "small");
  }
}

TEST_F(IndexTest, AppendIsVisibleToTheNextSelect) {
  StatusOr<Predicate> eq = Predicate::Create(relation_->schema(), "type",
                                             CompareOp::kEq, Value("park"));
  ASSERT_OK(eq.status());
  EXPECT_EQ(relation_->Select(*eq), (std::vector<RowId>{1, 4}));
  ASSERT_OK(relation_->Append({Value(int64_t{6}), Value("park")}));
  EXPECT_EQ(relation_->Select(*eq), (std::vector<RowId>{1, 4, 6}));
  ASSERT_OK(relation_->Append({Value(int64_t{7}), Value("garden")}));
  EXPECT_EQ(relation_->distinct_values(1), 4u);
  ExpectSelectMatchesEvalScan(*relation_, "type", Value("garden"), "grown");
}

TEST_F(IndexTest, RankCSMatchesEvalScanOracle) {
  StatusOr<workload::PoiDatabase> poi = workload::MakePoiDatabase(100, 9);
  ASSERT_OK(poi.status());
  Profile profile(poi->env);
  ASSERT_OK(profile.Insert(Pref(*poi->env, "accompanying_people = friends",
                                "type", "brewery", 0.9)));
  ASSERT_OK(profile.Insert(
      Pref(*poi->env, "temperature = hot", "type", "park", 0.8)));
  StatusOr<ProfileTree> tree = ProfileTree::Build(profile);
  ASSERT_OK(tree.status());
  TreeResolver resolver(&*tree);

  StatusOr<ExtendedDescriptor> ecod = ParseExtendedDescriptor(
      *poi->env, "temperature = hot and accompanying_people = friends");
  ASSERT_OK(ecod.status());
  ContextualQuery q;
  q.context = *ecod;
  StatusOr<QueryResult> ranked = RankCS(poi->relation, q, resolver);
  ASSERT_OK(ranked.status());

  // The same clauses scored by Eval scans, combined under max.
  std::map<RowId, double> want;
  for (const QueryResult::Trace& trace : ranked->traces) {
    for (const CandidatePath& cand : trace.candidates) {
      for (const ProfileTree::LeafEntry& entry : cand.entries) {
        StatusOr<Predicate> pred = Predicate::Create(
            poi->relation.schema(), entry.clause.attribute, entry.clause.op,
            entry.clause.value);
        ASSERT_OK(pred.status());
        for (RowId row : EvalScan(poi->relation, *pred)) {
          auto [it, inserted] = want.try_emplace(row, entry.score);
          if (!inserted) it->second = std::max(it->second, entry.score);
        }
      }
    }
  }
  ASSERT_FALSE(want.empty());
  std::map<RowId, double> got;
  for (const ScoredTuple& t : ranked->tuples) got.emplace(t.row_id, t.score);
  EXPECT_EQ(got, want);
}

}  // namespace
}  // namespace ctxpref::db
