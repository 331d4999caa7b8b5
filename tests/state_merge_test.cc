// Differential tests for the per-state merge behind cache hits and the
// stale rung (`RankSources` over one list source per state) and for
// `db::Ranker::TopK`'s partial selection: on seeded random inputs with
// heavy score ties, both must equal a full-sort oracle — combine every
// eligible (row, score) into one map, sort the lot by (score desc, row
// asc), then cut after the k-th place's tie run.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "db/predicate.h"
#include "db/ranker.h"
#include "db/relation.h"
#include "db/schema.h"
#include "preference/threshold_merge.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace ctxpref {
namespace {

using Lists = std::vector<std::vector<db::ScoredTuple>>;

bool RanksBefore(const db::ScoredTuple& a, const db::ScoredTuple& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.row_id < b.row_id;
}

/// The sort-then-cut top-k: everything sorted, then cut after the
/// k-th place plus every row tied with its score (k = 0 keeps all).
std::vector<db::ScoredTuple> SortThenCut(std::vector<db::ScoredTuple> all,
                                         size_t k) {
  std::sort(all.begin(), all.end(), RanksBefore);
  if (k == 0 || all.size() <= k) return all;
  size_t end = k;
  while (end < all.size() && all[end].score == all[k - 1].score) ++end;
  all.resize(end);
  return all;
}

/// Full-sort oracle for the list merge: one map over every eligible
/// tuple of every list (a row keeps its earliest list's score among
/// equal extremes, as a Ranker does), then `SortThenCut`.
std::vector<db::ScoredTuple> OracleMerge(
    const db::Relation& relation, const Lists& lists,
    const std::vector<db::Predicate>& selections, db::CombinePolicy combine,
    size_t top_k) {
  std::map<db::RowId, double> combined;
  for (const std::vector<db::ScoredTuple>& list : lists) {
    for (const db::ScoredTuple& t : list) {
      bool eligible = true;
      for (const db::Predicate& sel : selections) {
        eligible = eligible && sel.Eval(relation.row(t.row_id));
      }
      if (!eligible) continue;
      auto [it, inserted] = combined.emplace(t.row_id, t.score);
      if (inserted) continue;
      if (combine == db::CombinePolicy::kMax ? t.score > it->second
                                             : t.score < it->second) {
        it->second = t.score;
      }
    }
  }
  std::vector<db::ScoredTuple> all;
  for (const auto& [row, score] : combined) all.push_back({row, score});
  return SortThenCut(std::move(all), top_k);
}

std::vector<db::ScoredTuple> Merge(
    const db::Relation& relation, const Lists& lists,
    const std::vector<db::Predicate>& selections, db::CombinePolicy combine,
    size_t top_k) {
  std::vector<ScoredSource> sources;
  for (const std::vector<db::ScoredTuple>& list : lists) {
    sources.push_back(ScoredSource::List(list));
  }
  return RankSources(relation, sources, selections, combine, top_k);
}

/// `rows` rows with one int column `k` = row % 5, so selections on `k`
/// reject a known fraction of rows.
db::Relation MakeRelation(size_t rows) {
  StatusOr<db::Schema> schema =
      db::Schema::Create({{"k", db::ColumnType::kInt64}});
  EXPECT_OK(schema.status());
  db::Relation relation(std::move(*schema));
  for (size_t r = 0; r < rows; ++r) {
    EXPECT_OK(relation.Append({db::Value(static_cast<int64_t>(r % 5))}));
  }
  return relation;
}

db::Predicate Sel(const db::Relation& relation, db::CompareOp op, int64_t v) {
  StatusOr<db::Predicate> p =
      db::Predicate::Create(relation.schema(), "k", op, db::Value(v));
  EXPECT_OK(p.status());
  return *p;
}

/// A cached per-state list: a random subset of the rows, scores from a
/// coarse grid (so ties are everywhere), in ranking order.
std::vector<db::ScoredTuple> RandomList(Rng& rng, size_t rows) {
  std::vector<db::ScoredTuple> list;
  const double keep = rng.NextDouble();
  for (size_t r = 0; r < rows; ++r) {
    if (!rng.Bernoulli(keep)) continue;
    list.push_back({static_cast<db::RowId>(r),
                    static_cast<double>(rng.Uniform(4)) * 0.25});
  }
  std::sort(list.begin(), list.end(), RanksBefore);
  return list;
}

class StateMergeTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StateMergeTest, MatchesFullSortOracle) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 300; ++trial) {
    const size_t rows = rng.Uniform(40);
    const db::Relation relation = MakeRelation(rows);
    Lists lists(rng.Uniform(5));  // 0..4 lists, some of them empty.
    for (std::vector<db::ScoredTuple>& list : lists) {
      if (!rng.Bernoulli(0.15)) list = RandomList(rng, rows);
    }
    std::vector<db::Predicate> selections;
    switch (rng.Uniform(4)) {
      case 0:
        break;
      case 1:
        selections.push_back(Sel(relation, db::CompareOp::kNe, 2));
        break;
      case 2:  // Two conjuncts, together rejecting 3 rows in 5.
        selections.push_back(Sel(relation, db::CompareOp::kLt, 4));
        selections.push_back(Sel(relation, db::CompareOp::kGt, 1));
        break;
      case 3:  // Rejects every row.
        selections.push_back(Sel(relation, db::CompareOp::kEq, 7));
        break;
    }
    for (db::CombinePolicy combine :
         {db::CombinePolicy::kMax, db::CombinePolicy::kMin}) {
      for (size_t top_k : {size_t{0}, size_t{1}, size_t{2}, size_t{5},
                           rows + 3}) {
        EXPECT_EQ(Merge(relation, lists, selections, combine, top_k),
                  OracleMerge(relation, lists, selections, combine, top_k))
            << "trial " << trial << " " << db::CombinePolicyToString(combine)
            << " top_k " << top_k << " lists " << lists.size();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StateMergeTest,
                         ::testing::Values(9101, 9102, 9103));

TEST(StateMergeFixedTest, TiesStraddlingKAcrossLists) {
  const db::Relation relation = MakeRelation(10);
  // Row 1 heads list 0 but fails `k != 1`; its later, lower occurrence
  // in list 1 must not resurface it. Rows 2..5 and 7 tie at 0.5 across
  // both lists, straddling k = 2 — all five are kept.
  const Lists lists = {
      {{1, 0.9}, {2, 0.5}, {5, 0.5}, {8, 0.1}},
      {{3, 0.5}, {4, 0.5}, {7, 0.5}, {1, 0.2}, {2, 0.1}},
  };
  const std::vector<db::Predicate> selections = {
      Sel(relation, db::CompareOp::kNe, 1)};
  const std::vector<db::ScoredTuple> expected = {
      {2, 0.5}, {3, 0.5}, {4, 0.5}, {5, 0.5}, {7, 0.5}};
  EXPECT_EQ(Merge(relation, lists, selections, db::CombinePolicy::kMax, 2),
            expected);
  EXPECT_EQ(
      OracleMerge(relation, lists, selections, db::CombinePolicy::kMax, 2),
      expected);
  // kMin: row 2's minimum is list 1's 0.1, which drops it below the tie.
  const std::vector<db::ScoredTuple> expected_min = {
      {3, 0.5}, {4, 0.5}, {5, 0.5}, {7, 0.5}};
  EXPECT_EQ(Merge(relation, lists, selections, db::CombinePolicy::kMin, 2),
            expected_min);
}

TEST(StateMergeFixedTest, NoListsOrOnlyEmptyListsGiveNothing) {
  const db::Relation relation = MakeRelation(4);
  EXPECT_TRUE(Merge(relation, {}, {}, db::CombinePolicy::kMax, 3).empty());
  EXPECT_TRUE(
      Merge(relation, {{}, {}}, {}, db::CombinePolicy::kMax, 0).empty());
  EXPECT_TRUE(
      Merge(relation, {{}, {}}, {}, db::CombinePolicy::kMin, 1).empty());
}

class RankerTopKTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RankerTopKTest, PartialSelectionEqualsFullSortOnHeavyTies) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    const db::CombinePolicy policy =
        static_cast<db::CombinePolicy>(rng.Uniform(3));
    const size_t rows = 1 + rng.Uniform(150);
    db::Ranker ranker(policy, rows);
    const size_t adds = rng.Uniform(3 * rows);
    for (size_t i = 0; i < adds; ++i) {
      // Three distinct scores: most k-th places are deep inside a tie.
      ranker.Add(rng.Uniform(rows), static_cast<double>(rng.Uniform(3)) * 0.5);
    }
    const std::vector<db::ScoredTuple> ranked = ranker.Ranked();
    for (size_t k : {size_t{0}, size_t{1}, size_t{2}, size_t{7}, rows / 2,
                     ranked.size(), ranked.size() + 1}) {
      EXPECT_EQ(ranker.TopK(k), SortThenCut(ranked, k))
          << "trial " << trial << " k " << k << " of " << ranked.size();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RankerTopKTest,
                         ::testing::Values(9201, 9202));

}  // namespace
}  // namespace ctxpref
