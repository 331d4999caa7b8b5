#ifndef CTXPREF_PREFERENCE_THRESHOLD_MERGE_H_
#define CTXPREF_PREFERENCE_THRESHOLD_MERGE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "db/predicate.h"
#include "db/ranker.h"
#include "db/relation.h"
#include "preference/preference.h"
#include "util/status.h"

namespace ctxpref {

/// One sorted-access input of Rank_CS's score combination: row ids with
/// their scores, in ranking order (score desc, row asc), each row at
/// most once. Either
///   - a clause source: σ_clause(relation), every row at one constant
///     score — one resolved leaf entry of a query state, or
///   - a list source: a cached per-state list, as `db::Ranker::Ranked`
///     produces it.
/// A source borrows what it reads (the clause's constant, the list);
/// both must outlive it.
class ScoredSource {
 public:
  /// Binds `clause` against `relation`'s schema now, so an unbindable
  /// clause fails where it is collected (NotFound / InvalidArgument, see
  /// `db::BindColumn`), not wherever a merge would first reach it.
  static StatusOr<ScoredSource> Clause(const db::Relation& relation,
                                       const AttributeClause& clause,
                                       double score);
  static ScoredSource List(std::span<const db::ScoredTuple> tuples);

  bool is_list() const { return constant_ == nullptr; }
  /// A clause source's constant score.
  double score() const { return score_; }
  /// A list source's tuples.
  std::span<const db::ScoredTuple> list() const { return list_; }

  /// Calls `visit(row, score)` for every row of the source, in order.
  template <typename Visit>
  void ForEach(const db::Relation& relation, Visit&& visit) const {
    if (is_list()) {
      for (const db::ScoredTuple& t : list_) visit(t.row_id, t.score);
      return;
    }
    relation.ForEachMatch(column_, op_, *constant_,
                          [&](db::RowId row) { visit(row, score_); });
  }

 private:
  ScoredSource() = default;

  // Clause source: `constant_` non-null.
  size_t column_ = 0;
  db::CompareOp op_ = db::CompareOp::kEq;
  const db::Value* constant_ = nullptr;
  double score_ = 0.0;
  // List source.
  std::span<const db::ScoredTuple> list_;
};

/// Rank_CS's combination under `kMax` as one threshold merge — the
/// no-random-access form of Fagin–Lotem–Naor's threshold algorithm,
/// with the relation's posting lists and the cached lists as sorted
/// access. Score levels are taken highest first; the first level that
/// reaches a row holds the row's maximum, so the row is final there and
/// a per-query seen bitmap drops its later occurrences. A level's new
/// rows come out in ascending row order (several sources sharing the
/// level are merged by row; a row on several keeps the score of the
/// earliest source, bits included — what a kMax `db::Ranker` fed in
/// source order keeps), and rows failing any of `selections` are
/// dropped. The merge stops after the level that brings the answer to
/// `top_k` rows, so the k-th score's whole tie run is kept (0 = every
/// row). The result equals `db::Ranker(kMax)` over every source row
/// followed by `TopK(top_k)` / `Ranked()`.
///
/// `visited`, if set, is increased by the number of source rows the
/// merge read before it stopped.
std::vector<db::ScoredTuple> ThresholdMerge(
    const db::Relation& relation, std::span<const ScoredSource> sources,
    const std::vector<db::Predicate>& selections, size_t top_k,
    uint64_t* visited = nullptr);

/// The ranked answer over `sources` under `combine`: `ThresholdMerge`
/// for kMax, a dense `db::Ranker` over every eligible source row for
/// the other policies (a row's first occurrence is not its final score
/// there). Same contract as `ThresholdMerge`; under kMin/kAvg `scored`
/// counts the rows added to the ranker.
std::vector<db::ScoredTuple> RankSources(
    const db::Relation& relation, std::span<const ScoredSource> sources,
    const std::vector<db::Predicate>& selections, db::CombinePolicy combine,
    size_t top_k, uint64_t* scored = nullptr);

}  // namespace ctxpref

#endif  // CTXPREF_PREFERENCE_THRESHOLD_MERGE_H_
