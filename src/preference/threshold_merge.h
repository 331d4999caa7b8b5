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
///     score — one resolved leaf entry of a query state. A kEq clause
///     is bound to the relation's posting list of its constant when the
///     source is made (`rows()`), a run of ascending row ids that a merge
///     reads in bulk; other operators scan the relation's row codes
///     through `ForEachMatch`'s truth table when read; or
///   - a list source: a cached per-state list, as `db::Ranker::Ranked`
///     produces it.
/// A source borrows what it reads (the clause's constant, the posting
/// list, the list); they must outlive it, and the relation must not be
/// appended to while it lives.
class ScoredSource {
 public:
  /// Binds `clause` against `relation`'s schema now, so an unbindable
  /// clause fails where it is collected (NotFound / InvalidArgument, see
  /// `db::BindColumn`), not wherever a merge would first reach it.
  static StatusOr<ScoredSource> Clause(const db::Relation& relation,
                                       const AttributeClause& clause,
                                       double score);
  static ScoredSource List(std::span<const db::ScoredTuple> tuples);

  bool is_list() const { return kind_ == Kind::kList; }
  /// Whether this is a kEq clause source, whose rows are `rows()`.
  bool is_posting() const { return kind_ == Kind::kPosting; }
  /// A clause source's constant score.
  double score() const { return score_; }
  /// A list source's tuples.
  std::span<const db::ScoredTuple> list() const { return list_; }
  /// A kEq clause source's rows: the posting list of its constant.
  std::span<const db::RowId> rows() const { return rows_; }

  /// Calls `visit(row, score)` for every row of the source, in order.
  template <typename Visit>
  void ForEach(const db::Relation& relation, Visit&& visit) const {
    switch (kind_) {
      case Kind::kList:
        for (const db::ScoredTuple& t : list_) visit(t.row_id, t.score);
        return;
      case Kind::kPosting:
        for (db::RowId row : rows_) visit(row, score_);
        return;
      case Kind::kScan:
        relation.ForEachMatch(column_, op_, *constant_,
                              [&](db::RowId row) { visit(row, score_); });
        return;
    }
  }

 private:
  enum class Kind : uint8_t { kList, kPosting, kScan };

  ScoredSource() = default;

  Kind kind_ = Kind::kList;
  double score_ = 0.0;  // Clause sources.
  // kPosting.
  std::span<const db::RowId> rows_;
  // kScan.
  size_t column_ = 0;
  db::CompareOp op_ = db::CompareOp::kEq;
  const db::Value* constant_ = nullptr;
  // kList.
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
/// Two shortcuts keep that result:
///   - A kEq clause source is skipped when another one holds the same
///     posting list at a higher score, or at an equal score earlier in
///     input order: under max it adds nothing, since the other source's
///     level comes no later and leaves each of its rows final or
///     rejected by a selection the row fails again.
///   - A level held by one source with no selections — a list run or a
///     posting list — is appended in bulk: whole when nothing is seen
///     yet, else 64 rows at a time past the seen words, testing rows
///     one by one only in groups that hold a seen row.
///
/// `visited`, if set, is increased by the number of source rows the
/// merge read before it stopped (a skipped source is not read).
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
