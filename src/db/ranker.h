#ifndef CTXPREF_DB_RANKER_H_
#define CTXPREF_DB_RANKER_H_

#include <vector>

#include "db/relation.h"
#include "db/tuple.h"

namespace ctxpref::db {

/// How to combine scores when several resolved preferences annotate the
/// same tuple (paper §4.4: "keeping the max (equivalently, avg, min, or
/// some weighted average)"). No query path carries per-annotation
/// weights, so the weighted average is not offered: with unit weights
/// it is kAvg.
enum class CombinePolicy {
  kMax,
  kMin,
  kAvg,
};

const char* CombinePolicyToString(CombinePolicy p);

/// A tuple annotated with its combined interest score.
struct ScoredTuple {
  RowId row_id = 0;
  double score = 0.0;

  friend bool operator==(const ScoredTuple&, const ScoredTuple&) = default;
};

/// Accumulates (row, score) annotations, combines duplicates under a
/// policy, and produces a ranked result list (descending score; ties
/// broken by ascending row id for determinism).
class Ranker {
 public:
  /// Accumulates annotations of row ids in [0, num_rows) — a
  /// relation's rows, whose ids are dense — in a direct-indexed table.
  Ranker(CombinePolicy policy, size_t num_rows)
      : policy_(policy), entries_(num_rows) {}

  CombinePolicy policy() const { return policy_; }

  /// Annotates `row_id` (< num_rows) with `score`.
  void Add(RowId row_id, double score);

  /// Number of distinct rows annotated so far.
  size_t size() const { return touched_.size(); }

  /// Ranked results: all annotated rows, descending combined score.
  std::vector<ScoredTuple> Ranked() const;

  /// Top-k by score. When the k-th place is tied, *all* tuples with the
  /// k-th score are included (the paper's user study does the same for
  /// its top-20 lists: "when there are ties in the ranking, we consider
  /// all results with the same score"). Equal to `Ranked()` cut after
  /// that tie run, but sorts only the kept prefix. `k` = 0 returns
  /// `Ranked()`.
  std::vector<ScoredTuple> TopK(size_t k) const;

  void Clear();

 private:
  struct Entry {
    double value = 0.0;  ///< Running max/min, or Σ score for avg.
    uint32_t count = 0;  ///< Annotations so far; 0 = row not annotated.
  };

  /// Every annotated row with its final score, in no particular order.
  std::vector<ScoredTuple> Unsorted() const;
  double Finalize(const Entry& e) const;

  CombinePolicy policy_;
  /// Indexed by row id; `touched_` lists the annotated rows so results
  /// never scan the whole table.
  std::vector<Entry> entries_;
  std::vector<RowId> touched_;
};

}  // namespace ctxpref::db

#endif  // CTXPREF_DB_RANKER_H_
