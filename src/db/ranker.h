#ifndef CTXPREF_DB_RANKER_H_
#define CTXPREF_DB_RANKER_H_

#include <vector>

#include "db/relation.h"
#include "db/tuple.h"

namespace ctxpref::db {

/// How to combine scores when several resolved preferences annotate the
/// same tuple (paper §4.4: "keeping the max (equivalently, avg, min, or
/// some weighted average)").
enum class CombinePolicy {
  kMax,
  kMin,
  kAvg,
  /// Weighted average with weights proportional to insertion order
  /// recency is meaningless here, so kWeighted takes explicit weights
  /// via `Ranker::AddWeighted`; with plain `Add`, behaves like kAvg.
  kWeighted,
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
  explicit Ranker(CombinePolicy policy = CombinePolicy::kMax)
      : policy_(policy) {}

  CombinePolicy policy() const { return policy_; }

  /// Annotates `row_id` with `score` (weight 1).
  void Add(RowId row_id, double score) { AddWeighted(row_id, score, 1.0); }

  /// Annotates with an explicit weight (used by kWeighted / kAvg).
  void AddWeighted(RowId row_id, double score, double weight);

  /// Switches accumulation for row ids in [0, num_rows) to a dense
  /// direct-index table: O(1) per `Add` instead of the sorted flat
  /// map's O(log n) search + O(n) insert. `Rank_CS` calls this with
  /// the relation's row count (row ids are dense there); rows at or
  /// beyond `num_rows` still take the flat-map path, and entries
  /// accumulated before the call are migrated, so results are
  /// identical either way. Never shrinks.
  void ReserveDense(size_t num_rows);

  /// Number of distinct rows annotated so far.
  size_t size() const { return entries_.size() + touched_.size(); }

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
    double combined;     // Running max/min.
    double weighted_sum; // Σ w·s for avg/weighted.
    double weight_sum;   // Σ w.
  };

  void Combine(Entry& e, double score, double weight);
  /// Every annotated row with its final score, in no particular order.
  std::vector<ScoredTuple> Unsorted() const;
  double Finalize(const Entry& e) const;

  CombinePolicy policy_;
  /// row id -> accumulation; kept sorted by row id (flat map). Holds
  /// only rows outside the dense table's range.
  std::vector<std::pair<RowId, Entry>> entries_;
  /// Dense accumulation (`ReserveDense`): direct-indexed entries, a
  /// presence byte per row, and the list of touched rows so results
  /// never scan the whole table.
  std::vector<Entry> dense_;
  std::vector<uint8_t> present_;
  std::vector<RowId> touched_;
};

}  // namespace ctxpref::db

#endif  // CTXPREF_DB_RANKER_H_
