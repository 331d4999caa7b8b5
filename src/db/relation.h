#ifndef CTXPREF_DB_RELATION_H_
#define CTXPREF_DB_RELATION_H_

#include <cstdint>
#include <span>
#include <vector>

#include "db/predicate.h"
#include "db/schema.h"
#include "db/tuple.h"
#include "util/status.h"

namespace ctxpref::db {

/// An append-only row-store relation R(A1, ..., An) that indexes
/// itself.
///
/// `Rank_CS` evaluates the attribute clauses of resolved preferences as
/// selections σ_{A θ a} over R and annotates the qualifying tuples with
/// scores. To make those selections cheap, `Append` keeps per column:
/// a dictionary of the column's distinct values (one code per equality
/// class: -0.0 and 0.0 share one, so do all NaNs — no comparison tells
/// them apart), the code of every row, and a posting list per code (the
/// row ids holding that value, in row order; a code's first row alone
/// until it has a second, so a unique column allocates no lists). There
/// is one selection path, `ForEachMatch`: `A = a` walks the posting of
/// a's code; the other operators evaluate θ once per distinct value and
/// scan the row codes through that truth table. Results equal a
/// `Predicate::Eval` loop over the rows, in the same order.
///
/// Thread safety: const methods may run concurrently with each other;
/// `Append` must not run concurrently with anything. A relation being
/// served is read-only, so readers need no locking.
class Relation {
 public:
  explicit Relation(Schema schema);

  const Schema& schema() const { return schema_; }
  size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }

  /// Appends a row and indexes it. Errors with InvalidArgument on arity
  /// or type mismatch against the schema.
  Status Append(Tuple row);

  /// The row with the given id; ids are dense in [0, size()).
  const Tuple& row(RowId id) const { return rows_[id]; }

  /// Distinct values (equality classes) of `column`.
  size_t distinct_values(size_t column) const {
    return columns_[column].first.size();
  }

  /// σ_{column θ constant}(R): calls `visit(id)` for every row id whose
  /// value satisfies `value θ constant`, in row order, reading the
  /// matches in place. `constant` must have the column's type (what
  /// `BindColumn` checks).
  template <typename Visit>
  void ForEachMatch(size_t column, CompareOp op, const Value& constant,
                    Visit&& visit) const;

  /// σ_pred(R): ids of all rows satisfying `pred`, in row order.
  std::vector<RowId> Select(const Predicate& pred) const;

  /// Ids of all rows satisfying every predicate (conjunction).
  std::vector<RowId> SelectAll(const std::vector<Predicate>& preds) const;

 private:
  /// The selection structures of one column.
  struct ColumnIndex {
    std::vector<uint32_t> codes;  ///< Per row: its value's code.
    /// Per code: its first row, whose value stands for the code's class.
    std::vector<RowId> first;
    /// Per code: the index of its posting list in `postings`, or
    /// `kNoCode` while the code holds one row (its posting is `first`).
    std::vector<uint32_t> list;
    /// The posting lists of codes with two or more rows, in row order.
    std::vector<std::vector<RowId>> postings;
    /// Open-addressing hash set of codes (linear probing, power-of-two
    /// size, at most half full), keyed by the class's value.
    std::vector<uint32_t> slots;
  };

  static constexpr uint32_t kNoCode = UINT32_MAX;

  const Value& ClassValue(size_t column, uint32_t code) const {
    return rows_[columns_[column].first[code]][column];
  }
  /// The slot holding `value`'s class, or the empty slot it would take.
  size_t FindSlot(size_t column, const Value& value) const;
  /// Doubles the slot table of `column` and re-inserts every code.
  void GrowSlots(size_t column);
  /// The rows whose value equals `constant`, in row order.
  std::span<const RowId> EqualRows(size_t column, const Value& constant) const;
  /// Per code of `column`: whether its value satisfies `θ constant`.
  std::vector<uint8_t> TruthTable(size_t column, CompareOp op,
                                  const Value& constant) const;

  Schema schema_;
  std::vector<Tuple> rows_;
  std::vector<ColumnIndex> columns_;
};

template <typename Visit>
void Relation::ForEachMatch(size_t column, CompareOp op, const Value& constant,
                            Visit&& visit) const {
  if (op == CompareOp::kEq) {
    for (RowId id : EqualRows(column, constant)) visit(id);
    return;
  }
  const std::vector<uint8_t> truth = TruthTable(column, op, constant);
  const std::vector<uint32_t>& codes = columns_[column].codes;
  for (RowId id = 0; id < codes.size(); ++id) {
    if (truth[codes[id]] != 0) visit(id);
  }
}

}  // namespace ctxpref::db

#endif  // CTXPREF_DB_RELATION_H_
