#ifndef CTXPREF_DB_PREDICATE_H_
#define CTXPREF_DB_PREDICATE_H_

#include <string_view>

#include "db/schema.h"
#include "db/tuple.h"
#include "db/value.h"
#include "util/status.h"

namespace ctxpref::db {

/// Binds `column_name` for a constant of type `type`: the column's index
/// in `schema`. NotFound for an unknown column, InvalidArgument when
/// the column's type is not `type`.
StatusOr<size_t> BindColumn(const Schema& schema, std::string_view column_name,
                            ColumnType type);

/// A selection predicate `A θ a` over one column (the attribute-clause
/// shape of paper Def. 5 and the σ of Rank_CS).
class Predicate {
 public:
  /// Binds `column_name θ constant` against `schema`, checking that the
  /// column exists and the constant's type matches the column's.
  static StatusOr<Predicate> Create(const Schema& schema,
                                    std::string_view column_name,
                                    CompareOp op, Value constant);

  size_t column_index() const { return column_index_; }
  CompareOp op() const { return op_; }
  const Value& constant() const { return constant_; }

  /// True iff `tuple` satisfies the predicate.
  bool Eval(const Tuple& tuple) const {
    return EvalCompare(tuple[column_index_], op_, constant_);
  }

 private:
  Predicate(size_t column_index, CompareOp op, Value constant)
      : column_index_(column_index), op_(op), constant_(std::move(constant)) {}

  size_t column_index_;
  CompareOp op_;
  Value constant_;
};

}  // namespace ctxpref::db

#endif  // CTXPREF_DB_PREDICATE_H_
