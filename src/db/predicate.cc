#include "db/predicate.h"

#include <string>

namespace ctxpref::db {

StatusOr<size_t> BindColumn(const Schema& schema, std::string_view column_name,
                            ColumnType type) {
  StatusOr<size_t> idx = schema.IndexOf(column_name);
  if (!idx.ok()) return idx.status();
  const Column& col = schema.column(*idx);
  if (col.type != type) {
    return Status::InvalidArgument(
        "predicate constant type " + std::string(ColumnTypeToString(type)) +
        " does not match column '" + col.name + "' of type " +
        ColumnTypeToString(col.type));
  }
  return idx;
}

StatusOr<Predicate> Predicate::Create(const Schema& schema,
                                      std::string_view column_name,
                                      CompareOp op, Value constant) {
  StatusOr<size_t> idx = BindColumn(schema, column_name, constant.type());
  if (!idx.ok()) return idx.status();
  return Predicate(*idx, op, std::move(constant));
}

}  // namespace ctxpref::db
