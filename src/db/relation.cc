#include "db/relation.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>

namespace ctxpref::db {

namespace {

/// splitmix64's finalizer: spreads clustered keys (sequential ids,
/// multiples of a power of two) over the low bits the slot mask keeps.
uint64_t Mix(uint64_t h) {
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

/// Hash of `value`'s equality class: -0.0 hashes as 0.0, every NaN alike.
uint64_t ClassHash(const Value& value) {
  switch (value.type()) {
    case ColumnType::kInt64:
      return Mix(static_cast<uint64_t>(value.AsInt64()));
    case ColumnType::kDouble: {
      const double d = value.AsDouble();
      if (std::isnan(d)) return Mix(0x7ff8000000000000ULL);
      return Mix(std::bit_cast<uint64_t>(d == 0.0 ? 0.0 : d));
    }
    case ColumnType::kString:
      return Mix(std::hash<std::string>{}(value.AsString()));
    case ColumnType::kBool:
      return Mix(value.AsBool() ? 1 : 0);
  }
  return 0;
}

/// Whether two values of one type fall in one equality class: equal
/// under `==`, or both NaN (no comparison tells two NaNs apart).
bool SameClass(const Value& a, const Value& b) {
  if (a.type() == ColumnType::kDouble) {
    const double x = a.AsDouble();
    const double y = b.AsDouble();
    return x == y || (std::isnan(x) && std::isnan(y));
  }
  return a == b;
}

}  // namespace

Relation::Relation(Schema schema)
    : schema_(std::move(schema)), columns_(schema_.num_columns()) {}

Status Relation::Append(Tuple row) {
  if (row.size() != schema_.num_columns()) {
    return Status::InvalidArgument(
        "row has " + std::to_string(row.size()) + " values, schema expects " +
        std::to_string(schema_.num_columns()));
  }
  for (size_t i = 0; i < row.size(); ++i) {
    if (row[i].type() != schema_.column(i).type) {
      return Status::InvalidArgument(
          "value for column '" + schema_.column(i).name + "' has type " +
          ColumnTypeToString(row[i].type()) + ", expected " +
          ColumnTypeToString(schema_.column(i).type));
    }
  }
  const RowId id = rows_.size();
  rows_.push_back(std::move(row));
  for (size_t c = 0; c < columns_.size(); ++c) {
    ColumnIndex& index = columns_[c];
    // Room for one more code keeps the table at most half full.
    if (2 * (index.first.size() + 1) > index.slots.size()) GrowSlots(c);
    const size_t slot = FindSlot(c, rows_[id][c]);
    uint32_t code = index.slots[slot];
    if (code == kNoCode) {
      code = index.slots[slot] = static_cast<uint32_t>(index.first.size());
      index.first.push_back(id);
      index.list.push_back(kNoCode);
    } else {
      if (index.list[code] == kNoCode) {
        index.list[code] = static_cast<uint32_t>(index.postings.size());
        index.postings.push_back({index.first[code]});
      }
      index.postings[index.list[code]].push_back(id);
    }
    index.codes.push_back(code);
  }
  return Status::OK();
}

size_t Relation::FindSlot(size_t column, const Value& value) const {
  const std::vector<uint32_t>& slots = columns_[column].slots;
  const size_t mask = slots.size() - 1;
  for (size_t s = ClassHash(value) & mask;; s = (s + 1) & mask) {
    if (slots[s] == kNoCode || SameClass(ClassValue(column, slots[s]), value)) {
      return s;
    }
  }
}

void Relation::GrowSlots(size_t column) {
  ColumnIndex& index = columns_[column];
  index.slots.assign(std::max<size_t>(8, 2 * index.slots.size()), kNoCode);
  for (uint32_t code = 0; code < index.first.size(); ++code) {
    index.slots[FindSlot(column, ClassValue(column, code))] = code;
  }
}

std::span<const RowId> Relation::EqualRows(size_t column,
                                           const Value& constant) const {
  const ColumnIndex& index = columns_[column];
  if (index.slots.empty()) return {};
  const uint32_t code = index.slots[FindSlot(column, constant)];
  // The class holds `constant` but may still not equal it (NaN).
  if (code == kNoCode ||
      !EvalCompare(ClassValue(column, code), CompareOp::kEq, constant)) {
    return {};
  }
  if (index.list[code] == kNoCode) return {&index.first[code], 1};
  return index.postings[index.list[code]];
}

std::vector<uint8_t> Relation::TruthTable(size_t column, CompareOp op,
                                          const Value& constant) const {
  std::vector<uint8_t> truth(columns_[column].first.size());
  for (uint32_t code = 0; code < truth.size(); ++code) {
    truth[code] = EvalCompare(ClassValue(column, code), op, constant) ? 1 : 0;
  }
  return truth;
}

std::vector<RowId> Relation::Select(const Predicate& pred) const {
  std::vector<RowId> out;
  ForEachMatch(pred.column_index(), pred.op(), pred.constant(),
               [&out](RowId id) { out.push_back(id); });
  return out;
}

}  // namespace ctxpref::db
