#include "db/ranker.h"

#include <algorithm>
#include <cassert>

namespace ctxpref::db {

const char* CombinePolicyToString(CombinePolicy p) {
  switch (p) {
    case CombinePolicy::kMax:
      return "max";
    case CombinePolicy::kMin:
      return "min";
    case CombinePolicy::kAvg:
      return "avg";
  }
  return "?";
}

void Ranker::Add(RowId row_id, double score) {
  assert(row_id < entries_.size());
  Entry& e = entries_[row_id];
  if (e.count++ == 0) {
    touched_.push_back(row_id);
    e.value = score;
    return;
  }
  switch (policy_) {
    case CombinePolicy::kMax:
      e.value = std::max(e.value, score);
      break;
    case CombinePolicy::kMin:
      e.value = std::min(e.value, score);
      break;
    case CombinePolicy::kAvg:
      e.value += score;
      break;
  }
}

void Ranker::Clear() {
  for (const RowId id : touched_) entries_[id].count = 0;
  touched_.clear();
}

double Ranker::Finalize(const Entry& e) const {
  return policy_ == CombinePolicy::kAvg ? e.value / e.count : e.value;
}

namespace {

/// The ranking order: descending score, ties broken by ascending row
/// id. A total order over distinct rows, so any algorithm that sorts
/// by it produces the same sequence.
bool RanksBefore(const ScoredTuple& a, const ScoredTuple& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.row_id < b.row_id;
}

}  // namespace

std::vector<ScoredTuple> Ranker::Unsorted() const {
  std::vector<ScoredTuple> out;
  out.reserve(size());
  for (const RowId id : touched_) {
    out.push_back(ScoredTuple{id, Finalize(entries_[id])});
  }
  return out;
}

std::vector<ScoredTuple> Ranker::Ranked() const {
  std::vector<ScoredTuple> out = Unsorted();
  std::sort(out.begin(), out.end(), RanksBefore);
  return out;
}

std::vector<ScoredTuple> Ranker::TopK(size_t k) const {
  std::vector<ScoredTuple> out = Unsorted();
  if (k == 0 || out.size() <= k) {
    std::sort(out.begin(), out.end(), RanksBefore);
    return out;
  }
  // Select the k-th place, pull the tail rows tied with its score up
  // behind it (tie extension), and sort only that prefix. Equal to the
  // full sort's prefix because RanksBefore is a total order.
  const auto kth = out.begin() + static_cast<ptrdiff_t>(k - 1);
  std::nth_element(out.begin(), kth, out.end(), RanksBefore);
  const double kth_score = kth->score;
  const auto end = std::partition(
      kth + 1, out.end(),
      [kth_score](const ScoredTuple& t) { return t.score == kth_score; });
  std::sort(out.begin(), end, RanksBefore);
  out.erase(end, out.end());
  return out;
}

}  // namespace ctxpref::db
