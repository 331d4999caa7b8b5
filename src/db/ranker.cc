#include "db/ranker.h"

#include <algorithm>

namespace ctxpref::db {

const char* CombinePolicyToString(CombinePolicy p) {
  switch (p) {
    case CombinePolicy::kMax:
      return "max";
    case CombinePolicy::kMin:
      return "min";
    case CombinePolicy::kAvg:
      return "avg";
    case CombinePolicy::kWeighted:
      return "weighted";
  }
  return "?";
}

void Ranker::Combine(Entry& e, double score, double weight) {
  switch (policy_) {
    case CombinePolicy::kMax:
      e.combined = std::max(e.combined, score);
      break;
    case CombinePolicy::kMin:
      e.combined = std::min(e.combined, score);
      break;
    case CombinePolicy::kAvg:
    case CombinePolicy::kWeighted:
      break;  // Handled via the weighted sums below.
  }
  e.weighted_sum += score * weight;
  e.weight_sum += weight;
}

void Ranker::AddWeighted(RowId row_id, double score, double weight) {
  if (row_id < present_.size()) {
    // Dense path (ReserveDense): one indexed load, no insertion shift.
    Entry& e = dense_[row_id];
    if (!present_[row_id]) {
      present_[row_id] = 1;
      touched_.push_back(row_id);
      e = Entry{score, score * weight, weight};
      return;
    }
    Combine(e, score, weight);
    return;
  }
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), row_id,
      [](const auto& e, RowId id) { return e.first < id; });
  if (it == entries_.end() || it->first != row_id) {
    entries_.insert(it,
                    {row_id, Entry{score, score * weight, weight}});
    return;
  }
  Combine(it->second, score, weight);
}

void Ranker::ReserveDense(size_t num_rows) {
  if (num_rows <= dense_.size()) return;
  dense_.resize(num_rows);
  present_.resize(num_rows, 0);
  // Migrate flat-map entries the dense table now covers, so mixing
  // ReserveDense with earlier Adds cannot double-count a row.
  auto it = entries_.begin();
  while (it != entries_.end()) {
    if (it->first < num_rows) {
      dense_[it->first] = it->second;
      present_[it->first] = 1;
      touched_.push_back(it->first);
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
}

void Ranker::Clear() {
  entries_.clear();
  for (const RowId id : touched_) present_[id] = 0;
  touched_.clear();
}

double Ranker::Finalize(const Entry& e) const {
  switch (policy_) {
    case CombinePolicy::kMax:
    case CombinePolicy::kMin:
      return e.combined;
    case CombinePolicy::kAvg:
    case CombinePolicy::kWeighted:
      return e.weight_sum > 0 ? e.weighted_sum / e.weight_sum : 0.0;
  }
  return 0.0;
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
  for (const auto& [row_id, e] : entries_) {
    out.push_back(ScoredTuple{row_id, Finalize(e)});
  }
  for (const RowId id : touched_) {
    out.push_back(ScoredTuple{id, Finalize(dense_[id])});
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
