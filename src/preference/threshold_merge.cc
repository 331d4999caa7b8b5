#include "preference/threshold_merge.h"

#include <algorithm>
#include <cstddef>

namespace ctxpref {

StatusOr<ScoredSource> ScoredSource::Clause(const db::Relation& relation,
                                            const AttributeClause& clause,
                                            double score) {
  StatusOr<size_t> column =
      db::BindColumn(relation.schema(), clause.attribute, clause.value.type());
  if (!column.ok()) return column.status();
  ScoredSource source;
  source.score_ = score;
  if (clause.op == db::CompareOp::kEq) {
    source.kind_ = Kind::kPosting;
    source.rows_ = relation.EqualRows(*column, clause.value);
    return source;
  }
  source.kind_ = Kind::kScan;
  source.column_ = *column;
  source.op_ = clause.op;
  source.constant_ = &clause.value;
  return source;
}

ScoredSource ScoredSource::List(std::span<const db::ScoredTuple> tuples) {
  ScoredSource source;
  source.list_ = tuples;
  return source;
}

namespace {

/// The per-query seen set: one bit per row id, sized for the relation
/// (a hand-built list may hold larger ids; they grow it).
class SeenBits {
 public:
  explicit SeenBits(size_t rows) : words_((rows + 63) / 64, 0) {}

  /// Whether no row is marked.
  bool empty() const { return empty_; }
  /// The bits of the 64-row group holding `row`.
  uint64_t Word(db::RowId row) const {
    return row / 64 < words_.size() ? words_[row / 64] : 0;
  }
  bool Test(db::RowId row) const { return (Word(row) >> (row % 64)) & 1; }
  void Mark(db::RowId row) {
    if (row / 64 >= words_.size()) words_.resize(row / 64 + 1, 0);
    words_[row / 64] |= uint64_t{1} << (row % 64);
    empty_ = false;
  }

 private:
  std::vector<uint64_t> words_;
  bool empty_ = true;
};

/// Appends `to_tuple(e)` for each element `e` of `run` (ascending rows,
/// each once: a list run's tuples or a posting list's row ids) whose
/// row `seen` does not hold. Nothing seen means one copy of the whole
/// run; otherwise a 64-row group whose seen word is empty is copied
/// whole, so a level that earlier levels barely touched costs a copy,
/// not a test per row.
template <typename T, typename ToTuple>
void AppendUnseen(std::span<const T> run, ToTuple to_tuple,
                  const SeenBits& seen, std::vector<db::ScoredTuple>& out) {
  if (out.capacity() < out.size() + run.size()) {
    // Geometric growth: a merge may append many runs.
    out.reserve(std::max(out.size() + run.size(), 2 * out.capacity()));
  }
  auto append_all = [&](std::span<const T> part) {
    const size_t base = out.size();
    out.resize(base + part.size());
    for (size_t i = 0; i < part.size(); ++i) out[base + i] = to_tuple(part[i]);
  };
  if (seen.empty()) {
    append_all(run);
    return;
  }
  while (!run.empty()) {
    const db::RowId first = to_tuple(run.front()).row_id;
    // Rows are distinct, so at most 64 of them share a group.
    std::span<const T> head = run.first(std::min<size_t>(run.size(), 64));
    head = head.first(static_cast<size_t>(
        std::partition_point(head.begin(), head.end(),
                             [&](const T& e) {
                               return to_tuple(e).row_id / 64 == first / 64;
                             }) -
        head.begin()));
    const uint64_t word = seen.Word(first);
    if (word == 0) {
      append_all(head);
    } else {
      for (const T& e : head) {
        const db::ScoredTuple t = to_tuple(e);
        if (((word >> (t.row_id % 64)) & 1) == 0) out.push_back(t);
      }
    }
    run = run.subspan(head.size());
  }
}

/// Whether the merge may skip `sources[j]`: a kEq clause source whose
/// posting list another source holds at a higher score, or at an equal
/// score earlier in input order (see `ThresholdMerge`).
bool Dominated(std::span<const ScoredSource> sources, size_t j) {
  const ScoredSource& s = sources[j];
  if (!s.is_posting()) return false;
  for (size_t i = 0; i < sources.size(); ++i) {
    const ScoredSource& o = sources[i];
    if (i == j || !o.is_posting() || o.rows().data() != s.rows().data() ||
        o.rows().size() != s.rows().size()) {
      continue;
    }
    if (o.score() > s.score() || (o.score() == s.score() && i < j)) {
      return true;
    }
  }
  return false;
}

/// Where one source stands in the merge: a list's untaken tail, or
/// whether a clause (always taken whole) is still pending.
struct Cursor {
  const ScoredSource* source;
  std::span<const db::ScoredTuple> rest;
  bool pending;

  bool has_head() const { return source->is_list() ? !rest.empty() : pending; }
  double head() const {
    return source->is_list() ? rest.front().score : source->score();
  }
  /// Takes the run at the head (every row scored `level`): a list's
  /// prefix of equal scores, or the whole clause (empty span).
  std::span<const db::ScoredTuple> TakeRun(double level) {
    if (!source->is_list()) {
      pending = false;
      return {};
    }
    // Scores descend, so the run is the prefix scored `level`.
    const size_t end = static_cast<size_t>(
        std::partition_point(
            rest.begin(), rest.end(),
            [level](const db::ScoredTuple& t) { return t.score == level; }) -
        rest.begin());
    std::span<const db::ScoredTuple> run = rest.first(end);
    rest = rest.subspan(end);
    return run;
  }
};

bool Eligible(const db::Relation& relation,
              const std::vector<db::Predicate>& selections, db::RowId row) {
  for (const db::Predicate& sel : selections) {
    if (!sel.Eval(relation.row(row))) return false;
  }
  return true;
}

}  // namespace

std::vector<db::ScoredTuple> ThresholdMerge(
    const db::Relation& relation, std::span<const ScoredSource> sources,
    const std::vector<db::Predicate>& selections, size_t top_k,
    uint64_t* visited) {
  std::vector<Cursor> cursors;
  cursors.reserve(sources.size());
  for (size_t i = 0; i < sources.size(); ++i) {
    if (Dominated(sources, i)) continue;
    cursors.push_back(
        Cursor{&sources[i], sources[i].list(), !sources[i].is_list()});
  }
  // Rows emitted at earlier levels. A level reads it but never writes
  // it: a level's rows are marked after it, when another level follows.
  SeenBits seen(relation.size());
  std::vector<db::ScoredTuple> out;
  uint64_t read = 0;
  // Emits `row` at `score` unless an earlier level emitted it or a
  // selection rejects it.
  auto offer = [&](db::RowId row, double score) {
    if (!seen.Test(row) && Eligible(relation, selections, row)) {
      out.push_back({row, score});
    }
  };

  std::vector<std::span<const db::ScoredTuple>> runs;
  std::vector<db::ScoredTuple> buffer;  // Materialised clause runs.
  // Per materialised clause run: its index in `runs`, its buffer start.
  std::vector<std::pair<size_t, size_t>> clause_ranges;
  for (;;) {
    // The level: the best head score, and how many sources share it.
    size_t sharing = 0;
    size_t only = 0;
    double top = 0.0;
    for (size_t i = 0; i < cursors.size(); ++i) {
      if (!cursors[i].has_head()) continue;
      const double h = cursors[i].head();
      if (sharing == 0 || h > top) {
        top = h;
        sharing = 1;
        only = i;
      } else if (h == top) {
        ++sharing;
      }
    }
    if (sharing == 0) break;
    const size_t level_begin = out.size();

    if (sharing == 1) {
      // One source: with no selections its run goes to `out` in bulk.
      Cursor& c = cursors[only];
      const ScoredSource& source = *c.source;
      const std::span<const db::ScoredTuple> run = c.TakeRun(top);
      if (source.is_list()) {
        read += run.size();
        if (selections.empty()) {
          AppendUnseen(run, [](const db::ScoredTuple& t) { return t; }, seen,
                       out);
        } else {
          for (const db::ScoredTuple& t : run) offer(t.row_id, t.score);
        }
      } else if (source.is_posting() && selections.empty()) {
        read += source.rows().size();
        const double score = source.score();
        AppendUnseen(
            source.rows(),
            [score](db::RowId row) { return db::ScoredTuple{row, score}; },
            seen, out);
      } else {
        source.ForEach(relation, [&](db::RowId row, double score) {
          ++read;
          offer(row, score);
        });
      }
    } else {
      // Several sources share the level: merge their runs by row id,
      // the earliest source first on equal rows (sources are taken in
      // input order). Clause rows are materialised (minus rows earlier
      // levels emitted) so every run is a row-ordered span.
      buffer.clear();
      clause_ranges.clear();
      runs.clear();
      for (Cursor& c : cursors) {
        if (!c.has_head() || c.head() != top) continue;
        if (c.source->is_list()) {
          runs.push_back(c.TakeRun(top));
          read += runs.back().size();
          continue;
        }
        c.TakeRun(top);
        const size_t begin = buffer.size();
        c.source->ForEach(relation, [&](db::RowId row, double score) {
          ++read;
          if (!seen.Test(row)) buffer.push_back({row, score});
        });
        clause_ranges.push_back({runs.size(), begin});
        runs.push_back({});
      }
      // The buffer is complete; point the clause runs into it.
      for (size_t r = 0; r < clause_ranges.size(); ++r) {
        const size_t begin = clause_ranges[r].second;
        const size_t end = r + 1 < clause_ranges.size()
                               ? clause_ranges[r + 1].second
                               : buffer.size();
        runs[clause_ranges[r].first] =
            std::span<const db::ScoredTuple>(buffer).subspan(begin,
                                                             end - begin);
      }
      // Copies of one row come out back to back; the first one decides.
      bool first = true;
      db::RowId last = 0;
      for (;;) {
        size_t best = runs.size();
        for (size_t r = 0; r < runs.size(); ++r) {
          if (runs[r].empty()) continue;
          if (best == runs.size() ||
              runs[r].front().row_id < runs[best].front().row_id) {
            best = r;
          }
        }
        if (best == runs.size()) break;
        const db::ScoredTuple t = runs[best].front();
        runs[best] = runs[best].subspan(1);
        if (!first && t.row_id == last) continue;
        first = false;
        last = t.row_id;
        offer(t.row_id, t.score);
      }
    }
    // Threshold: the level that brought the answer to k closes it, tie
    // run included.
    if (top_k > 0 && out.size() >= top_k) break;
    if (std::none_of(cursors.begin(), cursors.end(),
                     [](const Cursor& c) { return c.has_head(); })) {
      break;
    }
    // A later level may hold this level's rows again. A row a selection
    // rejected goes unmarked: it fails again wherever it recurs.
    for (size_t i = level_begin; i < out.size(); ++i) seen.Mark(out[i].row_id);
  }
  if (visited != nullptr) *visited += read;
  return out;
}

std::vector<db::ScoredTuple> RankSources(
    const db::Relation& relation, std::span<const ScoredSource> sources,
    const std::vector<db::Predicate>& selections, db::CombinePolicy combine,
    size_t top_k, uint64_t* scored) {
  if (combine == db::CombinePolicy::kMax) {
    return ThresholdMerge(relation, sources, selections, top_k, scored);
  }
  db::Ranker ranker(combine, relation.size());
  uint64_t added = 0;
  for (const ScoredSource& source : sources) {
    source.ForEach(relation, [&](db::RowId row, double score) {
      if (!Eligible(relation, selections, row)) return;
      ranker.Add(row, score);
      ++added;
    });
  }
  if (scored != nullptr) *scored += added;
  return top_k > 0 ? ranker.TopK(top_k) : ranker.Ranked();
}

}  // namespace ctxpref
