#include "preference/resolution.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "util/metrics.h"
#include "util/trace.h"

namespace ctxpref {

namespace {

/// Resolution metrics, registered once on first resolve. Counters are
/// always ticked (one relaxed add each); the latency histogram records
/// only under `MetricsRegistry::TimingEnabled()`.
struct ResolveMetrics {
  Counter& resolutions;
  Counter& candidates;
  LatencyHistogram& latency;

  static ResolveMetrics& Get() {
    MetricsRegistry& reg = MetricsRegistry::Global();
    static ResolveMetrics* m = new ResolveMetrics{
        reg.GetCounter("ctxpref_resolve_total",
                       "Context resolutions (ResolveBest calls)"),
        reg.GetCounter("ctxpref_resolve_candidates_total",
                       "Winning candidate paths returned by ResolveBest"),
        reg.GetHistogram("ctxpref_resolve_latency_ns",
                         "End-to-end ResolveBest latency"),
    };
    return *m;
  }
};

}  // namespace

bool NearlyEqual(double a, double b) {
  // Relative to the larger magnitude, with an absolute floor of 1 so
  // distances near zero compare sanely (all distances here are small
  // non-negative sums of per-level terms in [0, n]).
  constexpr double kEps = 1e-9;
  return std::abs(a - b) <= kEps * std::max({1.0, std::abs(a), std::abs(b)});
}

void SortByState(std::vector<CandidatePath>& winners) {
  std::sort(winners.begin(), winners.end(),
            [](const CandidatePath& a, const CandidatePath& b) {
              return a.state < b.state;
            });
}

void TreeResolver::Recurse(const ProfileTree::Node& node, size_t level,
                           const ContextState& query,
                           const ResolutionOptions& options,
                           std::vector<double>& step_by_param,
                           std::vector<ValueRef>& path,
                           std::vector<CandidatePath>& out,
                           AccessCounter* counter) const {
  const ContextEnvironment& env = tree_->env();
  const size_t n = env.size();
  if (level == n) {
    // `node` is a leaf: emit the candidate (reorder path components
    // from tree-level order back to environment order). The distance
    // is the per-parameter steps summed in *environment* order — the
    // canonical accumulation order of `StateDistance`. Summing along
    // the tree path instead would drift from the oracle by a few ulps
    // whenever the ordering permutes the parameters (FP addition is
    // not associative), which `NearlyEqual` papers over for the
    // winning set but not for exact flat-vs-pointer equality.
    double distance = 0.0;
    for (const double step : step_by_param) distance += step;
    std::vector<ValueRef> values(n);
    for (size_t l = 0; l < n; ++l) {
      values[tree_->ordering().param_at_level(l)] = path[l];
    }
    out.push_back(
        CandidatePath{ContextState(std::move(values)), distance, node.entries});
    return;
  }

  const size_t param = tree_->ordering().param_at_level(level);
  const Hierarchy& h = env.parameter(param).hierarchy();
  const ValueRef qv = query.value(param);

  for (const ProfileTree::Node::Cell& cell : node.cells) {
    if (counter != nullptr) counter->AddCell();
    if (options.exact_only) {
      if (cell.key != qv) continue;
    } else if (!h.IsAncestorOrSelf(cell.key, qv)) {
      continue;
    }
    path.push_back(cell.key);
    step_by_param[param] = ComponentDistance(options.distance, h, cell.key, qv);
    Recurse(*cell.child, level + 1, query, options, step_by_param, path, out,
            counter);
    path.pop_back();
  }
}

std::vector<CandidatePath> TreeResolver::SearchCS(
    const ContextState& query, const ResolutionOptions& options,
    AccessCounter* counter) const {
  // The tree-descent phase: cell matching and per-level distance
  // computation happen together inside Recurse.
  TraceSpan span("resolve.search_cs");
  std::vector<CandidatePath> out;
  std::vector<ValueRef> path;
  path.reserve(tree_->env().size());
  std::vector<double> step_by_param(tree_->env().size(), 0.0);
  Recurse(tree_->root(), 0, query, options, step_by_param, path, out, counter);
  if (span.active()) {
    span.Tag("candidates", static_cast<uint64_t>(out.size()));
    span.Tag("distance", options.distance == DistanceKind::kJaccard
                             ? "jaccard"
                             : "hierarchy");
  }
  return out;
}

std::vector<CandidatePath> TreeResolver::ResolveBest(
    const ContextState& query, const ResolutionOptions& options,
    AccessCounter* counter) const {
  ResolveMetrics& metrics = ResolveMetrics::Get();
  TraceSpan span("resolve");
  ScopedLatency latency(&metrics.latency);
  std::vector<CandidatePath> all = SearchCS(query, options, counter);
  std::vector<CandidatePath> best;
  for (const size_t i : BestCandidateIndices(
           all.size(), options.distance,
           [&](size_t c) { return all[c].distance; },
           [&](size_t c) {
             return HierarchyStateDistance(tree_->env(), all[c].state, query);
           })) {
    best.push_back(std::move(all[i]));
  }
  SortByState(best);
  metrics.resolutions.Increment();
  metrics.candidates.Increment(best.size());
  if (span.active()) {
    span.Tag("candidates", static_cast<uint64_t>(best.size()));
  }
  return best;
}

std::vector<CandidatePath> FlatResolver::SearchCS(
    const ContextState& query, const ResolutionOptions& options,
    AccessCounter* counter) const {
  TraceSpan span("resolve.search_cs");
  std::vector<FlatProfileTree::FlatCandidate> flats;
  std::vector<uint32_t> paths;
  tree_->SearchCS(query, options.distance, options.exact_only, counter, flats,
                  paths);
  const size_t n = tree_->num_levels();
  std::vector<CandidatePath> out;
  out.reserve(flats.size());
  for (size_t i = 0; i < flats.size(); ++i) {
    out.push_back(CandidatePath{tree_->StateOf(paths.data() + i * n),
                                flats[i].distance,
                                tree_->EntriesOf(flats[i].leaf)});
  }
  if (span.active()) {
    span.Tag("candidates", static_cast<uint64_t>(out.size()));
    span.Tag("distance", options.distance == DistanceKind::kJaccard
                             ? "jaccard"
                             : "hierarchy");
  }
  return out;
}

std::vector<CandidatePath> FlatResolver::ResolveBest(
    const ContextState& query, const ResolutionOptions& options,
    AccessCounter* counter) const {
  ResolveMetrics& metrics = ResolveMetrics::Get();
  TraceSpan span("resolve");
  ScopedLatency latency(&metrics.latency);
  std::vector<FlatProfileTree::FlatCandidate> flats;
  std::vector<uint32_t> paths;
  {
    TraceSpan search("resolve.search_cs");
    tree_->SearchCS(query, options.distance, options.exact_only, counter,
                    flats, paths);
  }
  const size_t n = tree_->num_levels();
  // Winners are picked on the compact candidates, before
  // materialization, so losing candidates never have their state or
  // entries copied out of the arena.
  const std::vector<size_t> winners = BestCandidateIndices(
      flats.size(), options.distance,
      [&](size_t i) { return flats[i].distance; },
      [&](size_t i) {
        return tree_->HierarchyDistanceOf(paths.data() + i * n, query);
      });
  std::vector<CandidatePath> out;
  out.reserve(winners.size());
  for (const size_t i : winners) {
    out.push_back(CandidatePath{tree_->StateOf(paths.data() + i * n),
                                flats[i].distance,
                                tree_->EntriesOf(flats[i].leaf)});
  }
  SortByState(out);
  metrics.resolutions.Increment();
  metrics.candidates.Increment(out.size());
  if (span.active()) {
    span.Tag("candidates", static_cast<uint64_t>(out.size()));
  }
  return out;
}

std::vector<ContextState> CoveringStates(const Profile& profile,
                                         const ContextState& query) {
  std::vector<ContextState> out;
  std::unordered_set<ContextState, ContextStateHash> seen;
  for (const ContextualPreference& pref : profile.preferences()) {
    for (ContextState& s : pref.States(profile.env())) {
      if (!s.Covers(profile.env(), query)) continue;
      if (seen.insert(s).second) out.push_back(std::move(s));
    }
  }
  return out;
}

std::vector<ContextState> FormalMatches(const Profile& profile,
                                        const ContextState& query) {
  std::vector<ContextState> covering = CoveringStates(profile, query);
  std::vector<ContextState> out;
  for (const ContextState& s : covering) {
    bool minimal = true;
    for (const ContextState& t : covering) {
      if (t != s && s.Covers(profile.env(), t)) {
        // Some other covering state t is strictly below s: s is not a
        // match per Def. 12(ii).
        minimal = false;
        break;
      }
    }
    if (minimal) out.push_back(s);
  }
  return out;
}

}  // namespace ctxpref
