#ifndef CTXPREF_PREFERENCE_RESOLUTION_H_
#define CTXPREF_PREFERENCE_RESOLUTION_H_

#include <vector>

#include "context/distance.h"
#include "context/state.h"
#include "preference/flat_profile_tree.h"
#include "preference/profile.h"
#include "preference/profile_tree.h"
#include "util/counters.h"
#include "util/trace.h"

namespace ctxpref {

/// Options controlling context resolution (paper §4.2-4.4).
struct ResolutionOptions {
  /// Metric used to order covering candidates (paper §4.3).
  DistanceKind distance = DistanceKind::kHierarchy;
  /// When true, only the exact path is considered (paper §4.4 case 1).
  bool exact_only = false;

  friend bool operator==(const ResolutionOptions&,
                         const ResolutionOptions&) = default;
};

/// One candidate produced by Search_CS: a stored context state that
/// covers the query state, its distance from the query, and the leaf
/// entries (attribute clauses + scores) applicable in it.
struct CandidatePath {
  ContextState state;
  double distance = 0.0;
  std::vector<ProfileTree::LeafEntry> entries;
};

/// Relative-epsilon equality for accumulated candidate distances.
/// Per-level Jaccard (or level-count) distances are summed along the
/// tree path, so two mathematically tied candidates can differ by a few
/// ulps depending on accumulation order (0.1 + 0.2 != 0.3 in binary);
/// exact `==` would silently drop one of the tied candidates.
bool NearlyEqual(double a, double b);

/// The winner rule of context resolution, the one implementation
/// every resolver (`TreeResolver`, `FlatResolver`, `SequentialStore`)
/// calls: of candidates `0..n-1`, keeps those at minimum
/// `distance_of(i)` — several on ties; the paper leaves tie-breaking
/// to the system or the user, and `Rank_CS` consumes all tied
/// candidates. Ties are detected with `NearlyEqual`, not exact `==`.
///
/// Under `kJaccard` the tied winners are then kept only at minimum
/// `hierarchy_distance_of(i)` (again by `NearlyEqual`): in degenerate
/// hierarchies an ancestor can have the *same* detailed extent as its
/// child (see the Property-3 erratum in DESIGN.md), so two candidates
/// along one covers-chain can tie at Jaccard distance 0 — and picking
/// the upper one would violate Def. 12's minimality. The hierarchy
/// distance is *strictly* covers-compatible (Property 2), so this
/// second stage always leaves formal matches. It runs only when more
/// than one first-stage winner remains, and asks
/// `hierarchy_distance_of` only for those.
///
/// Returns the winners' indices in ascending order. Opens
/// `resolve.best_candidates`, and `resolve.tie_break` around the
/// second stage.
template <typename DistanceOf, typename HierarchyDistanceOf>
std::vector<size_t> BestCandidateIndices(
    size_t n, DistanceKind kind, DistanceOf distance_of,
    HierarchyDistanceOf hierarchy_distance_of) {
  std::vector<size_t> winners;
  {
    TraceSpan select("resolve.best_candidates");
    double best = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const double d = distance_of(i);
      if (i == 0 || d < best) best = d;
    }
    winners.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      if (NearlyEqual(distance_of(i), best)) winners.push_back(i);
    }
  }
  if (kind != DistanceKind::kJaccard || winners.size() <= 1) return winners;
  TraceSpan tie_break("resolve.tie_break");
  std::vector<double> dist(winners.size());
  double best = 0.0;
  for (size_t w = 0; w < winners.size(); ++w) {
    dist[w] = hierarchy_distance_of(winners[w]);
    if (w == 0 || dist[w] < best) best = dist[w];
  }
  size_t kept = 0;
  for (size_t w = 0; w < winners.size(); ++w) {
    if (NearlyEqual(dist[w], best)) winners[kept++] = winners[w];
  }
  winners.resize(kept);
  return winners;
}

/// Puts resolved winners in ascending `ContextState` order, the order
/// every resolver's `ResolveBest` returns. Search_CS yields a *set* of
/// covering states and each layout meets it in its own order; sorting
/// the winners makes Rank_CS answers and traces independent of the
/// resolver and the ordering.
void SortByState(std::vector<CandidatePath>& winners);

/// Resolution over the profile tree: the paper's Search_CS
/// (Algorithm 1). The resolver borrows the tree (no ownership); the
/// tree must outlive it.
class TreeResolver {
 public:
  explicit TreeResolver(const ProfileTree* tree) : tree_(tree) {}

  /// Search_CS: descends the tree from the root; at each level follows
  /// every cell whose key equals the query component *or is one of its
  /// ancestors* (including `all`), accumulating per-parameter distance.
  /// Returns all covering candidate paths with their distances. Every
  /// inspected cell ticks `counter`.
  std::vector<CandidatePath> SearchCS(const ContextState& query,
                                      const ResolutionOptions& options = {},
                                      AccessCounter* counter = nullptr) const;

  /// Search_CS followed by minimum-distance selection — the complete
  /// context resolution step for one query state, winners in state
  /// order (`SortByState`). Empty result means no stored state covers
  /// the query (the query then runs as a non-contextual query, paper
  /// §4.2).
  std::vector<CandidatePath> ResolveBest(const ContextState& query,
                                         const ResolutionOptions& options = {},
                                         AccessCounter* counter = nullptr) const;

  const ProfileTree& tree() const { return *tree_; }

 private:
  void Recurse(const ProfileTree::Node& node, size_t level,
               const ContextState& query, const ResolutionOptions& options,
               std::vector<double>& step_by_param, std::vector<ValueRef>& path,
               std::vector<CandidatePath>& out, AccessCounter* counter) const;

  const ProfileTree* tree_;
};

/// Resolution over the arena-flattened tree (`FlatProfileTree`) — a
/// drop-in replacement for `TreeResolver` with identical semantics
/// (same candidate set, same canonical env-order distances, same winner
/// rule and winner order), used by the serving path. `SearchCS` emits
/// candidates in the arena's key-path order, not the pointer tree's.
/// `ResolveBest` runs `BestCandidateIndices` on the compact (leaf,
/// distance) candidates and materializes full `CandidatePath`s (state +
/// copied entries) only for the winners; `SearchCS` still materializes
/// everything, for diagnostics and the differential tests.
class FlatResolver {
 public:
  explicit FlatResolver(const FlatProfileTree* tree) : tree_(tree) {}

  std::vector<CandidatePath> SearchCS(const ContextState& query,
                                      const ResolutionOptions& options = {},
                                      AccessCounter* counter = nullptr) const;

  std::vector<CandidatePath> ResolveBest(const ContextState& query,
                                         const ResolutionOptions& options = {},
                                         AccessCounter* counter = nullptr) const;

  const FlatProfileTree& tree() const { return *tree_; }

 private:
  const FlatProfileTree* tree_;
};

/// ---- Formal (specification-level) resolution, used by tests ----

/// All distinct states stored in `profile` (expanded from descriptors)
/// that cover `query` (Def. 10/11).
std::vector<ContextState> CoveringStates(const Profile& profile,
                                         const ContextState& query);

/// The matches of Def. 12: covering states that are minimal under the
/// covers partial order (no other covering state is covered by them).
/// Property 2/3 guarantee the minimum-distance candidate of Search_CS
/// is always one of these.
std::vector<ContextState> FormalMatches(const Profile& profile,
                                        const ContextState& query);

}  // namespace ctxpref

#endif  // CTXPREF_PREFERENCE_RESOLUTION_H_
