#ifndef CTXPREF_PREFERENCE_RESOLUTION_H_
#define CTXPREF_PREFERENCE_RESOLUTION_H_

#include <vector>

#include "context/distance.h"
#include "context/state.h"
#include "preference/flat_profile_tree.h"
#include "preference/profile.h"
#include "preference/profile_tree.h"
#include "util/counters.h"

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

/// Keeps only the minimum-distance candidates of `candidates` (several
/// on ties — the paper leaves tie-breaking to the system or the user;
/// `Rank_CS` consumes all tied candidates). Ties are detected with
/// `NearlyEqual`, not exact `==`. Order is preserved.
std::vector<CandidatePath> BestCandidates(std::vector<CandidatePath> candidates);

/// Jaccard ties need a secondary key: in degenerate hierarchies an
/// ancestor can have the *same* detailed extent as its child (see the
/// Property-3 erratum in DESIGN.md), so two candidates along one
/// covers-chain can tie at Jaccard distance 0 — and picking the upper
/// one would violate Def. 12's minimality. The hierarchy distance is
/// *strictly* covers-compatible (Property 2), so filtering Jaccard
/// ties by minimum hierarchy distance always leaves formal matches.
/// Applied automatically by the `ResolveBest` implementations when
/// `options.distance == kJaccard`.
std::vector<CandidatePath> TieBreakByHierarchyDistance(
    const ContextEnvironment& env, const ContextState& query,
    std::vector<CandidatePath> candidates);

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
  /// context resolution step for one query state. Empty result means no
  /// stored state covers the query (the query then runs as a
  /// non-contextual query, paper §4.2).
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
/// (same candidate order, same canonical env-order distances, same
/// tie-breaking), used by the serving path. Unlike the pointer
/// resolver it materializes full `CandidatePath`s (state + copied
/// entries) only for the *winning* candidates of `ResolveBest`;
/// `SearchCS` still materializes everything, for diagnostics and the
/// differential tests.
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
