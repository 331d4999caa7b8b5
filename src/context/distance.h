#ifndef CTXPREF_CONTEXT_DISTANCE_H_
#define CTXPREF_CONTEXT_DISTANCE_H_

#include <cstdint>
#include <limits>

#include "context/environment.h"
#include "context/state.h"

namespace ctxpref {

/// Which state-similarity metric context resolution uses to pick among
/// several covering candidate states (paper §4.3).
enum class DistanceKind {
  kHierarchy,  ///< Sum of level distances (Defs. 13-15).
  kJaccard,    ///< Sum of Jaccard value distances (Defs. 16-17).
};

const char* DistanceKindToString(DistanceKind kind);

/// Sentinel for "no path between levels" (paper Def. 14 case 2; arises
/// only when states from different environments are compared, which the
/// API prevents — kept for defensive completeness).
inline constexpr double kInfiniteDistance =
    std::numeric_limits<double>::infinity();

/// The distance step of one component: a stored (candidate) value
/// against the query's value of the same parameter, `h` being that
/// parameter's hierarchy — Def. 14's level distance |L(stored) −
/// L(query)| for `kHierarchy`, Def. 16's Jaccard distance for
/// `kJaccard`. The one implementation of the step: the state distances
/// below sum it over parameters in environment order, and both
/// profile-tree descents (`TreeResolver`, `FlatProfileTree::SearchCS`)
/// take their per-level steps from it, so their sums are bit-identical.
double ComponentDistance(DistanceKind kind, const Hierarchy& h,
                         ValueRef stored, ValueRef query);

/// Paper Def. 15: distH(s1, s2) = Σ |distH(L1i, L2i)| — the sum over
/// parameters of the number of hierarchy edges between the levels the
/// two components live on. Smaller = the candidate state is expressed
/// at levels nearer the query's; 0 iff the states share all levels.
double HierarchyStateDistance(const ContextEnvironment& env,
                              const ContextState& s1, const ContextState& s2);

/// Paper Def. 17: distJ(s1, s2) = Σ distJ(c1i, c2i), each component
/// distance being 1 − |desc∩| / |desc∪| over detailed-level descendant
/// sets (Def. 16). Favors candidates with small detailed extents
/// ("smallest state in terms of cardinality", §4.3).
double JaccardStateDistance(const ContextEnvironment& env,
                            const ContextState& s1, const ContextState& s2);

/// Σ ComponentDistance(kind, ...) over parameters in environment
/// order, `s1` taking the stored side and `s2` the query's.
double StateDistance(DistanceKind kind, const ContextEnvironment& env,
                     const ContextState& s1, const ContextState& s2);

}  // namespace ctxpref

#endif  // CTXPREF_CONTEXT_DISTANCE_H_
