#ifndef CTXPREF_PREFERENCE_FLAT_PROFILE_TREE_H_
#define CTXPREF_PREFERENCE_FLAT_PROFILE_TREE_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "context/distance.h"
#include "context/environment.h"
#include "context/state.h"
#include "preference/ordering.h"
#include "preference/profile.h"
#include "preference/profile_tree.h"
#include "util/counters.h"

namespace ctxpref {

/// An immutable, arena-flattened profile tree (paper §3.3), built once
/// per `ProfileSnapshot` publish straight from the `Profile`
/// (docs/serving.md); it is the only index serving reads. The pointer
/// `ProfileTree` stays as the paper's structure for the figure benches
/// and as the differential oracle; `Build(const ProfileTree&)` indexes
/// the preferences that tree indexed, under its ordering, into the same
/// paths, cells and entries.
///
/// Layout (all storage is a handful of contiguous vectors):
///  - Keys: a cell's key is its value's extended-domain key, which the
///    parameter's `Hierarchy` owns (`Hierarchy::Key`, `ValueAt`,
///    `level_of_keys`), so the arena holds no key tables. Keys are
///    single `uint32_t`s and "is this cell an ancestor of the query
///    component?" is one `level_of` load plus one integer compare (the
///    per-query ancestor chain is precomputed per level).
///  - Numbering by key path: the build sorts every stored state's
///    level-ordered key path once. Level ℓ's cells are the distinct
///    path prefixes of length ℓ+1 in that sorted order, so they are
///    level-contiguous, grouped per node by a CSR offset array and
///    *key-sorted within each node* — a descent binary-searches the
///    handful of ancestor keys instead of scanning every cell — and
///    cell `c` of level ℓ *is* node `c` of level ℓ+1 (and, at the last
///    level, leaf `c`): no child array. Candidates come out in key-path
///    order; Search_CS yields a set, and the resolvers return their
///    winners sorted by state (`SortByState`).
///  - Leaves: leaf entries live in one flat array behind a CSR offset
///    array, in insertion order within a leaf. An entry is the 4-byte
///    index of the preference it came from in the arena's copy of the
///    preference list; those are handles whose bodies (descriptor,
///    clause) the profile shares, so the arena holds no clause of its
///    own.
///
/// Instances are immutable after `Build` and shared across reader
/// threads without locks (they hold no mutable state; search scratch
/// is caller-owned or thread-local). See docs/static_analysis.md.
class FlatProfileTree {
 public:
  /// Sentinel for "no ancestor at this level covers the query".
  static constexpr uint32_t kNoKey = std::numeric_limits<uint32_t>::max();
  static constexpr uint32_t kNoLeaf = std::numeric_limits<uint32_t>::max();

  /// One covering candidate found by `SearchCS`: the leaf it ends in
  /// and its distance from the query summed in *environment* order
  /// (the canonical accumulation order of `StateDistance`; see
  /// DESIGN.md on FP accumulation-order drift). The root-to-leaf key
  /// path lives in the caller's flat `path_keys` buffer at
  /// `[index * num_levels, (index + 1) * num_levels)`.
  struct FlatCandidate {
    uint32_t leaf = 0;
    double distance = 0.0;
  };

  /// Indexes `profile` under `GreedyOrdering(profile)` with no pointer
  /// tree in between. The result holds what `ProfileTree::Build(profile)`
  /// holds — ordering, cell, node, path and entry counts, each path's
  /// entries in insertion order — numbered by key path. It cannot fail:
  /// the profile rejected every Def. 6 conflict on insert.
  static FlatProfileTree Build(const Profile& profile);

  /// Indexes the preferences `tree` indexed, under its ordering.
  static FlatProfileTree Build(const ProfileTree& tree);

  const ContextEnvironment& env() const { return *env_; }
  const EnvironmentPtr& env_ptr() const { return env_; }
  const Ordering& ordering() const { return order_; }
  /// Tree depth = number of context parameters.
  size_t num_levels() const { return levels_.size(); }

  /// Search_CS (paper Algorithm 1) over integer keys: descends from the
  /// root following every cell whose key is the query component or one
  /// of its ancestors, appending covering candidates to `out` in
  /// key-path order and their root-to-leaf key paths to `path_keys`
  /// (both are cleared first).
  /// `exact_only` restricts to the exact path (paper §4.4 case 1).
  /// Ticks `counter` per key comparison (linear cells inspected on
  /// small nodes, binary-search probes on large ones — the flat cost
  /// model, deliberately below the pointer tree's |edom| scans).
  void SearchCS(const ContextState& query, DistanceKind kind, bool exact_only,
                AccessCounter* counter, std::vector<FlatCandidate>& out,
                std::vector<uint32_t>& path_keys) const;

  /// Exact-match lookup (paper §4.4 first case): returns the leaf id of
  /// `state`'s path, or `kNoLeaf` when absent.
  uint32_t ExactLookup(const ContextState& state,
                       AccessCounter* counter = nullptr) const;

  /// The stored context state a root-to-leaf key path denotes, in
  /// environment component order.
  ContextState StateOf(const uint32_t* path) const;

  /// Hierarchy distance (Def. 14/15) between `StateOf(path)` and
  /// `query`, summed in environment order — the Jaccard tie-break key,
  /// computable without materializing the state.
  double HierarchyDistanceOf(const uint32_t* path,
                             const ContextState& query) const;

  /// Copies a leaf's entries (leaf ids are dense in [0, PathCount()))
  /// out of their preferences, in the pointer tree's entry form.
  std::vector<ProfileTree::LeafEntry> EntriesOf(uint32_t leaf) const;

  /// ---- Size accounting (satellite to paper Fig. 5) ----

  /// Structural counts; match the pointer tree's by construction.
  size_t CellCount() const { return cell_count_; }
  size_t NodeCount() const { return node_count_; }
  size_t PathCount() const { return leaf_begin_.empty() ? 0 : leaf_begin_.size() - 1; }
  size_t LeafEntryCount() const { return entries_.size(); }

  /// Bytes actually resident in the arena (vector capacities, counting
  /// the preference handles but not the bodies they share with the
  /// profile) — the "measured" column next to the paper's modeled
  /// `ProfileTree::ByteSize()` in bench_fig5.
  size_t MeasuredByteSize() const;

 private:
  /// Only `BuildOver` makes an arena, so every arena has its levels.
  FlatProfileTree() = default;

  /// One trie level: cells of all the level's nodes, level-contiguous
  /// and key-sorted within each node's `cell_begin` (CSR) segment.
  /// Cell `c` is node `c` of the next level.
  struct Level {
    std::vector<uint32_t> cell_begin;  ///< size = node count + 1
    std::vector<uint32_t> keys;        ///< value keys, sorted per node
    /// The level's `Hierarchy::level_of_keys()`, cached so a descent
    /// reads it in one load; `env_` keeps the hierarchy alive.
    const LevelIndex* level_of = nullptr;
  };

  /// The one build: indexes `preferences` under `*order`, or under the
  /// greedy ordering of their active domains when `order` is null. The
  /// preferences must hold no Def. 6 conflict.
  static FlatProfileTree BuildOver(
      EnvironmentPtr env, std::vector<ContextualPreference> preferences,
      const Ordering* order);

  /// `levels_` and the per-level scratch offsets under `order_`.
  void InitLevels();

  /// Reusable per-query buffers (cover tables, descent path, match
  /// lists); fetched thread-locally so steady-state searches allocate
  /// nothing. Defined in the .cc.
  struct Scratch;
  static Scratch& TlsScratch();

  void Descend(size_t level, uint32_t node, AccessCounter* counter,
               Scratch& scratch, std::vector<FlatCandidate>& out,
               std::vector<uint32_t>& path_keys) const;

  EnvironmentPtr env_;
  Ordering order_;
  std::vector<Level> levels_;        ///< Indexed by tree level.
  /// Per-level offsets into the per-query cover/match scratch arrays:
  /// level l owns slots [cover_off_[l], cover_off_[l+1]), one per
  /// hierarchy level of its parameter.
  std::vector<uint32_t> cover_off_;
  /// The indexed preferences; leaf entries are indices into it.
  std::vector<ContextualPreference> prefs_;
  std::vector<uint32_t> leaf_begin_; ///< CSR into entries_; size leaves+1.
  std::vector<uint32_t> entries_;    ///< Per leaf entry: index into prefs_.
  size_t cell_count_ = 0;
  size_t node_count_ = 0;
};

}  // namespace ctxpref

#endif  // CTXPREF_PREFERENCE_FLAT_PROFILE_TREE_H_
