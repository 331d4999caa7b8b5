#ifndef CTXPREF_PREFERENCE_FLAT_PROFILE_TREE_H_
#define CTXPREF_PREFERENCE_FLAT_PROFILE_TREE_H_

#include <cstdint>
#include <limits>
#include <memory>
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
///  - Leaf entries: per leaf, the lowest-index preference of each
///    distinct clause, in ascending index order, as 4-byte indices
///    into the preference list (CSR). A score is read from the list
///    when an entry is read.
///  - Shape and list: everything above, plus the ordering and the
///    counts, depends only on the list of preference bodies
///    (descriptor, clause) in list order — not on the scores — and
///    lives in a `Shape` that arenas share through a
///    `shared_ptr<const Shape>`. Each arena holds its own preference
///    list (handles whose bodies the profile shares, so the arena
///    holds no clause of its own; on publish, the published profile's
///    own list).
///  - Sharing: `Build(profile, previous)` shares `previous`'s whole
///    shape when the profile's list holds `previous`'s bodies at the
///    same indices, compared by identity — rescores, which keep their
///    index (`Profile::UpdateScore`), a refused rescore, a no-op
///    publish. Any other edit runs the full build.
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

  /// As above, but the arena reads the profile's own preference list
  /// and keeps the profile alive instead of copying the list; the
  /// publish path builds this way. `previous`, when given, is an arena
  /// of an earlier version of the profile: when the profile's list
  /// holds its bodies (the same objects, not equal copies) at the same
  /// indices — what rescores leave — the result shares its shape, leaf
  /// entries included, and builds nothing. The result is the same
  /// either way.
  static FlatProfileTree Build(const std::shared_ptr<const Profile>& profile,
                               const FlatProfileTree* previous = nullptr);

  /// Indexes the preferences `tree` indexed, under its ordering.
  static FlatProfileTree Build(const ProfileTree& tree);

  const ContextEnvironment& env() const { return *env_; }
  const EnvironmentPtr& env_ptr() const { return env_; }
  const Ordering& ordering() const { return shape_->order; }
  /// Tree depth = number of context parameters.
  size_t num_levels() const { return shape_->levels.size(); }

  /// Whether this arena and `other` share one shape: one was built
  /// over the other, or both over a third.
  bool SharesShapeWith(const FlatProfileTree& other) const {
    return shape_ == other.shape_;
  }

  /// The shape's process-wide identity: every newly built shape takes
  /// the next value of one monotone counter (from 1), and an arena
  /// sharing a shape reports its id. Two arenas report one id iff they
  /// share a shape, across the life of the process: unlike the shape's
  /// address, an id is never reused after its shape is freed.
  uint64_t shape_id() const { return shape_->id; }

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

  /// A leaf's entry count, and the preference behind its `k`-th entry
  /// in `EntriesOf` order, read in place (no clause is copied).
  size_t EntryCount(uint32_t leaf) const {
    return shape_->leaf_begin[leaf + 1] - shape_->leaf_begin[leaf];
  }
  const ContextualPreference& EntryAt(uint32_t leaf, size_t k) const {
    return (*prefs_)[shape_->entries[shape_->leaf_begin[leaf] + k]];
  }

  /// ---- Size accounting (satellite to paper Fig. 5) ----

  /// Structural counts; match the pointer tree's by construction.
  size_t CellCount() const { return shape_->cell_count; }
  size_t NodeCount() const { return shape_->node_count; }
  size_t PathCount() const { return shape_->leaf_begin.size() - 1; }
  size_t LeafEntryCount() const { return shape_->entries.size(); }

  /// Bytes actually resident in the arena (vector capacities, counting
  /// the preference handles but not the bodies they share with the
  /// profile) — the "measured" column next to the paper's modeled
  /// `ProfileTree::ByteSize()` in bench_fig5. The shape is counted in
  /// full even when other arenas share it, so the figure is the bytes
  /// this arena would hold alone: an arena sharing a shape reports what
  /// a full build of its profile reports.
  size_t MeasuredByteSize() const;

 private:
  /// Only `BuildOver` makes an arena, so every arena has a shape.
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

  /// What depends only on the indexed bodies, in list order, and the
  /// ordering; shared by every arena built over it.
  struct Shape {
    uint64_t id = 0;  ///< See `shape_id()`.
    Ordering order;
    /// Built under the greedy ordering of its states, which the bodies
    /// alone fix, so `Build(profile, previous)` may share it; a shape
    /// built under a given tree's ordering is never shared.
    bool greedy = false;
    std::vector<Level> levels;  ///< Indexed by tree level.
    /// Per-level offsets into the per-query cover/match scratch arrays:
    /// level l owns slots [cover_off[l], cover_off[l+1]), one per
    /// hierarchy level of its parameter.
    std::vector<uint32_t> cover_off;
    /// CSR into `entries`; size leaves+1.
    std::vector<uint32_t> leaf_begin;
    std::vector<uint32_t> entries;  ///< Per leaf entry: index into the list.
    size_t cell_count = 0;
    size_t node_count = 0;
  };

  using PreferenceList =
      std::shared_ptr<const std::vector<ContextualPreference>>;

  /// The one build: indexes `preferences` under `*order`, or under the
  /// greedy ordering of their active domains when `order` is null,
  /// sharing `previous`'s shape when it may (see `Build`). The
  /// preferences must hold no Def. 6 conflict.
  static FlatProfileTree BuildOver(EnvironmentPtr env,
                                   PreferenceList preferences,
                                   const Ordering* order,
                                   const FlatProfileTree* previous);

  /// Computes `shape` from `prefs_`, whose states, sorted by key path,
  /// fill the cells and the leaf entries.
  void BuildShape(const Ordering* order, Shape& shape);

  /// Reusable per-query buffers (cover tables, descent path, match
  /// lists); fetched thread-locally so steady-state searches allocate
  /// nothing. Defined in the .cc.
  struct Scratch;
  static Scratch& TlsScratch();

  void Descend(size_t level, uint32_t node, AccessCounter* counter,
               Scratch& scratch, std::vector<FlatCandidate>& out,
               std::vector<uint32_t>& path_keys) const;

  EnvironmentPtr env_;
  std::shared_ptr<const Shape> shape_;
  /// The indexed preferences; the shape's leaf entries index it. Its
  /// own copy, or the list of the profile it was built from.
  PreferenceList prefs_;
};

}  // namespace ctxpref

#endif  // CTXPREF_PREFERENCE_FLAT_PROFILE_TREE_H_
