#ifndef CTXPREF_PREFERENCE_PROFILE_TREE_H_
#define CTXPREF_PREFERENCE_PROFILE_TREE_H_

#include <memory>
#include <vector>

#include "context/environment.h"
#include "context/state.h"
#include "preference/ordering.h"
#include "preference/preference.h"
#include "preference/profile.h"
#include "util/counters.h"
#include "util/status.h"

namespace ctxpref {

/// The profile tree (paper §3.3): a trie over context states. Level i
/// is keyed by the parameter `ordering.param_at_level(i)`; each
/// root-to-leaf path is one context state appearing in the profile, and
/// the leaf stores the attribute clauses and interest scores applicable
/// in that state. Conflicting preferences (Def. 6) are rejected during
/// insertion by a single root-to-leaf traversal, exactly as the paper
/// describes.
///
/// Cells within a node are kept in insertion order and searched
/// linearly — deliberately mirroring the paper's cost model, whose
/// per-node worst case is |edom(Ci)| cell inspections; all traversals
/// tick the optional `AccessCounter` per inspected cell so Fig. 7 can
/// be measured rather than estimated.
class ProfileTree {
 public:
  /// What a leaf holds per applicable preference: `(Ai θ a, score)`.
  /// Several preferences may put the same clause and score on one
  /// state; the leaf holds that entry once. Aligned to 16 bytes (96,
  /// not 88): resolution copies entries into every candidate, and the
  /// 88-byte entry measured ~6% slower perfbench cold_scan query p50
  /// on a 4-core x86-64 host.
  struct alignas(16) LeafEntry {
    AttributeClause clause;
    double score;
  };

  /// A tree node. Internal nodes hold `[key, pointer]` cells; leaf
  /// nodes hold the entries. Exposed (read-only) so the resolver in
  /// `resolution.h` can walk the structure.
  struct Node {
    struct Cell {
      ValueRef key;
      std::unique_ptr<Node> child;
    };
    std::vector<Cell> cells;        ///< Internal levels.
    std::vector<LeafEntry> entries; ///< Leaf level only.
  };

  /// Byte-cost model used by `ByteSize()` (paper Fig. 5 right): a cell
  /// is a key plus a pointer; a leaf entry is an attribute reference, a
  /// value and a score; serial storage (the baseline) spends
  /// `kSerialValueBytes` per state component plus one leaf entry per
  /// flat preference. See `sequential_store.h` for the serial side.
  static constexpr size_t kCellBytes = 16;        // 8 key + 8 pointer
  static constexpr size_t kLeafEntryBytes = 24;   // attr + value + score
  static constexpr size_t kSerialValueBytes = 8;

  /// An empty tree over `env` with the given parameter-to-level
  /// assignment (`order.size()` must equal `env->size()`).
  ProfileTree(EnvironmentPtr env, Ordering order);

  ProfileTree(ProfileTree&&) = default;
  ProfileTree& operator=(ProfileTree&&) = default;

  /// Indexes every preference of `profile` under `order`.
  /// `profile` must be conflict-free (it is, by construction).
  static StatusOr<ProfileTree> Build(const Profile& profile,
                                     const Ordering& order);

  /// Indexes `profile` under `GreedyOrdering(profile)`.
  static StatusOr<ProfileTree> Build(const Profile& profile);

  const ContextEnvironment& env() const { return *env_; }
  const EnvironmentPtr& env_ptr() const { return env_; }
  const Ordering& ordering() const { return order_; }
  const Node& root() const { return *root_; }
  /// The preferences inserted so far, in insertion order.
  const std::vector<ContextualPreference>& preferences() const {
    return prefs_;
  }

  /// Inserts every state of `pref`'s descriptor and records `pref`.
  /// Errors with Conflict (Def. 6) if any path already carries the same
  /// clause with a different score; the tree is left unchanged on
  /// conflict (the conflicting insertion is checked before any path is
  /// created).
  Status Insert(const ContextualPreference& pref);

  /// Exact-match lookup (paper §4.4 first case): a single root-to-leaf
  /// descent following the cell whose key equals the state's component
  /// at each level. Returns the leaf's entries or nullptr when the
  /// exact path does not exist. Ticks `counter` per inspected cell.
  const std::vector<LeafEntry>* ExactLookup(const ContextState& state,
                                            AccessCounter* counter = nullptr) const;

  /// ---- Size accounting (paper Fig. 5/6) ----

  /// Total `[key, pointer]` cells over all internal nodes.
  size_t CellCount() const { return cell_count_; }
  /// Internal + leaf nodes.
  size_t NodeCount() const { return node_count_; }
  /// Distinct root-to-leaf paths (= distinct context states stored).
  size_t PathCount() const { return path_count_; }
  /// Total leaf entries.
  size_t LeafEntryCount() const { return leaf_entry_count_; }
  /// Cells·kCellBytes + leaf entries·kLeafEntryBytes — the paper's
  /// *modeled* bytes (Fig. 5 right), deliberately not the process
  /// footprint. See `MeasuredByteSize()` for what the structure
  /// actually occupies; bench_fig5 reports both side by side.
  size_t ByteSize() const {
    return cell_count_ * kCellBytes + leaf_entry_count_ * kLeafEntryBytes;
  }
  /// Bytes actually resident: every node's struct, cell and entry
  /// buffer capacities, the heap payloads of clause strings and the
  /// recorded preference handles. This is what the modeled figure
  /// under-counts (node overhead, vector slack, string storage) —
  /// reported next to `ByteSize()` in bench_fig5.
  size_t MeasuredByteSize() const;

 private:
  /// Walks the path for `state`, creating nodes as needed when
  /// `create` is true; returns the leaf (or nullptr when not found and
  /// `create` is false).
  Node* Descend(const ContextState& state, bool create);

  /// Inserts a single (state, clause, score) path; an entry with the
  /// same clause already at the leaf is kept as it is. `Insert` checks
  /// first that such an entry holds the same score.
  void InsertState(const ContextState& state, const AttributeClause& clause,
                   double score);

  EnvironmentPtr env_;
  Ordering order_;
  std::unique_ptr<Node> root_;
  std::vector<ContextualPreference> prefs_;
  size_t cell_count_ = 0;
  size_t node_count_ = 1;  // root
  size_t path_count_ = 0;
  size_t leaf_entry_count_ = 0;
};

}  // namespace ctxpref

#endif  // CTXPREF_PREFERENCE_PROFILE_TREE_H_
