#include "preference/flat_profile_tree.h"

#include <algorithm>
#include <bit>
#include <utility>

namespace ctxpref {

namespace {

/// Nodes at or below this cell count are scanned linearly; larger ones
/// binary-search each ancestor key. Crossover is early because the
/// linear scan must consult level_of per cell while a probe compares
/// raw keys.
constexpr uint32_t kLinearScanMax = 8;

}  // namespace

/// One matched cell during a descent: its child/insertion index (the
/// recursion target and the sort key restoring insertion order), the
/// matched key, and that key's distance step.
struct FlatProfileTree::Scratch {
  struct Match {
    uint32_t child;
    uint32_t key;
    double step;
  };
  /// Cover tables, indexed by cover_off_[level] + hierarchy level:
  /// anc_key = key of the ancestor of the query component (kNoKey where
  /// none), step = its distance contribution.
  std::vector<uint32_t> anc_key;
  std::vector<double> step;
  /// Match lists, one segment per tree level (same offsets): a node
  /// can match at most one cell per hierarchy level.
  std::vector<Match> matches;
  /// Root-to-leaf value keys / per-parameter steps of the descent.
  std::vector<uint32_t> path;
  std::vector<double> step_by_param;
};

FlatProfileTree::Scratch& FlatProfileTree::TlsScratch() {
  thread_local Scratch scratch;
  return scratch;
}

void FlatProfileTree::InitLevels() {
  // Scratch-slot offsets: level l owns one cover/match slot per
  // hierarchy level of its parameter.
  const size_t n = env_->size();
  cover_off_.resize(n + 1);
  cover_off_[0] = 0;
  levels_.resize(n);
  for (size_t l = 0; l < n; ++l) {
    const Hierarchy& h = env_->parameter(order_.param_at_level(l)).hierarchy();
    cover_off_[l + 1] = cover_off_[l] + static_cast<uint32_t>(h.num_levels());
    levels_[l].level_of = h.level_of_keys();
  }
  node_count_ = 1;  // The root.
}

namespace {

/// Open-addressing map from a (node, key) cell to its discovery index
/// within one trie level; reset between levels. Capacity is a power of
/// two at least twice the number of states, so probes stay short and
/// no insert ever fails.
class CellTable {
 public:
  static constexpr uint32_t kEmpty = std::numeric_limits<uint32_t>::max();

  void Reset(size_t num_states) {
    size_t capacity = 16;
    while (capacity < 2 * num_states) capacity *= 2;
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
    slots_.assign(capacity, Slot{0, kEmpty});
  }

  /// The cell's index; `fresh` (the next index) when it is new.
  uint32_t FindOrInsert(uint32_t node, uint32_t key, uint32_t fresh) {
    const uint64_t cell = (static_cast<uint64_t>(node) << 32) | key;
    const size_t mask = slots_.size() - 1;
    for (size_t i = (cell * 0x9E3779B97F4A7C15ull) >> shift_;;
         i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (slot.index == kEmpty) {
        slot = Slot{cell, fresh};
        return fresh;
      }
      if (slot.cell == cell) return slot.index;
    }
  }

 private:
  struct Slot {
    uint64_t cell;
    uint32_t index;
  };
  std::vector<Slot> slots_;
  unsigned shift_ = 60;
};

}  // namespace

FlatProfileTree FlatProfileTree::Build(const Profile& profile) {
  return BuildOver(profile.env_ptr(), profile.preferences(), nullptr);
}

FlatProfileTree FlatProfileTree::Build(const ProfileTree& tree) {
  return BuildOver(tree.env_ptr(), tree.preferences(), &tree.ordering());
}

FlatProfileTree FlatProfileTree::BuildOver(
    EnvironmentPtr env, std::vector<ContextualPreference> preferences,
    const Ordering* order) {
  FlatProfileTree flat;
  flat.env_ = std::move(env);
  flat.prefs_ = std::move(preferences);
  const std::vector<ContextualPreference>& prefs = flat.prefs_;
  const size_t n = flat.env_->size();

  // Every preference's states, enumerated once — the pointer tree's
  // insertion order — and, without an ordering, ordered greedily over
  // the same key rows.
  const std::vector<uint32_t> keys = StateKeyRows(*flat.env_, prefs);
  std::vector<uint32_t> owner;  // State -> index of its preference.
  for (size_t i = 0; i < prefs.size(); ++i) {
    owner.resize(owner.size() + prefs[i].descriptor().NumStates(),
                 static_cast<uint32_t>(i));
  }
  const size_t num_states = owner.size();
  flat.order_ = order != nullptr
                    ? *order
                    : GreedyOrdering(ActiveDomainSizes(*flat.env_, keys));
  flat.InitLevels();

  // Level by level: each state sits at one node; its key there names a
  // cell, numbered in order of first discovery, which is the order the
  // pointer tree inserts cells. A node's cells keep that order among
  // themselves, and the next level's nodes are numbered by parent,
  // then by insertion — the pointer tree's BFS numbering.
  std::vector<uint32_t> node_of(num_states, 0);
  std::vector<uint32_t> cell_of(num_states);
  std::vector<uint32_t> cell_node;  // Discovery index -> its node.
  std::vector<uint32_t> cell_key;   // Discovery index -> its key.
  std::vector<uint32_t> fill;       // Per node: cells placed so far.
  std::vector<uint32_t> position;   // Discovery index -> level position.
  std::vector<std::pair<uint32_t, uint32_t>> segment;  // (key, child)
  CellTable table;
  size_t num_nodes = 1;
  for (size_t l = 0; l < n; ++l) {
    const size_t p = flat.order_.param_at_level(l);
    table.Reset(num_states);
    cell_node.clear();
    cell_key.clear();
    for (size_t e = 0; e < num_states; ++e) {
      const uint32_t key = keys[e * n + p];
      const auto fresh = static_cast<uint32_t>(cell_node.size());
      cell_of[e] = table.FindOrInsert(node_of[e], key, fresh);
      if (cell_of[e] == fresh) {
        cell_node.push_back(node_of[e]);
        cell_key.push_back(key);
      }
    }
    const size_t num_cells = cell_node.size();
    Level& level = flat.levels_[l];
    level.cell_begin.assign(num_nodes + 1, 0);
    for (const uint32_t node : cell_node) ++level.cell_begin[node + 1];
    for (size_t v = 0; v < num_nodes; ++v) {
      level.cell_begin[v + 1] += level.cell_begin[v];
    }
    // A cell's insertion position within the level is its child's
    // node number at the next level.
    fill.assign(num_nodes, 0);
    position.resize(num_cells);
    level.keys.resize(num_cells);
    level.child.resize(num_cells);
    for (size_t c = 0; c < num_cells; ++c) {
      const uint32_t node = cell_node[c];
      position[c] = level.cell_begin[node] + fill[node]++;
      level.keys[position[c]] = cell_key[c];
      level.child[position[c]] = position[c];
    }
    for (size_t v = 0; v < num_nodes; ++v) {
      const uint32_t begin = level.cell_begin[v];
      const uint32_t end = level.cell_begin[v + 1];
      if (end - begin < 2) continue;
      // Keys are distinct within a node: sorting (key, child) pairs by
      // key is what the pointer flattening's segment sort does.
      segment.clear();
      for (uint32_t c = begin; c < end; ++c) {
        segment.emplace_back(level.keys[c], level.child[c]);
      }
      std::sort(segment.begin(), segment.end());
      for (uint32_t c = begin; c < end; ++c) {
        level.keys[c] = segment[c - begin].first;
        level.child[c] = segment[c - begin].second;
      }
    }
    for (size_t e = 0; e < num_states; ++e) node_of[e] = position[cell_of[e]];
    flat.cell_count_ += num_cells;
    flat.node_count_ += num_cells;
    num_nodes = num_cells;
  }

  // `node_of` is now each state's leaf. Bucket the states by leaf,
  // keeping insertion order within a leaf (a stable counting sort).
  const size_t num_leaves = num_nodes;
  std::vector<uint32_t> leaf_start(num_leaves + 1, 0);
  for (size_t e = 0; e < num_states; ++e) ++leaf_start[node_of[e] + 1];
  for (size_t v = 0; v < num_leaves; ++v) leaf_start[v + 1] += leaf_start[v];
  std::vector<uint32_t> by_leaf(num_states);
  fill.assign(num_leaves, 0);
  for (size_t e = 0; e < num_states; ++e) {
    const uint32_t leaf = node_of[e];
    by_leaf[leaf_start[leaf] + fill[leaf]++] = static_cast<uint32_t>(e);
  }

  // Leaf entries as `ProfileTree::Insert` merges them: an equal clause
  // already at the leaf is a duplicate, held at the same score (the
  // preferences hold no Def. 6 conflict), and is skipped.
  std::vector<uint32_t>& entries = flat.entries_;
  flat.leaf_begin_.reserve(num_leaves + 1);
  entries.reserve(num_states);
  for (size_t v = 0; v < num_leaves; ++v) {
    const auto leaf_begin = static_cast<uint32_t>(entries.size());
    flat.leaf_begin_.push_back(leaf_begin);
    for (uint32_t k = leaf_start[v]; k < leaf_start[v + 1]; ++k) {
      const uint32_t pref = owner[by_leaf[k]];
      const AttributeClause& clause = prefs[pref].clause();
      if (std::none_of(entries.begin() + leaf_begin, entries.end(),
                       [&](uint32_t held) {
                         return prefs[held].clause() == clause;
                       })) {
        entries.push_back(pref);
      }
    }
  }
  flat.leaf_begin_.push_back(static_cast<uint32_t>(entries.size()));
  return flat;
}

void FlatProfileTree::Descend(size_t level, uint32_t node,
                              AccessCounter* counter, Scratch& scratch,
                              std::vector<FlatCandidate>& out,
                              std::vector<uint32_t>& path_keys) const {
  if (level == num_levels()) {
    // Canonical distance: per-parameter steps summed in environment
    // order, exactly like `StateDistance` — never in tree-level order,
    // whose FP rounding can drift from the oracle's (DESIGN.md).
    double distance = 0.0;
    for (const double step : scratch.step_by_param) distance += step;
    out.push_back(FlatCandidate{node, distance});
    path_keys.insert(path_keys.end(), scratch.path.begin(),
                     scratch.path.end());
    return;
  }
  const Level& lvl = levels_[level];
  const size_t p = order_.param_at_level(level);
  const uint32_t off = cover_off_[level];
  const uint32_t num_anc = cover_off_[level + 1] - off;
  const uint32_t* anc_key = scratch.anc_key.data() + off;
  const double* step = scratch.step.data() + off;
  Scratch::Match* matches = scratch.matches.data() + off;
  const uint32_t begin = lvl.cell_begin[node];
  const uint32_t end = lvl.cell_begin[node + 1];
  uint32_t num_matches = 0;
  if (end - begin <= kLinearScanMax) {
    const LevelIndex* level_of = lvl.level_of;
    for (uint32_t c = begin; c < end; ++c) {
      if (counter != nullptr) counter->AddCell();
      const uint32_t key = lvl.keys[c];
      const LevelIndex hl = level_of[key];
      if (anc_key[hl] != key) continue;
      matches[num_matches++] =
          Scratch::Match{lvl.child[c], key, step[hl]};
    }
  } else {
    // One binary search per covering ancestor (≤ hierarchy depth) —
    // O(L log C) against the pointer tree's O(C) scan.
    const uint32_t* keys = lvl.keys.data();
    for (uint32_t hl = 0; hl < num_anc; ++hl) {
      const uint32_t target = anc_key[hl];
      if (target == kNoKey) continue;
      uint32_t lo = begin;
      uint32_t hi = end;
      while (lo < hi) {
        if (counter != nullptr) counter->AddCell();
        const uint32_t mid = lo + (hi - lo) / 2;
        if (keys[mid] < target) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      if (lo < end && keys[lo] == target) {
        matches[num_matches++] =
            Scratch::Match{lvl.child[lo], target, step[hl]};
      }
    }
  }
  // Insertion order = child-index order; restoring it keeps candidate
  // emission bit-identical to the pointer DFS. The list is tiny (≤
  // hierarchy depth) so an insertion sort beats std::sort's dispatch.
  for (uint32_t i = 1; i < num_matches; ++i) {
    const Scratch::Match m = matches[i];
    uint32_t j = i;
    for (; j > 0 && matches[j - 1].child > m.child; --j) {
      matches[j] = matches[j - 1];
    }
    matches[j] = m;
  }
  for (uint32_t i = 0; i < num_matches; ++i) {
    const Scratch::Match m = matches[i];
    scratch.path[level] = m.key;
    scratch.step_by_param[p] = m.step;
    Descend(level + 1, m.child, counter, scratch, out, path_keys);
  }
}

void FlatProfileTree::SearchCS(const ContextState& query, DistanceKind kind,
                               bool exact_only, AccessCounter* counter,
                               std::vector<FlatCandidate>& out,
                               std::vector<uint32_t>& path_keys) const {
  out.clear();
  path_keys.clear();
  const size_t n = num_levels();
  if (n == 0) {
    if (PathCount() > 0) {
      out.push_back(FlatCandidate{0, 0.0});
    }
    return;
  }
  // Per level: the keyed ancestor chain of the query component and
  // its per-level distance steps, computed once into the thread-local
  // scratch — the descent itself touches only integer keys.
  Scratch& scratch = TlsScratch();
  scratch.anc_key.assign(cover_off_[n], kNoKey);
  scratch.step.resize(cover_off_[n]);
  scratch.matches.resize(cover_off_[n]);
  scratch.path.resize(n);
  scratch.step_by_param.assign(env_->size(), 0.0);
  for (size_t l = 0; l < n; ++l) {
    const size_t p = order_.param_at_level(l);
    const Hierarchy& h = env_->parameter(p).hierarchy();
    const ValueRef qv = query.value(p);
    uint32_t* anc_key = scratch.anc_key.data() + cover_off_[l];
    double* step = scratch.step.data() + cover_off_[l];
    if (exact_only) {
      anc_key[qv.level] = h.Key(qv);
      step[qv.level] = 0.0;  // Slot may hold a stale non-exact step.
      continue;
    }
    for (LevelIndex hl = qv.level; hl < h.num_levels(); ++hl) {
      const ValueRef anc = h.Anc(qv, hl);
      anc_key[hl] = h.Key(anc);
      step[hl] = ComponentDistance(kind, h, anc, qv);
    }
  }
  Descend(0, 0, counter, scratch, out, path_keys);
}

uint32_t FlatProfileTree::ExactLookup(const ContextState& state,
                                      AccessCounter* counter) const {
  const size_t n = num_levels();
  if (n == 0) return PathCount() > 0 ? 0 : kNoLeaf;
  uint32_t node = 0;
  for (size_t l = 0; l < n; ++l) {
    const Level& lvl = levels_[l];
    const size_t p = order_.param_at_level(l);
    const uint32_t target = env_->parameter(p).hierarchy().Key(state.value(p));
    const uint32_t* keys = lvl.keys.data();
    uint32_t lo = lvl.cell_begin[node];
    const uint32_t end = lvl.cell_begin[node + 1];
    uint32_t hi = end;
    while (lo < hi) {
      if (counter != nullptr) counter->AddCell();
      const uint32_t mid = lo + (hi - lo) / 2;
      if (keys[mid] < target) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo >= end || keys[lo] != target) return kNoLeaf;
    node = lvl.child[lo];
  }
  return node;
}

ContextState FlatProfileTree::StateOf(const uint32_t* path) const {
  const size_t n = num_levels();
  std::vector<ValueRef> values(n);
  for (size_t l = 0; l < n; ++l) {
    const size_t p = order_.param_at_level(l);
    values[p] = env_->parameter(p).hierarchy().ValueAt(path[l]);
  }
  return ContextState(std::move(values));
}

double FlatProfileTree::HierarchyDistanceOf(const uint32_t* path,
                                            const ContextState& query) const {
  // Per-parameter level distances are small integers, so the FP sum is
  // exact in any order — no need to reorder into env order here.
  double distance = 0.0;
  for (size_t l = 0; l < num_levels(); ++l) {
    const size_t p = order_.param_at_level(l);
    const Hierarchy& h = env_->parameter(p).hierarchy();
    distance += ComponentDistance(DistanceKind::kHierarchy, h,
                                  h.ValueAt(path[l]), query.value(p));
  }
  return distance;
}

std::vector<ProfileTree::LeafEntry> FlatProfileTree::EntriesOf(
    uint32_t leaf) const {
  std::vector<ProfileTree::LeafEntry> out;
  out.reserve(leaf_begin_[leaf + 1] - leaf_begin_[leaf]);
  for (uint32_t k = leaf_begin_[leaf]; k < leaf_begin_[leaf + 1]; ++k) {
    const ContextualPreference& pref = prefs_[entries_[k]];
    out.push_back(ProfileTree::LeafEntry{pref.clause(), pref.score()});
  }
  return out;
}

size_t FlatProfileTree::MeasuredByteSize() const {
  size_t bytes = sizeof(*this);
  bytes += levels_.capacity() * sizeof(Level);
  for (const Level& level : levels_) {
    bytes += level.cell_begin.capacity() * sizeof(uint32_t);
    bytes += level.keys.capacity() * sizeof(uint32_t);
    bytes += level.child.capacity() * sizeof(uint32_t);
  }
  bytes += cover_off_.capacity() * sizeof(uint32_t);
  bytes += prefs_.capacity() * sizeof(ContextualPreference);
  bytes += leaf_begin_.capacity() * sizeof(uint32_t);
  bytes += entries_.capacity() * sizeof(uint32_t);
  return bytes;
}

}  // namespace ctxpref
