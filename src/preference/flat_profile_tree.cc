#include "preference/flat_profile_tree.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <numeric>
#include <utility>

namespace ctxpref {

namespace {

/// Nodes at or below this cell count are scanned linearly; larger ones
/// binary-search each ancestor key. Crossover is early because the
/// linear scan must consult level_of per cell while a probe compares
/// raw keys.
constexpr uint32_t kLinearScanMax = 8;

/// The last `Shape::id` handed out.
std::atomic<uint64_t> last_shape_id{0};

}  // namespace

/// Per-query buffers of a descent.
struct FlatProfileTree::Scratch {
  /// One matched cell: its index (= the next level's node) and its
  /// distance step.
  struct Match {
    uint32_t cell;
    double step;
  };
  /// Cover tables, indexed by Shape::cover_off[level] + hierarchy level:
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

FlatProfileTree FlatProfileTree::Build(const Profile& profile) {
  return BuildOver(profile.env_ptr(),
                   std::make_shared<const std::vector<ContextualPreference>>(
                       profile.preferences()),
                   nullptr, nullptr);
}

FlatProfileTree FlatProfileTree::Build(
    const std::shared_ptr<const Profile>& profile,
    const FlatProfileTree* previous) {
  // Aliases the profile's own list: the arena keeps the profile alive.
  return BuildOver(profile->env_ptr(),
                   PreferenceList(profile, &profile->preferences()), nullptr,
                   previous);
}

FlatProfileTree FlatProfileTree::Build(const ProfileTree& tree) {
  return BuildOver(tree.env_ptr(),
                   std::make_shared<const std::vector<ContextualPreference>>(
                       tree.preferences()),
                   &tree.ordering(), nullptr);
}

FlatProfileTree FlatProfileTree::BuildOver(EnvironmentPtr env,
                                           PreferenceList preferences,
                                           const Ordering* order,
                                           const FlatProfileTree* previous) {
  FlatProfileTree flat;
  flat.env_ = std::move(env);
  flat.prefs_ = std::move(preferences);
  // Only a greedy shape is fixed by the bodies alone. Comparing body
  // addresses is sound because `previous`'s handles keep its bodies
  // alive, so no other body can have reused one of their addresses.
  if (previous != nullptr && previous->shape_->greedy &&
      previous->env_ == flat.env_ &&
      std::equal(previous->prefs_->begin(), previous->prefs_->end(),
                 flat.prefs_->begin(), flat.prefs_->end(),
                 [](const ContextualPreference& a,
                    const ContextualPreference& b) {
                   return a.body_id() == b.body_id();
                 })) {
    flat.shape_ = previous->shape_;
    return flat;
  }
  auto shape = std::make_shared<Shape>();
  shape->id = last_shape_id.fetch_add(1, std::memory_order_relaxed) + 1;
  flat.BuildShape(order, *shape);
  flat.shape_ = std::move(shape);
  return flat;
}

void FlatProfileTree::BuildShape(const Ordering* order, Shape& shape) {
  const std::vector<ContextualPreference>& prefs = *prefs_;
  const ContextEnvironment& env = *env_;
  const size_t n = env.size();

  // Every preference's states, enumerated once in insertion order and,
  // without an ordering, ordered greedily over the same key rows.
  const std::vector<uint32_t> keys = StateKeyRows(env, prefs);
  std::vector<uint32_t> owner;  // State -> index of its preference.
  for (size_t i = 0; i < prefs.size(); ++i) {
    owner.resize(owner.size() + prefs[i].descriptor().NumStates(),
                 static_cast<uint32_t>(i));
  }
  const size_t num_states = owner.size();
  shape.greedy = order == nullptr;
  shape.order = order != nullptr
                    ? *order
                    : GreedyOrdering(ActiveDomainSizes(env, keys));
  const Ordering& ord = shape.order;
  auto key_at = [&](uint32_t state, size_t level) {
    return keys[state * n + ord.param_at_level(level)];
  };

  // Scratch-slot offsets: level l owns one cover/match slot per
  // hierarchy level of its parameter.
  shape.cover_off.resize(n + 1);
  shape.cover_off[0] = 0;
  shape.levels.resize(n);
  for (size_t l = 0; l < n; ++l) {
    const Hierarchy& h = env.parameter(ord.param_at_level(l)).hierarchy();
    shape.cover_off[l + 1] =
        shape.cover_off[l] + static_cast<uint32_t>(h.num_levels());
    shape.levels[l].level_of = h.level_of_keys();
  }

  // Sort the states by key path (level 0's key first): a stable
  // counting sort per level, least-significant level first, so states
  // on one path keep insertion order.
  std::vector<uint32_t> sorted(num_states);
  std::iota(sorted.begin(), sorted.end(), 0);
  std::vector<uint32_t> next(num_states);
  std::vector<uint32_t> start;
  for (size_t l = n; l-- > 0;) {
    const size_t p = ord.param_at_level(l);
    const uint32_t* column = keys.data() + p;
    const size_t domain = env.parameter(p).hierarchy().extended_domain_size();
    start.assign(domain + 1, 0);
    for (const uint32_t e : sorted) ++start[column[e * n] + 1];
    for (size_t k = 1; k <= domain; ++k) start[k] += start[k - 1];
    for (const uint32_t e : sorted) next[start[column[e * n]]++] = e;
    sorted.swap(next);
  }

  // Level l's cells are the distinct path prefixes of length l + 1, in
  // sorted order, so cell c of level l is node c of level l + 1 (leaf c
  // at the last level). A sorted state opens a cell at every level from
  // the first one where its path departs from its predecessor's (n when
  // the paths are equal), and a node at every level below that.
  std::vector<uint32_t> depart(num_states);
  std::vector<uint32_t> cells(n, 0);  // Per level, counted to reserve.
  for (size_t i = 0; i < num_states; ++i) {
    size_t l = 0;
    while (i > 0 && l < n && key_at(sorted[i], l) == key_at(sorted[i - 1], l)) {
      ++l;
    }
    depart[i] = static_cast<uint32_t>(l);
    for (; l < n; ++l) ++cells[l];
  }
  for (size_t l = 0; l < n; ++l) {
    Level& level = shape.levels[l];
    level.keys.reserve(cells[l]);
    level.cell_begin.reserve((l == 0 ? 1 : cells[l - 1]) + 1);
    if (l == 0) level.cell_begin.push_back(0);  // The root.
    shape.cell_count += cells[l];
  }
  shape.node_count = 1 + shape.cell_count;
  shape.leaf_begin.reserve(cells[n - 1] + 1);

  // Leaf entries as `ProfileTree::Insert` merges them: a leaf's states
  // come in sorted order with owners ascending (the sort is stable),
  // and an equal clause already at the leaf is a duplicate, held at the
  // same score (the preferences hold no Def. 6 conflict), and is
  // skipped.
  std::vector<uint32_t>& entries = shape.entries;
  entries.reserve(num_states);
  ptrdiff_t held_begin = 0;  // The current leaf's first entry.
  for (size_t i = 0; i < num_states; ++i) {
    for (size_t l = depart[i]; l < n; ++l) {
      Level& level = shape.levels[l];
      if (l > depart[i]) {
        level.cell_begin.push_back(static_cast<uint32_t>(level.keys.size()));
      }
      level.keys.push_back(key_at(sorted[i], l));
    }
    if (depart[i] < n) {
      held_begin = static_cast<ptrdiff_t>(entries.size());
      shape.leaf_begin.push_back(static_cast<uint32_t>(held_begin));
    }
    const uint32_t o = owner[sorted[i]];
    const AttributeClause& clause = prefs[o].clause();
    if (std::none_of(entries.begin() + held_begin, entries.end(),
                     [&](uint32_t held) {
                       return prefs[held].clause() == clause;
                     })) {
      entries.push_back(o);
    }
  }
  for (Level& level : shape.levels) {
    level.cell_begin.push_back(static_cast<uint32_t>(level.keys.size()));
  }
  shape.leaf_begin.push_back(static_cast<uint32_t>(entries.size()));
}

void FlatProfileTree::Descend(size_t level, uint32_t node,
                              AccessCounter* counter, Scratch& scratch,
                              std::vector<FlatCandidate>& out,
                              std::vector<uint32_t>& path_keys) const {
  const Shape& shape = *shape_;
  if (level == shape.levels.size()) {
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
  const Level& lvl = shape.levels[level];
  const size_t p = shape.order.param_at_level(level);
  const uint32_t off = shape.cover_off[level];
  const uint32_t num_anc = shape.cover_off[level + 1] - off;
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
      matches[num_matches++] = Scratch::Match{c, step[hl]};
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
        matches[num_matches++] = Scratch::Match{lo, step[hl]};
      }
    }
  }
  // Cell c is node c of the next level. Both branches meet a node's
  // matches in ascending key order (keys are level-major, so ancestor
  // level order is key order): candidates come out in key-path order.
  for (uint32_t i = 0; i < num_matches; ++i) {
    const Scratch::Match m = matches[i];
    scratch.path[level] = lvl.keys[m.cell];
    scratch.step_by_param[p] = m.step;
    Descend(level + 1, m.cell, counter, scratch, out, path_keys);
  }
}

void FlatProfileTree::SearchCS(const ContextState& query, DistanceKind kind,
                               bool exact_only, AccessCounter* counter,
                               std::vector<FlatCandidate>& out,
                               std::vector<uint32_t>& path_keys) const {
  out.clear();
  path_keys.clear();
  const Shape& shape = *shape_;
  const size_t n = shape.levels.size();
  // Per level: the keyed ancestor chain of the query component and
  // its per-level distance steps, computed once into the thread-local
  // scratch — the descent itself touches only integer keys.
  Scratch& scratch = TlsScratch();
  scratch.anc_key.assign(shape.cover_off[n], kNoKey);
  scratch.step.resize(shape.cover_off[n]);
  scratch.matches.resize(shape.cover_off[n]);
  scratch.path.resize(n);
  scratch.step_by_param.assign(env_->size(), 0.0);
  for (size_t l = 0; l < n; ++l) {
    const size_t p = shape.order.param_at_level(l);
    const Hierarchy& h = env_->parameter(p).hierarchy();
    const ValueRef qv = query.value(p);
    uint32_t* anc_key = scratch.anc_key.data() + shape.cover_off[l];
    double* step = scratch.step.data() + shape.cover_off[l];
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
  const Shape& shape = *shape_;
  uint32_t node = 0;
  for (size_t l = 0; l < shape.levels.size(); ++l) {
    const Level& lvl = shape.levels[l];
    const size_t p = shape.order.param_at_level(l);
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
    node = lo;
  }
  return node;
}

ContextState FlatProfileTree::StateOf(const uint32_t* path) const {
  const size_t n = num_levels();
  std::vector<ValueRef> values(n);
  for (size_t l = 0; l < n; ++l) {
    const size_t p = ordering().param_at_level(l);
    values[p] = env_->parameter(p).hierarchy().ValueAt(path[l]);
  }
  return ContextState(std::move(values));
}

double FlatProfileTree::HierarchyDistanceOf(const uint32_t* path,
                                            const ContextState& query) const {
  // Per-parameter level distances are small integers, so the FP sum is
  // exact in any order — no need to reorder into env order here.
  double distance = 0.0;
  const Ordering& order = ordering();
  for (size_t l = 0; l < num_levels(); ++l) {
    const size_t p = order.param_at_level(l);
    const Hierarchy& h = env_->parameter(p).hierarchy();
    distance += ComponentDistance(DistanceKind::kHierarchy, h,
                                  h.ValueAt(path[l]), query.value(p));
  }
  return distance;
}

std::vector<ProfileTree::LeafEntry> FlatProfileTree::EntriesOf(
    uint32_t leaf) const {
  const std::vector<uint32_t>& leaf_begin = shape_->leaf_begin;
  std::vector<ProfileTree::LeafEntry> out;
  out.reserve(leaf_begin[leaf + 1] - leaf_begin[leaf]);
  for (uint32_t k = leaf_begin[leaf]; k < leaf_begin[leaf + 1]; ++k) {
    const ContextualPreference& pref = (*prefs_)[shape_->entries[k]];
    out.push_back(ProfileTree::LeafEntry{pref.clause(), pref.score()});
  }
  return out;
}

size_t FlatProfileTree::MeasuredByteSize() const {
  // The shape and the preference list in full, shared or not: the
  // bytes of this arena alone.
  const Shape& shape = *shape_;
  size_t bytes = sizeof(*this) + sizeof(Shape);
  bytes += shape.levels.capacity() * sizeof(Level);
  for (const Level& level : shape.levels) {
    bytes += level.cell_begin.capacity() * sizeof(uint32_t);
    bytes += level.keys.capacity() * sizeof(uint32_t);
  }
  bytes += shape.cover_off.capacity() * sizeof(uint32_t);
  bytes += shape.leaf_begin.capacity() * sizeof(uint32_t);
  bytes += shape.entries.capacity() * sizeof(uint32_t);
  bytes += prefs_->capacity() * sizeof(ContextualPreference);
  return bytes;
}

}  // namespace ctxpref
