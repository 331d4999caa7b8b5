#ifndef CTXPREF_CONTEXT_HIERARCHY_H_
#define CTXPREF_CONTEXT_HIERARCHY_H_

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace ctxpref {

/// Index of a level within a hierarchy. Level 0 is the detailed level
/// (the paper's L1); the last level is always ALL.
using LevelIndex = uint16_t;

/// Index of a value within one level's domain.
using ValueId = uint32_t;

/// A value of a context parameter's extended domain, identified by its
/// hierarchy level and its id within that level. Which hierarchy the
/// reference belongs to is implied by the context parameter it is used
/// with; `ValueRef`s from different parameters must never be mixed.
struct ValueRef {
  LevelIndex level = 0;
  ValueId id = 0;

  friend bool operator==(const ValueRef&, const ValueRef&) = default;
  friend auto operator<=>(const ValueRef&, const ValueRef&) = default;
};

/// A hierarchy of levels L1 ≺ L2 ≺ ... ≺ ALL over a context parameter's
/// domain (paper §3.1). The implementation models a *chain* of levels —
/// the shape used by every hierarchy in the paper (Region ≺ City ≺
/// Country ≺ ALL, Conditions ≺ Characterization ≺ ALL, ...) — with a
/// total, transitive, monotone `anc` function between consecutive
/// levels, from which anc/desc between any two comparable levels are
/// derived by composition (the paper's conditions 1-3 hold by
/// construction).
///
/// Values are interned: each level owns a dense `ValueId` space and the
/// ancestor function is a flat array lookup, so states and index keys
/// are small PODs and `anc`/`desc` are O(1)/O(k).
///
/// Instances are immutable after `HierarchyBuilder::Build()` and are
/// shared via `std::shared_ptr<const Hierarchy>`.
class Hierarchy {
 public:
  /// Name of the hierarchy (e.g. "location").
  const std::string& name() const { return name_; }

  /// Number of levels including ALL (the paper's m).
  LevelIndex num_levels() const {
    return static_cast<LevelIndex>(levels_.size());
  }

  /// Index of the ALL level (== num_levels()-1).
  LevelIndex all_level() const {
    return static_cast<LevelIndex>(levels_.size() - 1);
  }

  /// The single value of the ALL level.
  ValueRef AllValue() const { return ValueRef{all_level(), 0}; }

  /// Name of level `l` ("Region", "City", ..., "ALL").
  const std::string& level_name(LevelIndex l) const {
    return levels_[l].name;
  }

  /// Domain size of level `l` (domLl cardinality).
  size_t level_size(LevelIndex l) const { return levels_[l].values.size(); }

  /// Total size of the extended domain (sum of all level domains).
  size_t extended_domain_size() const { return level_of_key_.size(); }

  /// Dense key of `v` over the extended domain (paper §3.1): level l's
  /// values hold the contiguous keys [Key({l, 0}), Key({l + 1, 0})) in
  /// id order, levels in order, so keys run over
  /// [0, extended_domain_size()). The key of the profile tree's cells
  /// (`FlatProfileTree`).
  uint32_t Key(ValueRef v) const { return level_offset_[v.level] + v.id; }

  /// Inverse of `Key`; requires key < extended_domain_size().
  ValueRef ValueAt(uint32_t key) const {
    const LevelIndex l = level_of_key_[key];
    return ValueRef{l, key - level_offset_[l]};
  }

  /// level_of_keys()[key] is the level of `ValueAt(key)`: the raw table
  /// a descent reads once per cell.
  const LevelIndex* level_of_keys() const { return level_of_key_.data(); }

  /// String form of a value.
  const std::string& value_name(ValueRef v) const {
    return levels_[v.level].values[v.id];
  }

  /// True if `v` names a valid (level, id) in this hierarchy.
  bool Contains(ValueRef v) const {
    return v.level < num_levels() && v.id < level_size(v.level);
  }

  /// Finds a value by name within level `l`.
  StatusOr<ValueRef> Find(LevelIndex l, std::string_view value) const;

  /// Finds a value by name searching levels detailed-first; the first
  /// hit wins. Errors with NotFound if no level contains `value`.
  StatusOr<ValueRef> FindAnyLevel(std::string_view value) const;

  /// Finds a level by name.
  StatusOr<LevelIndex> FindLevel(std::string_view level_name) const;

  /// The paper's anc^{Lto}_{Lfrom}: maps `v` to its ancestor at level
  /// `to`. Requires to >= v.level. Anc(v, v.level) == v.
  ValueRef Anc(ValueRef v, LevelIndex to) const;

  /// The paper's desc^{Lv}_{Lto}: all values at level `to` (<= v.level)
  /// whose ancestor at v.level is `v`. Desc(v, v.level) == {v}.
  std::vector<ValueRef> Desc(ValueRef v, LevelIndex to) const;

  /// |desc to the detailed level| — the cardinality used by the Jaccard
  /// distance (Def. 16). Precomputed; O(1).
  size_t DetailedDescendantCount(ValueRef v) const {
    return levels_[v.level].detailed_count[v.id];
  }

  /// True iff ancestor `a` is an ancestor of (or equal to) `d`:
  /// a.level >= d.level and Anc(d, a.level) == a. This is the per-value
  /// ingredient of the covers relation (Def. 10).
  bool IsAncestorOrSelf(ValueRef a, ValueRef d) const;

  /// Paper Def. 14 level distance: number of edges between the two
  /// levels in the chain, i.e. |l1 - l2| (all levels of one hierarchy
  /// are comparable in a chain; the Def. 14 "infinite" case only arises
  /// across different hierarchies and is handled by the caller).
  uint32_t LevelDistance(LevelIndex l1, LevelIndex l2) const {
    return l1 > l2 ? l1 - l2 : l2 - l1;
  }

  /// Jaccard distance between two values of this hierarchy (Def. 16):
  /// 1 - |desc_detail(v1) ∩ desc_detail(v2)| / |union|. Exploits the
  /// tree shape of the chain hierarchy: detailed descendant sets are
  /// either nested or disjoint, so this is O(1).
  double JaccardDistance(ValueRef v1, ValueRef v2) const;

 private:
  friend class HierarchyBuilder;

  struct Level {
    std::string name;
    std::vector<std::string> values;
    std::map<std::string, ValueId, std::less<>> index;
    /// parent[id] = id of the ancestor at the next level up.
    /// Empty for the ALL level.
    std::vector<ValueId> parent;
    /// children[id] = ids at the next level down mapping to `id`.
    /// Empty for the detailed level.
    std::vector<std::vector<ValueId>> children;
    /// detailed_count[id] = |descendants at level 0|.
    std::vector<size_t> detailed_count;
  };

  Hierarchy() = default;

  std::string name_;
  std::vector<Level> levels_;
  /// level_offset_[l] = Key({l, 0}); one entry per level.
  std::vector<uint32_t> level_offset_;
  /// level_of_key_[key] = level of the value `key` denotes.
  std::vector<LevelIndex> level_of_key_;
};

using HierarchyPtr = std::shared_ptr<const Hierarchy>;

/// Builds a `Hierarchy` level by level, validating the paper's
/// conditions on the anc functions:
///  1. totality  — every value has exactly one parent at the next level;
///  2. transitivity — holds by construction (composition of chains);
///  3. monotonicity — parents are non-decreasing in the child order
///     (required for range descriptors to be well-defined; can be
///     relaxed via `set_require_monotone(false)`).
///
/// Usage:
///   HierarchyBuilder b("location");
///   b.AddDetailedLevel("Region", {"Plaka", "Kifisia", "Perama"});
///   b.AddLevel("City", {{"Athens", {"Plaka", "Kifisia"}},
///                       {"Ioannina", {"Perama"}}});
///   b.AddLevel("Country", {{"Greece", {"Athens", "Ioannina"}}});
///   StatusOr<HierarchyPtr> h = b.Build();  // ALL level appended.
class HierarchyBuilder {
 public:
  /// A parent value together with the child values it groups.
  struct Group {
    std::string parent;
    std::vector<std::string> children;
  };

  explicit HierarchyBuilder(std::string name) : name_(std::move(name)) {}

  /// Declares the detailed level L1. Must be called first, exactly once.
  /// Value order is the domain order used by range descriptors.
  HierarchyBuilder& AddDetailedLevel(std::string level_name,
                                     std::vector<std::string> values);

  /// Declares the next level up, grouping all values of the previous
  /// level. Group order defines this level's domain order.
  HierarchyBuilder& AddLevel(std::string level_name,
                             std::vector<Group> groups);

  /// When false, skips the monotonicity validation (condition 3).
  HierarchyBuilder& set_require_monotone(bool v) {
    require_monotone_ = v;
    return *this;
  }

  /// Validates and finalizes, appending the ALL level. Errors:
  /// InvalidArgument on duplicate values within a level, unknown or
  /// unparented children, empty levels, or monotonicity violations.
  StatusOr<HierarchyPtr> Build();

 private:
  std::string name_;
  bool require_monotone_ = true;
  Status deferred_error_;  // First error recorded during Add* calls.
  std::vector<std::string> level_names_;
  std::vector<std::vector<std::string>> level_values_;
  /// groups_[i] defines parents of level i's values at level i+1.
  std::vector<std::vector<Group>> groups_;
};

/// Builds a flat hierarchy with a single detailed level plus ALL —
/// convenient for parameters without interesting structure.
StatusOr<HierarchyPtr> MakeFlatHierarchy(std::string name,
                                         std::string level_name,
                                         std::vector<std::string> values);

}  // namespace ctxpref

#endif  // CTXPREF_CONTEXT_HIERARCHY_H_
