#include "context/hierarchy.h"

#include <algorithm>

namespace ctxpref {

StatusOr<ValueRef> Hierarchy::Find(LevelIndex l, std::string_view value) const {
  if (l >= num_levels()) {
    return Status::InvalidArgument("level index out of range in hierarchy '" +
                                   name_ + "'");
  }
  const Level& lev = levels_[l];
  auto it = lev.index.find(value);
  if (it == lev.index.end()) {
    return Status::NotFound("value '" + std::string(value) +
                            "' not in level '" + lev.name + "' of hierarchy '" +
                            name_ + "'");
  }
  return ValueRef{l, it->second};
}

StatusOr<ValueRef> Hierarchy::FindAnyLevel(std::string_view value) const {
  for (LevelIndex l = 0; l < num_levels(); ++l) {
    auto it = levels_[l].index.find(value);
    if (it != levels_[l].index.end()) return ValueRef{l, it->second};
  }
  return Status::NotFound("value '" + std::string(value) +
                          "' not in any level of hierarchy '" + name_ + "'");
}

StatusOr<LevelIndex> Hierarchy::FindLevel(std::string_view level_name) const {
  for (LevelIndex l = 0; l < num_levels(); ++l) {
    if (levels_[l].name == level_name) return l;
  }
  return Status::NotFound("level '" + std::string(level_name) +
                          "' not in hierarchy '" + name_ + "'");
}

ValueRef Hierarchy::Anc(ValueRef v, LevelIndex to) const {
  assert(Contains(v));
  assert(to >= v.level && to < num_levels());
  ValueId id = v.id;
  for (LevelIndex l = v.level; l < to; ++l) id = levels_[l].parent[id];
  return ValueRef{to, id};
}

std::vector<ValueRef> Hierarchy::Desc(ValueRef v, LevelIndex to) const {
  assert(Contains(v));
  assert(to <= v.level);
  std::vector<ValueId> frontier = {v.id};
  for (LevelIndex l = v.level; l > to; --l) {
    std::vector<ValueId> next;
    for (ValueId id : frontier) {
      const auto& kids = levels_[l].children[id];
      next.insert(next.end(), kids.begin(), kids.end());
    }
    frontier = std::move(next);
  }
  std::vector<ValueRef> out;
  out.reserve(frontier.size());
  for (ValueId id : frontier) out.push_back(ValueRef{to, id});
  return out;
}

bool Hierarchy::IsAncestorOrSelf(ValueRef a, ValueRef d) const {
  if (a.level < d.level) return false;
  return Anc(d, a.level) == a;
}

double Hierarchy::JaccardDistance(ValueRef v1, ValueRef v2) const {
  const size_t n1 = DetailedDescendantCount(v1);
  const size_t n2 = DetailedDescendantCount(v2);
  size_t inter;
  if (IsAncestorOrSelf(v1, v2)) {
    inter = n2;  // desc(v2) ⊆ desc(v1)
  } else if (IsAncestorOrSelf(v2, v1)) {
    inter = n1;
  } else {
    inter = 0;  // Tree-shaped hierarchy: otherwise disjoint.
  }
  const size_t uni = n1 + n2 - inter;
  return 1.0 - static_cast<double>(inter) / static_cast<double>(uni);
}

HierarchyBuilder& HierarchyBuilder::AddDetailedLevel(
    std::string level_name, std::vector<std::string> values) {
  if (!deferred_error_.ok()) return *this;
  if (!level_names_.empty()) {
    deferred_error_ =
        Status::InvalidArgument("AddDetailedLevel must be the first level");
    return *this;
  }
  if (values.empty()) {
    deferred_error_ = Status::InvalidArgument("detailed level '" + level_name +
                                              "' has no values");
    return *this;
  }
  level_names_.push_back(std::move(level_name));
  level_values_.push_back(std::move(values));
  return *this;
}

HierarchyBuilder& HierarchyBuilder::AddLevel(std::string level_name,
                                             std::vector<Group> groups) {
  if (!deferred_error_.ok()) return *this;
  if (level_names_.empty()) {
    deferred_error_ =
        Status::InvalidArgument("call AddDetailedLevel before AddLevel");
    return *this;
  }
  if (groups.empty()) {
    deferred_error_ =
        Status::InvalidArgument("level '" + level_name + "' has no groups");
    return *this;
  }
  std::vector<std::string> values;
  values.reserve(groups.size());
  for (const Group& g : groups) values.push_back(g.parent);
  level_names_.push_back(std::move(level_name));
  level_values_.push_back(std::move(values));
  groups_.push_back(std::move(groups));
  return *this;
}

StatusOr<HierarchyPtr> HierarchyBuilder::Build() {
  if (!deferred_error_.ok()) return deferred_error_;
  if (level_names_.empty()) {
    return Status::InvalidArgument("hierarchy '" + name_ + "' has no levels");
  }

  auto hier = std::shared_ptr<Hierarchy>(new Hierarchy());
  hier->name_ = name_;

  // Materialize declared levels with interned values.
  for (size_t l = 0; l < level_names_.size(); ++l) {
    Hierarchy::Level lev;
    lev.name = level_names_[l];
    lev.values = level_values_[l];
    for (ValueId id = 0; id < lev.values.size(); ++id) {
      auto [it, inserted] = lev.index.emplace(lev.values[id], id);
      if (!inserted) {
        return Status::InvalidArgument("duplicate value '" + lev.values[id] +
                                       "' in level '" + lev.name +
                                       "' of hierarchy '" + name_ + "'");
      }
    }
    hier->levels_.push_back(std::move(lev));
  }

  // Append the ALL level.
  {
    Hierarchy::Level all;
    all.name = "ALL";
    all.values = {"all"};
    all.index.emplace("all", 0);
    hier->levels_.push_back(std::move(all));
  }

  const size_t num_declared = level_names_.size();

  // Wire parents. Level i in [0, num_declared-2] is parented by the
  // explicit groups; level num_declared-1 is parented by ALL.
  for (size_t l = 0; l + 1 < num_declared; ++l) {
    Hierarchy::Level& child = hier->levels_[l];
    Hierarchy::Level& parent = hier->levels_[l + 1];
    child.parent.assign(child.values.size(),
                        std::numeric_limits<ValueId>::max());
    const std::vector<Group>& groups = groups_[l];
    for (ValueId pid = 0; pid < groups.size(); ++pid) {
      for (const std::string& child_name : groups[pid].children) {
        auto it = child.index.find(child_name);
        if (it == child.index.end()) {
          return Status::InvalidArgument(
              "group parent '" + groups[pid].parent + "' references unknown " +
              "value '" + child_name + "' at level '" + child.name + "'");
        }
        if (child.parent[it->second] != std::numeric_limits<ValueId>::max()) {
          return Status::InvalidArgument("value '" + child_name +
                                         "' assigned two parents at level '" +
                                         parent.name + "'");
        }
        child.parent[it->second] = pid;
      }
    }
    for (ValueId id = 0; id < child.values.size(); ++id) {
      if (child.parent[id] == std::numeric_limits<ValueId>::max()) {
        return Status::InvalidArgument("value '" + child.values[id] +
                                       "' has no parent at level '" +
                                       parent.name + "'");
      }
    }
    if (require_monotone_) {
      // Condition 3 (paper §3.1): x < y ⇒ anc(x) <= anc(y).
      for (ValueId id = 1; id < child.values.size(); ++id) {
        if (child.parent[id] < child.parent[id - 1]) {
          return Status::InvalidArgument(
              "anc function not monotone between levels '" + child.name +
              "' and '" + parent.name + "' (value '" + child.values[id] +
              "'); reorder values or set_require_monotone(false)");
        }
      }
    }
  }
  // Top declared level -> ALL.
  hier->levels_[num_declared - 1].parent.assign(
      hier->levels_[num_declared - 1].values.size(), 0);

  // Children lists and detailed-descendant counts, bottom-up.
  for (size_t l = 0; l + 1 < hier->levels_.size(); ++l) {
    Hierarchy::Level& child = hier->levels_[l];
    Hierarchy::Level& parent = hier->levels_[l + 1];
    parent.children.assign(parent.values.size(), {});
    for (ValueId id = 0; id < child.values.size(); ++id) {
      parent.children[child.parent[id]].push_back(id);
    }
  }
  {
    Hierarchy::Level& detailed = hier->levels_[0];
    detailed.detailed_count.assign(detailed.values.size(), 1);
    for (size_t l = 1; l < hier->levels_.size(); ++l) {
      Hierarchy::Level& lev = hier->levels_[l];
      const Hierarchy::Level& below = hier->levels_[l - 1];
      lev.detailed_count.assign(lev.values.size(), 0);
      for (ValueId id = 0; id < lev.values.size(); ++id) {
        for (ValueId c : lev.children[id]) {
          lev.detailed_count[id] += below.detailed_count[c];
        }
      }
    }
  }

  // Extended-domain keys, level by level.
  for (LevelIndex l = 0; l < hier->num_levels(); ++l) {
    hier->level_offset_.push_back(
        static_cast<uint32_t>(hier->level_of_key_.size()));
    hier->level_of_key_.resize(
        hier->level_of_key_.size() + hier->levels_[l].values.size(), l);
  }
  return HierarchyPtr(hier);
}

StatusOr<HierarchyPtr> MakeFlatHierarchy(std::string name,
                                         std::string level_name,
                                         std::vector<std::string> values) {
  HierarchyBuilder b(std::move(name));
  b.AddDetailedLevel(std::move(level_name), std::move(values));
  return b.Build();
}

}  // namespace ctxpref
