#include "workload/synthetic_hierarchy.h"

#include <vector>

namespace ctxpref::workload {

StatusOr<HierarchyPtr> MakeSyntheticHierarchy(const std::string& name,
                                              size_t detailed_size,
                                              size_t num_levels, size_t fan) {
  if (num_levels == 0) {
    return Status::InvalidArgument("num_levels must be >= 1");
  }
  if (detailed_size == 0) {
    return Status::InvalidArgument("detailed_size must be >= 1");
  }
  if (num_levels > 1 && fan < 2) {
    return Status::InvalidArgument("fan must be >= 2 for multi-level");
  }

  auto value_name = [&](size_t level, size_t i) {
    return name + "." + std::to_string(level) + "." + std::to_string(i);
  };

  HierarchyBuilder b(name);
  std::vector<std::string> detailed;
  detailed.reserve(detailed_size);
  for (size_t i = 0; i < detailed_size; ++i) {
    detailed.push_back(value_name(0, i));
  }
  b.AddDetailedLevel("L0", detailed);

  size_t below_size = detailed_size;
  for (size_t l = 1; l < num_levels; ++l) {
    const size_t this_size = (below_size + fan - 1) / fan;
    if (this_size == 0 || this_size == below_size) {
      return Status::InvalidArgument(
          "hierarchy '" + name + "' collapses at level " + std::to_string(l) +
          "; reduce num_levels or fan");
    }
    std::vector<HierarchyBuilder::Group> groups;
    groups.reserve(this_size);
    for (size_t g = 0; g < this_size; ++g) {
      HierarchyBuilder::Group group;
      group.parent = value_name(l, g);
      for (size_t c = g * fan; c < std::min((g + 1) * fan, below_size); ++c) {
        group.children.push_back(value_name(l - 1, c));
      }
      groups.push_back(std::move(group));
    }
    std::string level_name = "L";  // Not `"L" + ...`: GCC 12 -Wrestrict.
    level_name += std::to_string(l);
    b.AddLevel(std::move(level_name), std::move(groups));
    below_size = this_size;
  }
  return b.Build();
}

}  // namespace ctxpref::workload
