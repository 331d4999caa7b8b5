#include "context/distance.h"

namespace ctxpref {

const char* DistanceKindToString(DistanceKind kind) {
  switch (kind) {
    case DistanceKind::kHierarchy:
      return "Hierarchy";
    case DistanceKind::kJaccard:
      return "Jaccard";
  }
  return "Unknown";
}

double ComponentDistance(DistanceKind kind, const Hierarchy& h,
                         ValueRef stored, ValueRef query) {
  switch (kind) {
    case DistanceKind::kHierarchy:
      return h.LevelDistance(stored.level, query.level);
    case DistanceKind::kJaccard:
      return h.JaccardDistance(stored, query);
  }
  return kInfiniteDistance;
}

double HierarchyStateDistance(const ContextEnvironment& env,
                              const ContextState& s1, const ContextState& s2) {
  return StateDistance(DistanceKind::kHierarchy, env, s1, s2);
}

double JaccardStateDistance(const ContextEnvironment& env,
                            const ContextState& s1, const ContextState& s2) {
  return StateDistance(DistanceKind::kJaccard, env, s1, s2);
}

double StateDistance(DistanceKind kind, const ContextEnvironment& env,
                     const ContextState& s1, const ContextState& s2) {
  assert(s1.size() == env.size() && s2.size() == env.size());
  double sum = 0;
  for (size_t i = 0; i < env.size(); ++i) {
    sum += ComponentDistance(kind, env.parameter(i).hierarchy(), s1.value(i),
                             s2.value(i));
  }
  return sum;
}

}  // namespace ctxpref
