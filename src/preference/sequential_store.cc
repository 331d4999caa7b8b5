#include "preference/sequential_store.h"

#include "context/distance.h"

namespace ctxpref {

SequentialStore SequentialStore::Build(const Profile& profile) {
  SequentialStore store(profile.env_ptr());
  for (const Profile::StateEntry& e : profile.Flatten()) {
    store.Add(e.state, *e.clause, e.score);
  }
  return store;
}

void SequentialStore::Add(const ContextState& state,
                          const AttributeClause& clause, double score) {
  auto [it, inserted] = group_index_.emplace(state, groups_.size());
  if (inserted) {
    groups_.push_back(Group{state, {}});
  }
  Group& g = groups_[it->second];
  for (const ProfileTree::LeafEntry& e : g.entries) {
    if (e.clause == clause && e.score == score) return;  // Dedup.
  }
  g.entries.push_back(ProfileTree::LeafEntry{clause, score});
  ++leaf_entry_count_;
}

namespace {

/// Compares component by component with the paper's cell accounting:
/// each inspected component is one cell access; stops at the first
/// component failing `component_ok`.
template <typename ComponentOk>
bool ScanState(const ContextEnvironment& env, const ContextState& stored,
               const ContextState& query, AccessCounter* counter,
               ComponentOk component_ok) {
  for (size_t i = 0; i < env.size(); ++i) {
    if (counter != nullptr) counter->AddCell();
    if (!component_ok(i, stored.value(i), query.value(i))) return false;
  }
  return true;
}

}  // namespace

std::vector<CandidatePath> SequentialStore::SearchExact(
    const ContextState& query, AccessCounter* counter) const {
  for (const Group& g : groups_) {
    bool equal = ScanState(*env_, g.state, query, counter,
                           [](size_t, ValueRef stored, ValueRef q) {
                             return stored == q;
                           });
    if (equal) {
      return {CandidatePath{g.state, 0.0, g.entries}};
    }
  }
  return {};
}

std::vector<CandidatePath> SequentialStore::SearchCovering(
    const ContextState& query, const ResolutionOptions& options,
    AccessCounter* counter) const {
  std::vector<CandidatePath> out;
  for (const Group& g : groups_) {
    bool covers = ScanState(
        *env_, g.state, query, counter,
        [&](size_t i, ValueRef stored, ValueRef q) {
          return env_->parameter(i).hierarchy().IsAncestorOrSelf(stored, q);
        });
    if (covers) {
      out.push_back(CandidatePath{
          g.state, StateDistance(options.distance, *env_, g.state, query),
          g.entries});
    }
  }
  return out;
}

std::vector<CandidatePath> SequentialStore::ResolveBest(
    const ContextState& query, const ResolutionOptions& options,
    AccessCounter* counter) const {
  if (options.exact_only) {
    return SearchExact(query, counter);
  }
  std::vector<CandidatePath> all = SearchCovering(query, options, counter);
  std::vector<CandidatePath> best;
  for (const size_t i : BestCandidateIndices(
           all.size(), options.distance,
           [&](size_t c) { return all[c].distance; },
           [&](size_t c) {
             return HierarchyStateDistance(*env_, all[c].state, query);
           })) {
    best.push_back(std::move(all[i]));
  }
  SortByState(best);
  return best;
}

}  // namespace ctxpref
