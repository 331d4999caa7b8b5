#include "preference/profile_tree.h"

#include "util/string_util.h"

namespace ctxpref {

ProfileTree::ProfileTree(EnvironmentPtr env, Ordering order)
    : env_(std::move(env)),
      order_(std::move(order)),
      root_(std::make_unique<Node>()) {
  assert(order_.size() == env_->size());
}

StatusOr<ProfileTree> ProfileTree::Build(const Profile& profile,
                                         const Ordering& order) {
  if (order.size() != profile.env().size()) {
    return Status::InvalidArgument("ordering size does not match environment");
  }
  ProfileTree tree(profile.env_ptr(), order);
  for (const ContextualPreference& pref : profile.preferences()) {
    CTXPREF_RETURN_IF_ERROR(tree.Insert(pref));
  }
  return tree;
}

StatusOr<ProfileTree> ProfileTree::Build(const Profile& profile) {
  return Build(profile, GreedyOrdering(profile));
}

ProfileTree::Node* ProfileTree::Descend(const ContextState& state,
                                        bool create) {
  Node* node = root_.get();
  const size_t n = env_->size();
  for (size_t level = 0; level < n; ++level) {
    const ValueRef key = state.value(order_.param_at_level(level));
    Node* next = nullptr;
    for (Node::Cell& cell : node->cells) {
      if (cell.key == key) {
        next = cell.child.get();
        break;
      }
    }
    if (next == nullptr) {
      if (!create) return nullptr;
      node->cells.push_back(Node::Cell{key, std::make_unique<Node>()});
      ++cell_count_;
      ++node_count_;
      next = node->cells.back().child.get();
      if (level + 1 == n) ++path_count_;  // A new leaf was created.
    }
    node = next;
  }
  return node;
}

void ProfileTree::InsertState(const ContextState& state,
                              const AttributeClause& clause, double score) {
  Node* leaf = Descend(state, /*create=*/true);
  for (const LeafEntry& e : leaf->entries) {
    if (e.clause == clause) return;  // Held, at `score` (Insert's pass 1).
  }
  leaf->entries.push_back(LeafEntry{clause, score});
  ++leaf_entry_count_;
}

Status ProfileTree::Insert(const ContextualPreference& pref) {
  std::vector<ContextState> states = pref.States(*env_);
  // Pass 1: conflict check only, so a failed insert leaves the tree
  // untouched (a single root-to-leaf traversal per state, paper §3.3).
  for (const ContextState& s : states) {
    const Node* leaf = Descend(s, /*create=*/false);
    if (leaf == nullptr) continue;
    for (const LeafEntry& e : leaf->entries) {
      if (e.clause == pref.clause() && e.score != pref.score()) {
        return Status::Conflict(
            "preference conflicts at state " + s.ToString(*env_) +
            ": clause '" + pref.clause().ToString() + "' already scored " +
            FormatDouble(e.score));
      }
    }
  }
  // Pass 2: materialize paths.
  for (const ContextState& s : states) {
    InsertState(s, pref.clause(), pref.score());
  }
  prefs_.push_back(pref);
  return Status::OK();
}

namespace {

size_t StringHeapBytes(const std::string& s) {
  // Heap payload approximated by capacity; SSO strings count 0.
  return s.capacity() > sizeof(std::string) ? s.capacity() + 1 : 0;
}

size_t MeasuredNodeBytes(const ProfileTree::Node& node) {
  size_t bytes = sizeof(ProfileTree::Node);
  bytes += node.cells.capacity() * sizeof(ProfileTree::Node::Cell);
  bytes += node.entries.capacity() * sizeof(ProfileTree::LeafEntry);
  for (const ProfileTree::LeafEntry& e : node.entries) {
    bytes += StringHeapBytes(e.clause.attribute);
    if (e.clause.value.type() == db::ColumnType::kString) {
      bytes += StringHeapBytes(e.clause.value.AsString());
    }
  }
  for (const ProfileTree::Node::Cell& cell : node.cells) {
    bytes += MeasuredNodeBytes(*cell.child);
  }
  return bytes;
}

}  // namespace

size_t ProfileTree::MeasuredByteSize() const {
  return sizeof(*this) + MeasuredNodeBytes(*root_) +
         prefs_.capacity() * sizeof(ContextualPreference);
}

const std::vector<ProfileTree::LeafEntry>* ProfileTree::ExactLookup(
    const ContextState& state, AccessCounter* counter) const {
  const Node* node = root_.get();
  const size_t n = env_->size();
  for (size_t level = 0; level < n; ++level) {
    const ValueRef key = state.value(order_.param_at_level(level));
    const Node* next = nullptr;
    for (const Node::Cell& cell : node->cells) {
      if (counter != nullptr) counter->AddCell();
      if (cell.key == key) {
        next = cell.child.get();
        break;
      }
    }
    if (next == nullptr) return nullptr;
    node = next;
  }
  return &node->entries;
}

}  // namespace ctxpref
