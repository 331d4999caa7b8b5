#ifndef CTXPREF_PREFERENCE_CONTEXT_TRIE_H_
#define CTXPREF_PREFERENCE_CONTEXT_TRIE_H_

#include <memory>
#include <vector>

#include "context/environment.h"
#include "context/state.h"
#include "preference/ordering.h"
#include "util/counters.h"

namespace ctxpref {

/// A generic trie over context states, for any payload keyed by context
/// state: the qualitative preference store's index (it holds
/// preference-id payloads). Neither the profile tree (its own `Node`)
/// nor the context query tree (one map per user) is built on it.
///
/// Level i is keyed by the parameter `ordering.param_at_level(i)`;
/// cells within a node are kept in insertion order and scanned
/// linearly, ticking the optional `AccessCounter` per inspected cell —
/// the same cost model as `ProfileTree` (paper §3.3/§4.4).
///
/// `Payload` must be default-constructible and movable.
template <typename Payload>
class ContextTrie {
 public:
  ContextTrie(EnvironmentPtr env, Ordering order)
      : env_(std::move(env)),
        order_(std::move(order)),
        root_(std::make_unique<Node>()) {
    assert(order_.size() == env_->size());
  }

  explicit ContextTrie(EnvironmentPtr env)
      : ContextTrie(env, Ordering::Identity(env->size())) {}

  const ContextEnvironment& env() const { return *env_; }
  const Ordering& ordering() const { return order_; }

  /// Number of distinct states stored.
  size_t size() const { return size_; }
  /// Total [key, pointer] cells.
  size_t CellCount() const { return cell_count_; }

  /// Returns the payload slot for `state`, creating the path if
  /// absent. Newly created slots are default-constructed.
  Payload& GetOrCreate(const ContextState& state) {
    Node* node = Descend(state, /*create=*/true, nullptr);
    if (!node->has_payload) {
      node->has_payload = true;
      ++size_;
    }
    return node->payload;
  }

  /// Returns the payload stored for `state`, or nullptr. Ticks
  /// `counter` per inspected cell.
  const Payload* Find(const ContextState& state,
                      AccessCounter* counter = nullptr) const {
    const Node* node =
        const_cast<ContextTrie*>(this)->Descend(state, false, counter);
    return (node != nullptr && node->has_payload) ? &node->payload : nullptr;
  }

  /// Visits every (state, payload) whose state *covers* `query` —
  /// the Search_CS traversal: at each level follows cells whose key is
  /// the query component or one of its ancestors. `visit` receives the
  /// stored state (environment component order) and its payload.
  template <typename Visitor>
  void VisitCovering(const ContextState& query, Visitor&& visit,
                     AccessCounter* counter = nullptr) const {
    std::vector<ValueRef> path;
    path.reserve(env_->size());
    Recurse(*root_, 0, query, path, visit, counter);
  }

  /// Visits every stored (state, payload).
  template <typename Visitor>
  void VisitAll(Visitor&& visit) const {
    std::vector<ValueRef> path;
    path.reserve(env_->size());
    RecurseAll(*root_, 0, path, visit);
  }

 private:
  struct Node {
    struct Cell {
      ValueRef key;
      std::unique_ptr<Node> child;
    };
    std::vector<Cell> cells;
    Payload payload{};
    bool has_payload = false;
  };

  Node* Descend(const ContextState& state, bool create,
                AccessCounter* counter) {
    Node* node = root_.get();
    for (size_t level = 0; level < env_->size(); ++level) {
      const ValueRef key = state.value(order_.param_at_level(level));
      Node* next = nullptr;
      for (typename Node::Cell& cell : node->cells) {
        if (counter != nullptr) counter->AddCell();
        if (cell.key == key) {
          next = cell.child.get();
          break;
        }
      }
      if (next == nullptr) {
        if (!create) return nullptr;
        node->cells.push_back(
            typename Node::Cell{key, std::make_unique<Node>()});
        ++cell_count_;
        next = node->cells.back().child.get();
      }
      node = next;
    }
    return node;
  }

  ContextState Reorder(const std::vector<ValueRef>& path) const {
    std::vector<ValueRef> values(env_->size());
    for (size_t l = 0; l < env_->size(); ++l) {
      values[order_.param_at_level(l)] = path[l];
    }
    return ContextState(std::move(values));
  }

  template <typename Visitor>
  void Recurse(const Node& node, size_t level, const ContextState& query,
               std::vector<ValueRef>& path, Visitor& visit,
               AccessCounter* counter) const {
    if (level == env_->size()) {
      if (node.has_payload) visit(Reorder(path), node.payload);
      return;
    }
    const size_t param = order_.param_at_level(level);
    const Hierarchy& h = env_->parameter(param).hierarchy();
    const ValueRef qv = query.value(param);
    for (const typename Node::Cell& cell : node.cells) {
      if (counter != nullptr) counter->AddCell();
      if (!h.IsAncestorOrSelf(cell.key, qv)) continue;
      path.push_back(cell.key);
      Recurse(*cell.child, level + 1, query, path, visit, counter);
      path.pop_back();
    }
  }

  template <typename Visitor>
  void RecurseAll(const Node& node, size_t level, std::vector<ValueRef>& path,
                  Visitor& visit) const {
    if (level == env_->size()) {
      if (node.has_payload) visit(Reorder(path), node.payload);
      return;
    }
    for (const typename Node::Cell& cell : node.cells) {
      path.push_back(cell.key);
      RecurseAll(*cell.child, level + 1, path, visit);
      path.pop_back();
    }
  }

  EnvironmentPtr env_;
  Ordering order_;
  std::unique_ptr<Node> root_;
  size_t cell_count_ = 0;
  size_t size_ = 0;
};

}  // namespace ctxpref

#endif  // CTXPREF_PREFERENCE_CONTEXT_TRIE_H_
