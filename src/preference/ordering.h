#ifndef CTXPREF_PREFERENCE_ORDERING_H_
#define CTXPREF_PREFERENCE_ORDERING_H_

#include <cstdint>
#include <string>
#include <vector>

#include "context/environment.h"
#include "preference/profile.h"
#include "util/status.h"

namespace ctxpref {

/// Assignment of context parameters to profile-tree levels (paper
/// §3.3): tree level i is keyed by parameter `param_at_level(i)`.
/// The paper's experiments (Fig. 5/6) sweep these orderings; its size
/// analysis shows the cell count is minimized when parameters with
/// larger (active) domains sit *lower* in the tree.
class Ordering {
 public:
  Ordering() = default;

  /// The identity ordering: level i <- parameter i.
  static Ordering Identity(size_t n);

  /// Builds from an explicit permutation `level_to_param`; errors with
  /// InvalidArgument if it is not a permutation of 0..n-1.
  static StatusOr<Ordering> FromPermutation(std::vector<size_t> level_to_param);

  size_t size() const { return level_to_param_.size(); }
  size_t param_at_level(size_t level) const { return level_to_param_[level]; }
  const std::vector<size_t>& level_to_param() const { return level_to_param_; }

  /// "(accompanying_people, temperature, location)".
  std::string ToString(const ContextEnvironment& env) const;

  friend bool operator==(const Ordering&, const Ordering&) = default;

 private:
  explicit Ordering(std::vector<size_t> level_to_param)
      : level_to_param_(std::move(level_to_param)) {}

  std::vector<size_t> level_to_param_;
};

/// The paper's worst-case cell count for domain cardinalities
/// m1..mn in tree-level order: m1·(1 + m2·(1 + ... (1 + mn))).
uint64_t MaxCellEstimate(const std::vector<uint64_t>& sizes_in_level_order);

/// Every state of `prefs`, preference order then state order (the
/// profile tree's insertion order), as rows of extended-domain keys
/// (`Hierarchy::Key`) in environment order: `NumStates()` rows of
/// `env.size()` keys per preference.
std::vector<uint32_t> StateKeyRows(
    const ContextEnvironment& env,
    const std::vector<ContextualPreference>& prefs);

/// Distinct keys each parameter (column) takes over `key_rows` (rows
/// of `env.size()` extended-domain keys, as `StateKeyRows` lays them
/// out) — the "active domain" sizes that actually drive tree size
/// (paper Fig. 6 right: a skewed parameter may have a large domain but
/// a small active domain). The one counting routine: the overload
/// below and `FlatProfileTree::Build` both count through it.
std::vector<uint64_t> ActiveDomainSizes(const ContextEnvironment& env,
                                        const std::vector<uint32_t>& key_rows);

/// `ActiveDomainSizes` over `StateKeyRows(profile.env(),
/// profile.preferences())`.
std::vector<uint64_t> ActiveDomainSizes(const Profile& profile);

/// The paper's §3.3 greedy ordering over active domain sizes (indexed
/// by parameter): parameters sorted by ascending active cardinality
/// (the guideline "place parameters with domains with higher
/// cardinalities lower in the context tree"), which minimizes
/// `MaxCellEstimate`. Ties broken by parameter index. The one
/// implementation of the rule: `ProfileTree::Build` and
/// `FlatProfileTree::Build` both order by it.
Ordering GreedyOrdering(const std::vector<uint64_t>& active_sizes);

/// `GreedyOrdering(ActiveDomainSizes(profile))`.
Ordering GreedyOrdering(const Profile& profile);

/// Exhaustively evaluates all n! orderings against `MaxCellEstimate`
/// over active domains and returns the minimizer. Errors with
/// InvalidArgument for n > 9 (guard against factorial blowup); use
/// `GreedyOrdering` there.
StatusOr<Ordering> OptimalOrderingByEstimate(const Profile& profile);

/// All n! orderings in lexicographic permutation order (n ≤ 9).
StatusOr<std::vector<Ordering>> AllOrderings(size_t n);

}  // namespace ctxpref

#endif  // CTXPREF_PREFERENCE_ORDERING_H_
