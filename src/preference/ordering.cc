#include "preference/ordering.h"

#include <algorithm>
#include <numeric>

namespace ctxpref {

Ordering Ordering::Identity(size_t n) {
  std::vector<size_t> p(n);
  std::iota(p.begin(), p.end(), 0);
  return Ordering(std::move(p));
}

StatusOr<Ordering> Ordering::FromPermutation(
    std::vector<size_t> level_to_param) {
  std::vector<bool> seen(level_to_param.size(), false);
  for (size_t p : level_to_param) {
    if (p >= level_to_param.size() || seen[p]) {
      return Status::InvalidArgument(
          "ordering is not a permutation of 0.." +
          std::to_string(level_to_param.size() - 1));
    }
    seen[p] = true;
  }
  return Ordering(std::move(level_to_param));
}

std::string Ordering::ToString(const ContextEnvironment& env) const {
  std::string out = "(";
  for (size_t i = 0; i < level_to_param_.size(); ++i) {
    if (i > 0) out += ", ";
    out += env.parameter(level_to_param_[i]).name();
  }
  out += ")";
  return out;
}

uint64_t MaxCellEstimate(const std::vector<uint64_t>& sizes) {
  // m1·(1 + m2·(1 + ... (1 + mn))): fold right-to-left.
  uint64_t acc = 0;
  for (size_t i = sizes.size(); i > 0; --i) {
    acc = sizes[i - 1] * (1 + acc);
  }
  return acc;
}

std::vector<uint32_t> StateKeyRows(
    const ContextEnvironment& env,
    const std::vector<ContextualPreference>& prefs) {
  const size_t n = env.size();
  std::vector<ValueRef> values;
  for (const ContextualPreference& pref : prefs) {
    pref.descriptor().AppendStateValues(env, values);
  }
  std::vector<uint32_t> keys(values.size());
  for (size_t k = 0; k < values.size(); ++k) {
    keys[k] = env.parameter(k % n).hierarchy().Key(values[k]);
  }
  return keys;
}

std::vector<uint64_t> ActiveDomainSizes(const ContextEnvironment& env,
                                        const std::vector<uint32_t>& key_rows) {
  const size_t n = env.size();
  std::vector<uint64_t> active(n, 0);
  std::vector<uint8_t> seen;
  for (size_t p = 0; p < n; ++p) {
    seen.assign(env.parameter(p).hierarchy().extended_domain_size(), 0);
    for (size_t k = p; k < key_rows.size(); k += n) {
      uint8_t& mark = seen[key_rows[k]];
      active[p] += mark == 0;
      mark = 1;
    }
  }
  return active;
}

std::vector<uint64_t> ActiveDomainSizes(const Profile& profile) {
  return ActiveDomainSizes(
      profile.env(), StateKeyRows(profile.env(), profile.preferences()));
}

Ordering GreedyOrdering(const std::vector<uint64_t>& active_sizes) {
  std::vector<size_t> perm(active_sizes.size());
  std::iota(perm.begin(), perm.end(), 0);
  std::stable_sort(perm.begin(), perm.end(), [&](size_t a, size_t b) {
    return active_sizes[a] < active_sizes[b];
  });
  return *Ordering::FromPermutation(std::move(perm));
}

Ordering GreedyOrdering(const Profile& profile) {
  return GreedyOrdering(ActiveDomainSizes(profile));
}

StatusOr<std::vector<Ordering>> AllOrderings(size_t n) {
  if (n > 9) {
    return Status::InvalidArgument(
        "refusing to enumerate " + std::to_string(n) +
        "! orderings; use GreedyOrdering for wide environments");
  }
  std::vector<size_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  std::vector<Ordering> out;
  do {
    out.push_back(*Ordering::FromPermutation(perm));
  } while (std::next_permutation(perm.begin(), perm.end()));
  return out;
}

StatusOr<Ordering> OptimalOrderingByEstimate(const Profile& profile) {
  std::vector<uint64_t> active = ActiveDomainSizes(profile);
  StatusOr<std::vector<Ordering>> all = AllOrderings(active.size());
  if (!all.ok()) return all.status();
  const Ordering* best = nullptr;
  uint64_t best_cost = 0;
  for (const Ordering& o : *all) {
    std::vector<uint64_t> sizes(active.size());
    for (size_t level = 0; level < o.size(); ++level) {
      sizes[level] = active[o.param_at_level(level)];
    }
    uint64_t cost = MaxCellEstimate(sizes);
    if (best == nullptr || cost < best_cost) {
      best = &o;
      best_cost = cost;
    }
  }
  return *best;
}

}  // namespace ctxpref
