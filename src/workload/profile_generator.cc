#include "workload/profile_generator.h"

#include <optional>

#include "workload/synthetic_hierarchy.h"

namespace ctxpref::workload {

namespace {

/// Draws one context value for parameter `p`: a detailed value from the
/// per-parameter distribution, possibly lifted to an upper level.
ValueRef DrawValue(const Hierarchy& h, const std::optional<ZipfDistribution>& zipf,
                   double lift_probability, Rng& rng) {
  ValueId detailed_id =
      zipf.has_value()
          ? static_cast<ValueId>(zipf->Sample(rng))
          : static_cast<ValueId>(rng.Uniform(h.level_size(0)));
  ValueRef v{0, detailed_id};
  if (h.num_levels() > 1 && rng.Bernoulli(lift_probability)) {
    // Lift to a uniformly random upper level (possibly ALL).
    const LevelIndex target = static_cast<LevelIndex>(
        1 + rng.Uniform(h.num_levels() - 1));
    v = h.Anc(v, target);
  }
  return v;
}

}  // namespace

StatusOr<SyntheticProfile> GenerateSyntheticProfile(
    const SyntheticProfileSpec& spec) {
  if (spec.params.empty()) {
    return Status::InvalidArgument("spec has no parameters");
  }
  // Build hierarchies and the environment.
  std::vector<ContextParameter> params;
  std::vector<std::optional<ZipfDistribution>> zipfs;
  for (const SyntheticParam& p : spec.params) {
    StatusOr<HierarchyPtr> h =
        MakeSyntheticHierarchy(p.name, p.detailed_size, p.num_levels, p.fan);
    if (!h.ok()) return h.status();
    params.emplace_back(p.name, std::move(*h));
    if (p.zipf_a > 0.0) {
      zipfs.emplace_back(ZipfDistribution(p.detailed_size, p.zipf_a));
    } else {
      zipfs.emplace_back(std::nullopt);
    }
  }
  StatusOr<EnvironmentPtr> env = ContextEnvironment::Create(std::move(params));
  if (!env.ok()) return env.status();

  Rng rng(spec.seed);
  Profile profile(*env);
  const size_t n = (*env)->size();
  size_t attempts = 0;
  const size_t max_attempts = spec.num_preferences * 50 + 1000;

  while (profile.size() < spec.num_preferences && attempts < max_attempts) {
    ++attempts;
    std::vector<ParameterDescriptor> parts;
    for (size_t i = 0; i < n; ++i) {
      if (rng.Bernoulli(spec.omit_probability)) continue;  // -> all
      const Hierarchy& h = (*env)->parameter(i).hierarchy();
      ValueRef v = DrawValue(h, zipfs[i], spec.lift_probability, rng);
      StatusOr<ParameterDescriptor> pd =
          ParameterDescriptor::Equals(**env, i, v);
      if (!pd.ok()) return pd.status();
      parts.push_back(std::move(*pd));
    }
    StatusOr<CompositeDescriptor> cod =
        CompositeDescriptor::Create(**env, std::move(parts));
    if (!cod.ok()) return cod.status();

    std::string value = "v";  // Not `"v" + ...`: GCC 12 -Wrestrict.
    value += std::to_string(rng.Uniform(spec.clause_pool));
    AttributeClause clause{"attr", db::CompareOp::kEq,
                           db::Value(std::move(value))};
    // Scores quantized to a 0.05 grid, as a user-facing UI would offer.
    const double score = static_cast<double>(rng.Uniform(21)) * 0.05;

    StatusOr<ContextualPreference> pref = ContextualPreference::Create(
        std::move(*cod), std::move(clause), score);
    if (!pref.ok()) return pref.status();

    Status st = profile.Insert(std::move(*pref));
    if (st.ok()) continue;
    if (st.IsConflict() || st.IsAlreadyExists()) continue;  // Redraw.
    return st;
  }
  if (profile.size() < spec.num_preferences) {
    return Status::Internal(
        "could not generate " + std::to_string(spec.num_preferences) +
        " conflict-free preferences after " + std::to_string(attempts) +
        " attempts; enlarge domains or clause pool");
  }
  return SyntheticProfile{*env, std::move(profile)};
}

StatusOr<SyntheticProfile> MakeRealLikeProfile(uint64_t seed) {
  SyntheticProfileSpec spec;
  // accompanying_people: 4 values, single level + ALL.
  spec.params.push_back(
      SyntheticParam{"accompanying_people", 4, 1, 2, /*zipf_a=*/0.0});
  // time: 17 values (e.g. hours-of-week buckets), 2 levels + ALL,
  // skewed toward popular outing times.
  spec.params.push_back(SyntheticParam{"time", 17, 2, 6, /*zipf_a=*/0.9});
  // location: 100 regions, 3 levels + ALL, skewed toward city centers.
  spec.params.push_back(SyntheticParam{"location", 100, 3, 6, /*zipf_a=*/1.2});
  spec.num_preferences = 522;
  spec.lift_probability = 0.3;
  spec.omit_probability = 0.05;
  spec.clause_pool = 150;
  spec.seed = seed;
  return GenerateSyntheticProfile(spec);
}

}  // namespace ctxpref::workload
