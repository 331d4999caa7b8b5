#include "workload/user_sim.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "context/resilient_source.h"
#include "preference/contextual_query.h"
#include "preference/profile_tree.h"
#include "preference/resolution.h"
#include "preference/sequential_store.h"
#include "workload/query_generator.h"

namespace ctxpref::workload {

namespace {

constexpr size_t kLocationParam = 0;
constexpr size_t kTemperatureParam = 1;
constexpr size_t kCompanionParam = 2;

double Clamp01(double v) { return std::min(1.0, std::max(0.0, v)); }

/// Scores are quantized to the 0.05 grid a preference UI would offer.
double Round05(double v) { return std::round(Clamp01(v) * 20.0) / 20.0; }

size_t IndexOfOrDie(const std::vector<std::string>& pool,
                    const std::string& v) {
  for (size_t i = 0; i < pool.size(); ++i) {
    if (pool[i] == v) return i;
  }
  return pool.size();  // Unknown: callers treat as "no affinity".
}

}  // namespace

GroundTruth::GroundTruth(const ContextEnvironment& env, uint64_t seed) {
  Rng rng(seed);
  const size_t num_types = PoiTypes().size();
  const size_t num_companions = Companions().size();

  type_affinity_.assign(num_types, std::vector<double>(num_companions));
  for (size_t t = 0; t < num_types; ++t) {
    // Each type has a base appeal plus per-companion variation.
    const double base = 0.2 + 0.6 * rng.NextDouble();
    for (size_t c = 0; c < num_companions; ++c) {
      type_affinity_[t][c] = Clamp01(base + 0.35 * (rng.NextDouble() - 0.5));
    }
  }

  // Open-air appeal rises with temperature; indoor falls. Conditions
  // are ordered freezing(0) .. hot(4).
  for (size_t cond = 0; cond < 5; ++cond) {
    const double warmth = static_cast<double>(cond) / 4.0;
    openair_weather_[1][cond] =
        Clamp01(0.15 + 0.7 * warmth + 0.1 * (rng.NextDouble() - 0.5));
    openair_weather_[0][cond] =
        Clamp01(0.85 - 0.6 * warmth + 0.1 * (rng.NextDouble() - 0.5));
  }

  const size_t num_cities =
      env.parameter(kLocationParam).hierarchy().level_size(1);
  city_affinity_.resize(num_cities);
  for (double& a : city_affinity_) a = 0.4 + 0.6 * rng.NextDouble();
}

double GroundTruth::MeanTypeAffinity() const {
  double sum = 0;
  size_t n = 0;
  for (const auto& row : type_affinity_) {
    for (double a : row) {
      sum += a;
      ++n;
    }
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.5;
}

double GroundTruth::Score(const ContextEnvironment& env,
                          const db::Relation& relation, db::RowId row,
                          const ContextState& state) const {
  const db::Tuple& tuple = relation.row(row);
  const std::string& type = tuple[2].AsString();
  const std::string& region = tuple[3].AsString();
  const bool open_air = tuple[4].AsBool();

  // ---- type × companion, marginalizing non-detailed companions ----
  const size_t type_idx = IndexOfOrDie(PoiTypes(), type);
  double type_factor = 0.5;
  if (type_idx < type_affinity_.size()) {
    const ValueRef comp = state.value(kCompanionParam);
    if (comp.level == 0) {
      type_factor = type_affinity_[type_idx][comp.id];
    } else {
      double sum = 0;
      for (double a : type_affinity_[type_idx]) sum += a;
      type_factor = sum / static_cast<double>(type_affinity_[type_idx].size());
    }
  }

  // ---- open-air × weather, marginalizing via detailed descendants ----
  const Hierarchy& weather = env.parameter(kTemperatureParam).hierarchy();
  const ValueRef cond = state.value(kTemperatureParam);
  double weather_factor;
  if (cond.level == 0) {
    weather_factor = openair_weather_[open_air ? 1 : 0][cond.id];
  } else {
    double sum = 0;
    std::vector<ValueRef> conds = weather.Desc(cond, 0);
    for (ValueRef c : conds) sum += openair_weather_[open_air ? 1 : 0][c.id];
    weather_factor = sum / static_cast<double>(conds.size());
  }

  // ---- location: city affinity + coverage proximity ----
  const Hierarchy& loc = env.parameter(kLocationParam).hierarchy();
  double loc_factor = 0.5;
  StatusOr<ValueRef> region_ref = loc.Find(0, region);
  if (region_ref.ok()) {
    const size_t city = loc.Anc(*region_ref, 1).id;
    const double aff =
        city < city_affinity_.size() ? city_affinity_[city] : 0.5;
    const ValueRef q = state.value(kLocationParam);
    const bool nearby = loc.IsAncestorOrSelf(q, *region_ref) ||
                        loc.IsAncestorOrSelf(*region_ref, q);
    loc_factor = 0.5 * aff + 0.5 * (nearby ? 1.0 : 0.35);
  }

  return Clamp01(0.55 * type_factor + 0.35 * weather_factor +
                 0.1 * loc_factor);
}

namespace {

/// Inserts a ground-truth-aligned preference; on conflict rescores the
/// conflicting preference instead (modeling a user correcting the
/// default profile). Returns true if the profile changed.
StatusOr<bool> InsertOrCorrect(Profile& profile, CompositeDescriptor cod,
                               AttributeClause clause, double score) {
  StatusOr<ContextualPreference> pref =
      ContextualPreference::Create(std::move(cod), clause, score);
  if (!pref.ok()) return pref.status();
  Status st = profile.Insert(std::move(*pref));
  if (st.ok()) return true;
  if (st.IsAlreadyExists()) return false;
  if (!st.IsConflict()) return st;
  // Find a preference with the same clause and rescore it.
  for (size_t i = 0; i < profile.size(); ++i) {
    if (profile.preference(i).clause() == clause &&
        profile.preference(i).score() != score) {
      Status up = profile.UpdateScore(i, score);
      if (up.ok()) return true;
      return false;
    }
  }
  return false;
}

struct EditStats {
  int updates = 0;
};

/// What a user would actually type as the interest score of a
/// single-factor preference: the ground-truth *overall* interest with
/// the unknown factors at their marginal means (weights mirror
/// GroundTruth::Score: 0.55 type + 0.35 weather + 0.1 location).
double CalibratedTypeScore(const GroundTruth& gt, size_t type_idx,
                           double companion_marginal_affinity) {
  (void)gt;
  (void)type_idx;
  return 0.55 * companion_marginal_affinity + 0.35 * 0.5 + 0.1 * 0.7;
}

double CalibratedOpenAirScore(const GroundTruth& gt, double oa_affinity) {
  return 0.35 * oa_affinity + 0.55 * gt.MeanTypeAffinity() + 0.1 * 0.7;
}

/// Simulates the user editing `profile` toward `gt` with `num_edits`
/// attempted modifications.
Status EditProfile(Profile& profile, const GroundTruth& gt, size_t num_edits,
                   Rng& rng, EditStats* stats) {
  const ContextEnvironment& env = profile.env();
  const Hierarchy& weather = env.parameter(kTemperatureParam).hierarchy();
  const Hierarchy& companions = env.parameter(kCompanionParam).hierarchy();

  for (size_t e = 0; e < num_edits; ++e) {
    const double roll = rng.NextDouble();
    if (roll < 0.6) {
      // Insert a GT-aligned preference.
      if (rng.Bernoulli(2.0 / 3.0)) {
        // companion -> type
        const size_t c = rng.Uniform(Companions().size());
        const size_t t = rng.Uniform(PoiTypes().size());
        StatusOr<ParameterDescriptor> pd = ParameterDescriptor::Equals(
            env, kCompanionParam, ValueRef{0, static_cast<ValueId>(c)});
        if (!pd.ok()) return pd.status();
        std::vector<ParameterDescriptor> parts;
        parts.push_back(std::move(*pd));
        StatusOr<CompositeDescriptor> cod =
            CompositeDescriptor::Create(env, std::move(parts));
        if (!cod.ok()) return cod.status();
        StatusOr<bool> changed = InsertOrCorrect(
            profile, std::move(*cod),
            AttributeClause{"type", db::CompareOp::kEq,
                            db::Value(PoiTypes()[t])},
            Round05(CalibratedTypeScore(gt, t, gt.TypeAffinity(t, c))));
        if (!changed.ok()) return changed.status();
        if (*changed) ++stats->updates;
      } else {
        // weather -> open_air, at the Conditions or Characterization level.
        const bool open_air = rng.Bernoulli(0.5);
        ValueRef w;
        double ideal;
        if (rng.Bernoulli(0.6)) {
          w = ValueRef{0, static_cast<ValueId>(rng.Uniform(5))};
          ideal = gt.OpenAirAffinity(open_air, w.id);
        } else {
          w = ValueRef{1, static_cast<ValueId>(rng.Uniform(
                              weather.level_size(1)))};
          double sum = 0;
          std::vector<ValueRef> conds = weather.Desc(w, 0);
          for (ValueRef cd : conds) sum += gt.OpenAirAffinity(open_air, cd.id);
          ideal = sum / static_cast<double>(conds.size());
        }
        StatusOr<ParameterDescriptor> pd =
            ParameterDescriptor::Equals(env, kTemperatureParam, w);
        if (!pd.ok()) return pd.status();
        std::vector<ParameterDescriptor> parts;
        parts.push_back(std::move(*pd));
        StatusOr<CompositeDescriptor> cod =
            CompositeDescriptor::Create(env, std::move(parts));
        if (!cod.ok()) return cod.status();
        StatusOr<bool> changed = InsertOrCorrect(
            profile, std::move(*cod),
            AttributeClause{"open_air", db::CompareOp::kEq,
                            db::Value(open_air)},
            Round05(CalibratedOpenAirScore(gt, ideal)));
        if (!changed.ok()) return changed.status();
        if (*changed) ++stats->updates;
      }
    } else if (roll < 0.85 && !profile.empty()) {
      // Update: rescore a random preference toward ground truth.
      const size_t i = rng.Uniform(profile.size());
      const ContextualPreference& pref = profile.preference(i);
      double ideal = -1.0;
      if (pref.clause().attribute == "type") {
        const size_t t = IndexOfOrDie(PoiTypes(), pref.clause().value.AsString());
        if (t < PoiTypes().size()) {
          // Marginal over companions if no companion condition; there is
          // no cheap way to read the descriptor's companion here, so use
          // the first state's companion component.
          std::vector<ContextState> states = pref.States(env);
          const ValueRef comp = states.front().value(kCompanionParam);
          double affinity;
          if (comp.level == 0) {
            affinity = gt.TypeAffinity(t, comp.id);
          } else {
            double sum = 0;
            for (size_t c = 0; c < Companions().size(); ++c) {
              sum += gt.TypeAffinity(t, c);
            }
            affinity = sum / static_cast<double>(Companions().size());
          }
          ideal = CalibratedTypeScore(gt, t, affinity);
        }
      } else if (pref.clause().attribute == "open_air") {
        const bool open_air = pref.clause().value.AsBool();
        std::vector<ContextState> states = pref.States(env);
        const ValueRef w = states.front().value(kTemperatureParam);
        double sum = 0;
        std::vector<ValueRef> conds = weather.Desc(w, 0);
        for (ValueRef cd : conds) sum += gt.OpenAirAffinity(open_air, cd.id);
        ideal = CalibratedOpenAirScore(
            gt, sum / static_cast<double>(conds.size()));
      }
      if (ideal >= 0.0 && Round05(ideal) != pref.score()) {
        Status st = profile.UpdateScore(i, Round05(ideal));
        if (st.ok()) ++stats->updates;
      }
    } else if (!profile.empty()) {
      // Delete a preference the user disagrees with (score far from
      // anything GT would assign — proxy: extreme scores on unknown
      // clauses or random dissatisfaction).
      const size_t i = rng.Uniform(profile.size());
      if (rng.Bernoulli(0.5)) {
        Status st = profile.Remove(i);
        if (st.ok()) ++stats->updates;
      }
    }
  }
  (void)companions;
  return Status::OK();
}

/// Top-k prefix of `scored` (already sorted descending), extended
/// through ties at the k-th score — the paper's top-20 convention.
template <typename GetScore>
size_t TieExtendedPrefix(size_t k, size_t n, GetScore score) {
  if (n <= k) return n;
  size_t end = k;
  while (end < n && score(end) == score(k - 1)) ++end;
  return end;
}

/// Precision of the system's top-k under `kind` for one query state.
///
/// Protocol (paper §5.1): users were asked to rank *the results of
/// each contextual query*; we report the percentage of the system's
/// top-20 that also appears in the user's top-20. Accordingly the
/// ground truth re-ranks the query's result pool (every tuple any
/// applicable preference scored), not the whole database.
///
/// `query` is what the *system* sees (possibly a degraded sensor
/// acquisition); `truth` is the context the user actually stands in —
/// their ranking is always relative to the real world, which is how
/// degraded sensing costs precision. With perfect sensing both are the
/// same state.
/// Returns negative if the system answer is empty (sample skipped).
StatusOr<double> QueryPrecision(const GroundTruth& gt,
                                const ContextEnvironment& env,
                                const db::Relation& relation,
                                const TreeResolver& resolver,
                                const ContextState& query,
                                const ContextState& truth, DistanceKind kind,
                                size_t k) {
  StatusOr<CompositeDescriptor> cod = CompositeDescriptor::ForState(env, query);
  if (!cod.ok()) return cod.status();
  ContextualQuery cq;
  cq.context = ExtendedDescriptor::FromComposite(std::move(*cod));
  QueryOptions options;
  options.resolution.distance = kind;
  options.top_k = 0;  // Full pool; top-20 sliced below.
  // Tuples matched by several applicable clauses (e.g. a type clause
  // and an open-air clause) combine by averaging — the "appropriate
  // combining function" the paper posits (§3.2), and the one that lets
  // multi-factor preferences jointly order the results.
  options.combine = db::CombinePolicy::kAvg;
  StatusOr<QueryResult> result = RankCS(relation, cq, resolver, options);
  if (!result.ok()) return result.status();
  const std::vector<db::ScoredTuple>& pool = result->tuples;
  if (pool.empty()) return -1.0;

  // System top-k. The pool is sorted by descending score; the cut is
  // at exactly k (the system presents a 20-item page), while the
  // user's acceptance set below is tie-extended per the paper's rule.
  const size_t sys_end = std::min(k, pool.size());

  // The simulated user re-ranks the same pool by ground truth. Human
  // rankings are indifferent below coarse score differences, so the
  // user's scores are quantized to a 0.1 grid — which also produces
  // the ties the paper's top-20 rule talks about.
  std::vector<std::pair<double, db::RowId>> user_ranked;
  user_ranked.reserve(pool.size());
  for (const db::ScoredTuple& t : pool) {
    const double s = gt.Score(env, relation, t.row_id, truth);
    user_ranked.emplace_back(std::round(s * 10.0) / 10.0, t.row_id);
  }
  std::sort(user_ranked.begin(), user_ranked.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  const size_t user_end = TieExtendedPrefix(
      k, user_ranked.size(), [&](size_t i) { return user_ranked[i].first; });

  std::unordered_set<db::RowId> user_top;
  for (size_t i = 0; i < user_end; ++i) user_top.insert(user_ranked[i].second);
  size_t hit = 0;
  for (size_t i = 0; i < sys_end; ++i) {
    if (user_top.contains(pool[i].row_id)) ++hit;
  }
  return 100.0 * static_cast<double>(hit) / static_cast<double>(sys_end);
}

}  // namespace

StatusOr<std::vector<UserStudyRow>> RunUserStudy(
    const UserStudyConfig& config) {
  StatusOr<PoiDatabase> poi = MakePoiDatabase(config.num_pois, config.seed);
  if (!poi.ok()) return poi.status();
  const ContextEnvironment& env = *poi->env;

  std::vector<UserStudyRow> rows;
  Rng master(config.seed);

  for (size_t u = 0; u < config.num_users; ++u) {
    UserStudyRow row;
    row.user_id = static_cast<int>(u + 1);
    row.age = static_cast<AgeGroup>(master.Uniform(3));
    row.sex = static_cast<Sex>(master.Uniform(2));
    row.taste = static_cast<Taste>(master.Uniform(2));

    const uint64_t user_seed = master.Next();
    Rng rng(user_seed);
    GroundTruth gt(env, user_seed);

    StatusOr<Profile> profile =
        MakeDefaultProfile(poi->env, row.age, row.sex, row.taste);
    if (!profile.ok()) return profile.status();

    // Diligence drives how many edits this user performs (paper: 12-38).
    const double diligence = rng.NextDouble();
    const size_t num_edits = 12 + static_cast<size_t>(diligence * 28.0);
    EditStats stats;
    CTXPREF_RETURN_IF_ERROR(
        EditProfile(*profile, gt, num_edits, rng, &stats));
    row.num_updates = stats.updates;
    // Modeled wall-clock: onboarding + per-edit cost + noise (minutes).
    row.update_minutes = std::round(8.0 + 0.9 * static_cast<double>(num_edits) +
                                    4.0 * rng.NextDouble());

    StatusOr<ProfileTree> tree = ProfileTree::Build(*profile);
    if (!tree.ok()) return tree.status();
    TreeResolver resolver(&*tree);
    SequentialStore store = SequentialStore::Build(*profile);

    // ---- Sensed-context rig (engaged only under dropout) ----
    // The system does not get the query state for free: each parameter
    // is read through a ResilientSource wrapping a flaky sensor that
    // tracks the user's true context. Failed reads retry, then serve
    // the previous query's value (stale), lifting it toward `all` as
    // it ages on the fake clock.
    util::FakeClock clock;
    CurrentContext sensed(poi->env);
    std::vector<NoisySensorSource*> sensors;
    if (config.sensor_dropout > 0.0) {
      SourcePolicy policy;
      policy.max_attempts = 2;
      policy.backoff_initial_micros = 1'000;
      policy.failure_threshold = 8;
      policy.open_cooldown_micros = 3'000'000;
      policy.stale_ttl_micros = 2'000'000;
      policy.lift_window_micros = 2'000'000;
      for (size_t pi = 0; pi < env.size(); ++pi) {
        auto sensor = std::make_unique<NoisySensorSource>(
            env, pi, env.parameter(pi).hierarchy().AllValue(),
            /*coarseness=*/0.0, config.sensor_dropout,
            user_seed ^ (0x9e3779b97f4a7c15ull * (pi + 1)));
        sensors.push_back(sensor.get());
        CTXPREF_RETURN_IF_ERROR(sensed.AddSource(
            std::make_unique<ResilientSource>(env, std::move(sensor), policy,
                                              &clock, user_seed + pi)));
      }
    }
    uint64_t degraded_params = 0;
    uint64_t sensed_queries = 0;
    // Acquires the system's view of `truth`: points the sensors at it,
    // lets a second of fake time pass, and snapshots through the rig.
    auto Sense = [&](const ContextState& truth) {
      if (sensors.empty()) return truth;
      for (size_t i = 0; i < sensors.size(); ++i) {
        sensors[i]->set_true_value(truth.value(i));
      }
      clock.Advance(1'000'000);
      SnapshotReport report = sensed.SnapshotWithReport();
      degraded_params += report.degraded_count();
      ++sensed_queries;
      return report.state;
    };

    // ---- Sample queries per class and measure precision ----
    // Class 0: exact match — queries drawn from stored states.
    // Class 1: exactly one covering state (and no exact match).
    // Class 2: several covering states, measured under both distances.
    double sums[4] = {0, 0, 0, 0};
    size_t counts[4] = {0, 0, 0, 0};

    // Exact class.
    for (size_t attempts = 0;
         attempts < 2000 && counts[0] < config.queries_per_class;
         ++attempts) {
      ContextState q = workload::ExactQuery(*profile, rng);
      ContextState sq = Sense(q);
      StatusOr<double> pct =
          QueryPrecision(gt, env, poi->relation, resolver, sq, q,
                         DistanceKind::kHierarchy, config.top_k);
      if (!pct.ok()) return pct.status();
      if (*pct < 0.0) continue;
      sums[0] += *pct;
      ++counts[0];
    }

    // Cover classes, from random near-detailed queries.
    for (size_t attempts = 0;
         attempts < 8000 && (counts[1] < config.queries_per_class ||
                             counts[2] < config.queries_per_class);
         ++attempts) {
      ContextState q = workload::RandomQuery(env, rng, 0.3);
      if (!store.SearchExact(q).empty()) continue;  // Exact class.
      const size_t covers = store.SearchCovering(q).size();
      if (covers == 0) continue;
      const size_t cls = covers == 1 ? 1 : 2;
      if (counts[cls] >= config.queries_per_class) continue;

      ContextState sq = Sense(q);
      StatusOr<double> hier =
          QueryPrecision(gt, env, poi->relation, resolver, sq, q,
                         DistanceKind::kHierarchy, config.top_k);
      if (!hier.ok()) return hier.status();
      if (*hier < 0.0) continue;
      if (cls == 1) {
        sums[1] += *hier;
        ++counts[1];
      } else {
        StatusOr<double> jacc =
            QueryPrecision(gt, env, poi->relation, resolver, sq, q,
                           DistanceKind::kJaccard, config.top_k);
        if (!jacc.ok()) return jacc.status();
        if (*jacc < 0.0) continue;
        sums[2] += *hier;
        sums[3] += *jacc;
        ++counts[2];
        ++counts[3];
      }
    }
    row.exact_pct = counts[0] > 0 ? sums[0] / counts[0] : -1.0;
    row.one_cover_pct = counts[1] > 0 ? sums[1] / counts[1] : -1.0;
    row.multi_cover_hierarchy_pct = counts[2] > 0 ? sums[2] / counts[2] : -1.0;
    row.multi_cover_jaccard_pct = counts[3] > 0 ? sums[3] / counts[3] : -1.0;
    row.degraded_param_pct =
        sensed_queries > 0
            ? 100.0 * static_cast<double>(degraded_params) /
                  static_cast<double>(sensed_queries * env.size())
            : 0.0;
    rows.push_back(row);
  }
  return rows;
}

}  // namespace ctxpref::workload
