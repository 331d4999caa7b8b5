// Availability study for resilient context acquisition: how much
// answer quality survives flaky sensors?
//
// A fixed battery of query contexts is ranked twice — once under the
// true context, once under the context the system actually *acquired*
// through a ResilientSource rig whose backends drop out (NotFound) or
// stall past the read deadline at a swept rate (0%..50%). We report,
// per failure mode and rate:
//   - rank agreement: top-10 overlap between the degraded answer and
//     the true-context answer,
//   - mean context level / specificity: how coarse the acquired
//     states were (level 0 = detailed, all_level = `all`),
//   - the provenance mix (fresh / retried / stale / lifted / absent).
//
// Fully deterministic: FakeClock + seeded rigs; rerunning reproduces
// the committed BENCH_availability.json byte for byte.
//
//   $ ./bench_availability [out.json] [--scenario=FILE]
//
// --scenario=FILE seeds the shared knobs (queries <- ops, top_k,
// seed, pois) from a scenario config (docs/scenarios.md); its
// sensor_dropout, when nonzero, is added as an extra sweep rate.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "context/parser.h"
#include "context/resilient_source.h"
#include "harness/scenario_config.h"
#include "preference/contextual_query.h"
#include "preference/profile_tree.h"
#include "util/random.h"
#include "workload/default_profiles.h"
#include "workload/poi_dataset.h"
#include "workload/query_generator.h"

using namespace ctxpref;

namespace {

// Defaults reproduce the committed BENCH_availability.json;
// --scenario=FILE overrides them from a scenario config.
size_t g_queries = 80;
size_t g_top_k = 10;
uint64_t g_seed = 2026;
size_t g_pois = 150;

StatusOr<CompositeDescriptor> DescriptorForState(const ContextEnvironment& env,
                                                 const ContextState& state) {
  std::vector<ParameterDescriptor> parts;
  for (size_t i = 0; i < env.size(); ++i) {
    if (state.value(i) == env.parameter(i).hierarchy().AllValue()) continue;
    StatusOr<ParameterDescriptor> pd =
        ParameterDescriptor::Equals(env, i, state.value(i));
    if (!pd.ok()) return pd.status();
    parts.push_back(std::move(*pd));
  }
  return CompositeDescriptor::Create(env, std::move(parts));
}

/// Top-k row ids for `state`, empty set if nothing ranks.
StatusOr<std::unordered_set<db::RowId>> TopK(const db::Relation& relation,
                                             const TreeResolver& resolver,
                                             const ContextEnvironment& env,
                                             const ContextState& state) {
  StatusOr<CompositeDescriptor> cod = DescriptorForState(env, state);
  if (!cod.ok()) return cod.status();
  ContextualQuery cq;
  cq.context = ExtendedDescriptor::FromComposite(std::move(*cod));
  QueryOptions options;
  options.top_k = 0;
  options.combine = db::CombinePolicy::kAvg;
  StatusOr<QueryResult> result = RankCS(relation, cq, resolver, options);
  if (!result.ok()) return result.status();
  std::unordered_set<db::RowId> top;
  for (size_t i = 0; i < result->tuples.size() && i < g_top_k; ++i) {
    top.insert(result->tuples[i].row_id);
  }
  return top;
}

struct SweepPoint {
  std::string mode;
  double rate = 0.0;
  double rank_agreement = 0.0;   // Mean top-k overlap vs true context.
  double mean_context_level = 0.0;
  double mean_specificity = 0.0; // 1 = fully detailed, 0 = all `all`.
  double degraded_param_pct = 0.0;
  AcquisitionStats stats;
};

/// Runs one (mode, rate) cell: every query context is acquired through
/// a fresh rig whose FaultInjectingSources fail each backend attempt
/// independently with probability `rate` — by dropping out (mode
/// "dropout") or by stalling past the read deadline (mode "latency").
StatusOr<SweepPoint> RunCell(
    const workload::PoiDatabase& poi, const TreeResolver& resolver,
    const std::vector<ContextState>& queries,
    const std::vector<std::unordered_set<db::RowId>>& truth_top,
    const std::string& mode, double rate) {
  const ContextEnvironment& env = *poi.env;
  util::FakeClock clock;
  SourcePolicy policy;
  policy.max_attempts = 2;
  policy.failure_threshold = 6;
  policy.open_cooldown_micros = 3'000'000;
  policy.stale_ttl_micros = 2'000'000;
  policy.lift_window_micros = 2'000'000;

  CurrentContext current(poi.env);
  std::vector<FaultInjectingSource*> faults;
  for (size_t pi = 0; pi < env.size(); ++pi) {
    auto fault = std::make_unique<FaultInjectingSource>(
        pi, env.parameter(pi).hierarchy().AllValue(), &clock);
    faults.push_back(fault.get());
    Status st = current.AddSource(std::make_unique<ResilientSource>(
        env, std::move(fault), policy, &clock, g_seed ^ (1000 * pi + 7)));
    if (!st.ok()) return st;
  }

  Rng chaos(g_seed + static_cast<uint64_t>(rate * 1000) +
            (mode == "latency" ? 500'000 : 0));
  SweepPoint point;
  point.mode = mode;
  point.rate = rate;
  double agreement_sum = 0.0;
  size_t scored = 0;
  double level_sum = 0.0, spec_sum = 0.0;
  uint64_t degraded = 0;

  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const ContextState& truth = queries[qi];
    // Script the next logical read: push only the *failing prefix*
    // (each attempt fails independently at `rate`); the exhausted
    // script then succeeds with the configured true value. Pushing
    // success steps too would leave leftovers that lag the context.
    for (size_t pi = 0; pi < faults.size(); ++pi) {
      faults[pi]->set_value(truth.value(pi));
      uint32_t fails = 0;
      while (fails < policy.max_attempts && chaos.NextDouble() < rate) {
        ++fails;
      }
      for (uint32_t a = 0; a < fails; ++a) {
        if (mode == "latency") {
          faults[pi]->PushLatencyValue(2 * policy.read_deadline_micros,
                                       truth.value(pi));
        } else {
          faults[pi]->PushNotFound();
        }
      }
    }
    clock.Advance(1'000'000);  // One second between queries.
    SnapshotReport report = current.SnapshotWithReport();
    degraded += report.degraded_count();

    for (size_t pi = 0; pi < env.size(); ++pi) {
      const LevelIndex all_level = env.parameter(pi).hierarchy().all_level();
      const LevelIndex level = report.state.value(pi).level;
      level_sum += level;
      spec_sum += all_level == 0
                      ? 1.0
                      : 1.0 - static_cast<double>(level) /
                                  static_cast<double>(all_level);
    }

    if (truth_top[qi].empty()) continue;  // No measurable true answer.
    StatusOr<std::unordered_set<db::RowId>> sys_top =
        TopK(poi.relation, resolver, env, report.state);
    if (!sys_top.ok()) return sys_top.status();
    size_t hits = 0;
    for (db::RowId r : *sys_top) {
      if (truth_top[qi].count(r) > 0) ++hits;
    }
    agreement_sum +=
        static_cast<double>(hits) / static_cast<double>(truth_top[qi].size());
    ++scored;
  }

  point.rank_agreement = scored > 0 ? agreement_sum / scored : 0.0;
  const double cells = static_cast<double>(queries.size() * env.size());
  point.mean_context_level = level_sum / cells;
  point.mean_specificity = spec_sum / cells;
  point.degraded_param_pct = 100.0 * static_cast<double>(degraded) / cells;
  point.stats = current.counters().Snapshot();
  return point;
}

void PrintPoint(const SweepPoint& p) {
  std::printf("%8s %5.0f%% %11.3f %11.2f %12.3f %10.1f%%\n", p.mode.c_str(),
              100 * p.rate, p.rank_agreement, p.mean_context_level,
              p.mean_specificity, p.degraded_param_pct);
}

void AppendJson(std::string& out, const SweepPoint& p, bool last) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "    {\"mode\": \"%s\", \"rate\": %.2f, \"rank_agreement\": %.4f, "
      "\"mean_context_level\": %.4f, \"mean_specificity\": %.4f, "
      "\"degraded_param_pct\": %.2f, \"provenance\": {\"fresh\": %llu, "
      "\"retried\": %llu, \"stale\": %llu, \"stale_lifted\": %llu, "
      "\"breaker_open\": %llu, \"absent\": %llu}}%s\n",
      p.mode.c_str(), p.rate, p.rank_agreement, p.mean_context_level,
      p.mean_specificity, p.degraded_param_pct,
      static_cast<unsigned long long>(p.stats.fresh),
      static_cast<unsigned long long>(p.stats.retried),
      static_cast<unsigned long long>(p.stats.stale),
      static_cast<unsigned long long>(p.stats.stale_lifted),
      static_cast<unsigned long long>(p.stats.breaker_open),
      static_cast<unsigned long long>(p.stats.absent), last ? "" : ",");
  out += buf;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_availability.json";
  double scenario_rate = -1.0;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--scenario=", 11) == 0) {
      StatusOr<harness::ScenarioConfig> cfg =
          harness::LoadScenarioConfig(arg + 11);
      if (!cfg.ok()) {
        std::fprintf(stderr, "--scenario: %s\n",
                     cfg.status().ToString().c_str());
        return 2;
      }
      g_queries = cfg->ops;
      g_top_k = cfg->top_k;
      g_seed = cfg->seed;
      g_pois = cfg->pois;
      scenario_rate = cfg->sensor_dropout;
    } else {
      out_path = arg;
    }
  }

  StatusOr<workload::PoiDatabase> poi =
      workload::MakePoiDatabase(g_pois, g_seed);
  if (!poi.ok()) {
    std::fprintf(stderr, "%s\n", poi.status().ToString().c_str());
    return 1;
  }
  const ContextEnvironment& env = *poi->env;

  // A default profile plus broad preferences, so both detailed and
  // coarse (degraded) query states have nonempty answers to compare.
  StatusOr<Profile> profile = workload::MakeDefaultProfile(
      poi->env, workload::AgeGroup::kUnder30, workload::Sex::kFemale,
      workload::Taste::kMainstream);
  if (!profile.ok()) {
    std::fprintf(stderr, "%s\n", profile.status().ToString().c_str());
    return 1;
  }
  auto add = [&](const char* cod_text, const char* attr, db::Value v,
                 double s) {
    StatusOr<CompositeDescriptor> c = ParseCompositeDescriptor(env, cod_text);
    StatusOr<ContextualPreference> pref = ContextualPreference::Create(
        std::move(*c), AttributeClause{attr, db::CompareOp::kEq, std::move(v)},
        s);
    Status st = profile->Insert(std::move(*pref));
    if (!st.ok() && !st.IsAlreadyExists() && !st.IsConflict()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
    }
  };
  add("temperature = good", "open_air", db::Value(true), 0.8);
  add("temperature = bad", "open_air", db::Value(false), 0.75);
  add("accompanying_people = friends", "type", db::Value("brewery"), 0.9);
  add("accompanying_people = family", "type", db::Value("zoo"), 0.85);
  add("location = Athens", "type", db::Value("museum"), 0.7);

  StatusOr<ProfileTree> tree = ProfileTree::Build(*profile);
  if (!tree.ok()) {
    std::fprintf(stderr, "%s\n", tree.status().ToString().c_str());
    return 1;
  }
  TreeResolver resolver(&*tree);

  const std::vector<ContextState> queries =
      workload::RandomQueryBatch(env, g_queries, g_seed + 1, 0.2);
  std::vector<std::unordered_set<db::RowId>> truth_top;
  truth_top.reserve(queries.size());
  for (const ContextState& q : queries) {
    StatusOr<std::unordered_set<db::RowId>> top =
        TopK(poi->relation, resolver, env, q);
    if (!top.ok()) {
      std::fprintf(stderr, "%s\n", top.status().ToString().c_str());
      return 1;
    }
    truth_top.push_back(std::move(*top));
  }

  std::printf("Availability sweep: %zu queries, top-%zu agreement vs true "
              "context\n\n",
              queries.size(), g_top_k);
  std::printf("%8s %6s %11s %11s %12s %11s\n", "mode", "rate", "agreement",
              "mean lvl", "specificity", "degraded");

  std::string json;
  json += "{\n";
  json += "  \"bench\": \"availability\",\n";
  json += "  \"config\": {\"queries\": " + std::to_string(g_queries) +
          ", \"top_k\": " + std::to_string(g_top_k) +
          ", \"seed\": " + std::to_string(g_seed) +
          ", \"max_attempts\": 2},\n";
  json += "  \"sweep\": [\n";

  std::vector<double> rates = {0.0, 0.05, 0.10, 0.20, 0.35, 0.50};
  if (scenario_rate > 0.0 &&
      std::find(rates.begin(), rates.end(), scenario_rate) == rates.end()) {
    rates.insert(std::upper_bound(rates.begin(), rates.end(), scenario_rate),
                 scenario_rate);
  }
  const char* modes[] = {"dropout", "latency"};
  size_t emitted = 0;
  const size_t total = 2 * rates.size();
  for (const char* mode : modes) {
    for (double rate : rates) {
      StatusOr<SweepPoint> point =
          RunCell(*poi, resolver, queries, truth_top, mode, rate);
      if (!point.ok()) {
        std::fprintf(stderr, "%s\n", point.status().ToString().c_str());
        return 1;
      }
      PrintPoint(*point);
      AppendJson(json, *point, ++emitted == total);
    }
  }
  json += "  ]\n}\n";

  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}
