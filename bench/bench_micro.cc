// Micro-benchmarks (google-benchmark) for the core operations: tree
// construction, the sequential baseline's covering scan, distance
// evaluation, Rank_CS end-to-end, query-cache hits, cache hits vs
// misses of one whole query timed in one loop, an Eval-scan vs
// relation-index pair for Rank_CS's selections, and Rank_CS's clause
// merge. Exact lookup and Search_CS over both tree backends are
// `bench_resolution`'s. Not a paper figure — operational cost data for
// library users.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>

#include "bench_metrics.h"
#include "context/descriptor.h"
#include "context/distance.h"
#include "context/parser.h"
#include "context/resilient_source.h"
#include "db/predicate.h"
#include "db/relation.h"
#include "preference/contextual_query.h"
#include "preference/flat_profile_tree.h"
#include "preference/profile_tree.h"
#include "preference/query_cache.h"
#include "preference/resolution.h"
#include "preference/sequential_store.h"
#include "preference/threshold_merge.h"
#include "workload/default_profiles.h"
#include "workload/poi_dataset.h"
#include "workload/profile_generator.h"
#include "workload/query_generator.h"

namespace ctxpref {
namespace {

workload::SyntheticProfile MakeProfile(size_t num_prefs, double zipf_a) {
  workload::SyntheticProfileSpec spec;
  spec.params = {
      {"c50", 50, 2, 8, zipf_a},
      {"c100", 100, 3, 5, zipf_a},
      {"c1000", 1000, 3, 10, zipf_a},
  };
  spec.num_preferences = num_prefs;
  spec.seed = 9090;
  spec.clause_pool = 400;
  StatusOr<workload::SyntheticProfile> gen = GenerateSyntheticProfile(spec);
  if (!gen.ok()) {
    std::fprintf(stderr, "generator failed: %s\n",
                 gen.status().ToString().c_str());
    std::abort();
  }
  return std::move(*gen);
}

void BM_ProfileTreeBuild(benchmark::State& state) {
  workload::SyntheticProfile gen =
      MakeProfile(static_cast<size_t>(state.range(0)), 0.0);
  for (auto _ : state) {
    StatusOr<ProfileTree> tree = ProfileTree::Build(gen.profile);
    benchmark::DoNotOptimize(tree->CellCount());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ProfileTreeBuild)->Arg(500)->Arg(5000);

void BM_SearchCovering_Sequential(benchmark::State& state) {
  workload::SyntheticProfile gen =
      MakeProfile(static_cast<size_t>(state.range(0)), 0.0);
  SequentialStore store = SequentialStore::Build(gen.profile);
  std::vector<ContextState> queries =
      workload::RandomQueryBatch(*gen.env, 64, 2, 0.3);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        store.SearchCovering(queries[i++ % queries.size()]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SearchCovering_Sequential)->Arg(500)->Arg(5000);

void BM_StateDistance(benchmark::State& state) {
  workload::SyntheticProfile gen = MakeProfile(100, 0.0);
  std::vector<ContextState> queries =
      workload::RandomQueryBatch(*gen.env, 64, 3, 0.5);
  const DistanceKind kind = static_cast<DistanceKind>(state.range(0));
  size_t i = 0;
  for (auto _ : state) {
    const ContextState& a = queries[i % queries.size()];
    const ContextState& b = queries[(i + 7) % queries.size()];
    benchmark::DoNotOptimize(StateDistance(kind, *gen.env, a, b));
    ++i;
  }
}
BENCHMARK(BM_StateDistance)
    ->Arg(static_cast<int>(DistanceKind::kHierarchy))
    ->Arg(static_cast<int>(DistanceKind::kJaccard));

void BM_RankCS_EndToEnd(benchmark::State& state) {
  StatusOr<workload::PoiDatabase> poi = workload::MakePoiDatabase(200, 11);
  Profile profile(poi->env);
  // A handful of preferences at mixed levels.
  auto add = [&](const char* cod, const char* attr, db::Value v, double s) {
    StatusOr<CompositeDescriptor> c = ParseCompositeDescriptor(*poi->env, cod);
    StatusOr<ContextualPreference> pref = ContextualPreference::Create(
        std::move(*c), AttributeClause{attr, db::CompareOp::kEq, std::move(v)},
        s);
    Status st = profile.Insert(std::move(*pref));
    (void)st;
  };
  add("temperature = good", "open_air", db::Value(true), 0.8);
  add("accompanying_people = friends", "type", db::Value("brewery"), 0.9);
  add("location = Athens", "type", db::Value("museum"), 0.7);
  add("location = Plaka and temperature = warm", "name",
      db::Value("Acropolis"), 0.95);

  StatusOr<ProfileTree> tree = ProfileTree::Build(profile);
  TreeResolver resolver(&*tree);
  StatusOr<ExtendedDescriptor> ecod = ParseExtendedDescriptor(
      *poi->env,
      "location = Plaka and temperature = warm and "
      "accompanying_people = friends");
  ContextualQuery query;
  query.context = *ecod;
  QueryOptions options;
  options.top_k = 20;

  for (auto _ : state) {
    StatusOr<QueryResult> result =
        RankCS(poi->relation, query, resolver, options);
    benchmark::DoNotOptimize(result->tuples);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RankCS_EndToEnd);

void BM_QueryCacheHit(benchmark::State& state) {
  workload::SyntheticProfile gen = MakeProfile(500, 0.0);
  ContextQueryTree cache(128);
  std::vector<ContextState> queries =
      workload::RandomQueryBatch(*gen.env, 64, 4, 0.3);
  for (const ContextState& q : queries) {
    cache.Put(q, 1, {{1, 0.5}, {2, 0.4}});
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Lookup(queries[i++ % queries.size()], 1));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QueryCacheHit);

/// A 3-state exact query over `pois` POIs at top_k = 10 with a default
/// demographic profile: the same request answered uncached (Rank_CS
/// over the flat tree, a miss) and by `RankCS` with a `StateCache` whose
/// every state is cached (a hit).
struct ThreeStateQueryRig {
  explicit ThreeStateQueryRig(size_t pois) {
    StatusOr<workload::PoiDatabase> db = workload::MakePoiDatabase(pois, 11);
    StatusOr<Profile> profile = workload::MakeDefaultProfile(
        db->env, workload::AgeGroup::kUnder30, workload::Sex::kFemale,
        workload::Taste::kMainstream);
    if (!db.ok() || !profile.ok()) {
      std::fprintf(stderr, "rig setup failed\n");
      std::abort();
    }
    poi = std::make_unique<workload::PoiDatabase>(std::move(*db));
    StatusOr<ProfileTree> tree = ProfileTree::Build(*profile);
    flat = std::make_unique<FlatProfileTree>(FlatProfileTree::Build(*tree));
    const std::vector<std::vector<std::string>> states = {
        {"Plaka", "warm", "friends"},
        {"Kifisia", "hot", "family"},
        {"Monastiraki", "cold", "alone"},
    };
    for (const std::vector<std::string>& names : states) {
      StatusOr<ContextState> s = ContextState::FromNames(*poi->env, names);
      StatusOr<CompositeDescriptor> cod =
          CompositeDescriptor::ForState(*poi->env, *s);
      query.context.AddDisjunct(std::move(*cod));
    }
    options.top_k = 10;
  }

  std::unique_ptr<workload::PoiDatabase> poi;
  std::unique_ptr<FlatProfileTree> flat;
  ContextualQuery query;
  QueryOptions options;
};

/// Times misses and hits in one loop: each iteration runs a batch of
/// misses and a batch of hits back to back, in alternating order, so a
/// pair sees one phase of host load, which a ratio of two separate
/// runs' medians mixes. Counters: `miss_ns` and `hit_ns`, the median
/// per-query time of a batch, and `miss_per_hit`, the median over the
/// pairs of the pair's miss/hit ratio.
/// CI gates miss_per_hit >= 2: a cache hit must beat recomputing.
void BM_ThreeStateQuery_HitVsMiss(benchmark::State& state) {
  ThreeStateQueryRig rig(static_cast<size_t>(state.range(0)));
  FlatResolver resolver(rig.flat.get());
  ContextQueryTree cache;
  const std::string user = "u";
  const StateCache state_cache{&cache, &user, 1};
  constexpr int kBatch = 16;
  // Per-query ns of a batch, uncached when `cached` is null.
  auto batch_ns = [&](const StateCache* cached) {
    const auto start = std::chrono::steady_clock::now();
    for (int k = 0; k < kBatch; ++k) {
      StatusOr<QueryResult> result = RankCS(
          rig.poi->relation, rig.query, resolver, rig.options, nullptr, cached);
      benchmark::DoNotOptimize(result->tuples);
    }
    return std::chrono::duration<double, std::nano>(
               std::chrono::steady_clock::now() - start)
               .count() /
           kBatch;
  };
  (void)batch_ns(&state_cache);  // Warm every state; hit batches only hit.
  std::vector<double> miss;
  std::vector<double> hit;
  std::vector<double> ratio;
  for (auto _ : state) {
    const bool miss_first = miss.size() % 2 == 0;
    if (miss_first) miss.push_back(batch_ns(nullptr));
    hit.push_back(batch_ns(&state_cache));
    if (!miss_first) miss.push_back(batch_ns(nullptr));
    ratio.push_back(miss.back() / hit.back());
  }
  auto median = [](std::vector<double>& v) {
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
  };
  state.counters["miss_ns"] = median(miss);
  state.counters["hit_ns"] = median(hit);
  state.counters["miss_per_hit"] = median(ratio);
  state.counters["hit_ratio"] = static_cast<double>(cache.hits()) /
                                static_cast<double>(cache.Stats().lookups);
  state.SetItemsProcessed(state.iterations() * 2 * kBatch);
}
BENCHMARK(BM_ThreeStateQuery_HitVsMiss)->Arg(500);

/// Rank_CS's selections over `pois` POIs, `type = museum` and
/// `open_air = true`, answered two ways: a `Predicate::Eval` loop over
/// the rows (written here, the pre-index scan) and `Relation::Select`
/// (the relation's own posting lists). CI gates Eval/Relation >= 10x at
/// 20 000 POIs.
struct SelectRig {
  explicit SelectRig(size_t pois) {
    StatusOr<workload::PoiDatabase> db = workload::MakePoiDatabase(pois, 11);
    if (!db.ok()) {
      std::fprintf(stderr, "rig setup failed\n");
      std::abort();
    }
    poi = std::make_unique<workload::PoiDatabase>(std::move(*db));
    for (const auto& [column, value] :
         {std::pair{"type", db::Value("museum")},
          std::pair{"open_air", db::Value(true)}}) {
      StatusOr<db::Predicate> pred = db::Predicate::Create(
          poi->relation.schema(), column, db::CompareOp::kEq, value);
      if (!pred.ok()) {
        std::fprintf(stderr, "%s\n", pred.status().ToString().c_str());
        std::abort();
      }
      preds.push_back(std::move(*pred));
    }
  }

  std::unique_ptr<workload::PoiDatabase> poi;
  std::vector<db::Predicate> preds;
};

void BM_Select_EvalScan(benchmark::State& state) {
  SelectRig rig(static_cast<size_t>(state.range(0)));
  const db::Relation& relation = rig.poi->relation;
  for (auto _ : state) {
    for (const db::Predicate& pred : rig.preds) {
      std::vector<db::RowId> rows;
      for (db::RowId id = 0; id < relation.size(); ++id) {
        if (pred.Eval(relation.row(id))) rows.push_back(id);
      }
      benchmark::DoNotOptimize(rows);
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Select_EvalScan)->Arg(2000)->Arg(20000);

void BM_Select_Relation(benchmark::State& state) {
  SelectRig rig(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    for (const db::Predicate& pred : rig.preds) {
      std::vector<db::RowId> rows = rig.poi->relation.Select(pred);
      benchmark::DoNotOptimize(rows);
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Select_Relation)->Arg(2000)->Arg(20000);

/// Rank_CS's merge over `SelectRig`'s POIs: `type = museum` at 0.9 and
/// `open_air = true` twice at 0.5, through `ThresholdMerge` at top_k 10
/// and at 0 (every row) per iteration. The merge stage's own figure;
/// advisory, no gate.
void BM_ClauseMerge(benchmark::State& state) {
  SelectRig rig(static_cast<size_t>(state.range(0)));
  const db::Relation& relation = rig.poi->relation;
  const AttributeClause museum{"type", db::CompareOp::kEq,
                               db::Value("museum")};
  const AttributeClause open_air{"open_air", db::CompareOp::kEq,
                                 db::Value(true)};
  std::vector<ScoredSource> sources;
  for (const auto& [clause, score] :
       {std::pair{&museum, 0.9}, std::pair{&open_air, 0.5},
        std::pair{&open_air, 0.5}}) {
    StatusOr<ScoredSource> source =
        ScoredSource::Clause(relation, *clause, score);
    if (!source.ok()) {
      std::fprintf(stderr, "%s\n", source.status().ToString().c_str());
      std::abort();
    }
    sources.push_back(*source);
  }
  for (auto _ : state) {
    for (size_t top_k : {size_t{10}, size_t{0}}) {
      std::vector<db::ScoredTuple> out =
          ThresholdMerge(relation, sources, {}, top_k);
      benchmark::DoNotOptimize(out);
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ClauseMerge)->Arg(2000)->Arg(20000);

void BM_ContextSnapshot(benchmark::State& state) {
  StatusOr<workload::PoiDatabase> poi = workload::MakePoiDatabase(50, 17);
  // Resilient acquisition rig on a FakeClock: deterministic, no real
  // sleeps, and the injected failure every 16th backend read walks the
  // snapshot through retried/stale provenances, not just fresh.
  static util::FakeClock clock;
  auto fault = std::make_unique<FaultInjectingSource>(
      0, *poi->env->parameter(0).hierarchy().FindAnyLevel("Plaka"), &clock);
  FaultInjectingSource* fault_raw = fault.get();
  SourcePolicy policy;
  policy.backoff_initial_micros = 0;
  policy.backoff_jitter = 0.0;
  CurrentContext ctx(poi->env);
  Status st = ctx.AddSource(std::make_unique<ResilientSource>(
      *poi->env, std::move(fault), policy, &clock, /*seed=*/7));
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    std::abort();
  }
  st = ctx.AddSource(std::make_unique<StaticSource>(
      1, poi->env->parameter(1).hierarchy().AllValue()));
  (void)st;
  size_t i = 0;
  for (auto _ : state) {
    if (i++ % 16 == 0) fault_raw->PushNotFound();
    SnapshotReport report = ctx.SnapshotWithReport();
    benchmark::DoNotOptimize(report.state);
    clock.Advance(1000);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ContextSnapshot);

void BM_ProfileTextRoundTrip(benchmark::State& state) {
  workload::SyntheticProfile gen = MakeProfile(500, 0.0);
  std::string text = gen.profile.ToText();
  for (auto _ : state) {
    StatusOr<Profile> p = Profile::FromText(gen.env, text);
    benchmark::DoNotOptimize(p->size());
  }
  state.SetItemsProcessed(state.iterations() * 500);
}
BENCHMARK(BM_ProfileTextRoundTrip);

}  // namespace
}  // namespace ctxpref

// BENCHMARK_MAIN() expanded by hand so the metrics flags can be
// stripped before google-benchmark sees (and rejects) them.
int main(int argc, char** argv) {
  ctxpref::bench::MetricsFlags metrics =
      ctxpref::bench::ParseMetricsFlags(argc, argv);
  benchmark::Initialize(&argc, argv);
  for (const auto& [key, value] : ctxpref::bench::BenchContext()) {
    benchmark::AddCustomContext(key, value);
  }
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  ctxpref::bench::DumpMetrics(metrics);
  return 0;
}
