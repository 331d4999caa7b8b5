// Paired pointer-vs-flat resolution microbenches (google-benchmark):
// the same Search_CS / ResolveBest / exact-lookup work, once through
// the pointer `ProfileTree` and once through the arena-flattened
// `FlatProfileTree`, on the same synthetic profile and query batch.
// `scripts/compare_bench.py --speedup` gates the Flat/Pointer ratio
// against the ISSUE target (flat Search_CS at least 5x the pointer
// walk); `BENCH_resolution_baseline.json` pins absolute numbers for
// the advisory regression diff.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <vector>

#include "bench_metrics.h"
#include "preference/flat_profile_tree.h"
#include "preference/profile_tree.h"
#include "preference/resolution.h"
#include "workload/profile_generator.h"
#include "workload/query_generator.h"

namespace ctxpref {
namespace {

/// Same synthetic world as bench_micro so numbers line up across the
/// two binaries.
workload::SyntheticProfile MakeProfile(size_t num_prefs) {
  workload::SyntheticProfileSpec spec;
  spec.params = {
      {"c50", 50, 2, 8, 0.0},
      {"c100", 100, 3, 5, 0.0},
      {"c1000", 1000, 3, 10, 0.0},
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

/// One shared rig per profile size; rebuilt lazily so each bench pair
/// (pointer/flat, same Arg) sees identical trees and queries.
struct Rig {
  workload::SyntheticProfile gen;
  ProfileTree tree;
  FlatProfileTree flat;
  std::vector<ContextState> cover_queries;
  std::vector<ContextState> exact_queries;
};

Rig& RigFor(size_t num_prefs) {
  static std::map<size_t, std::unique_ptr<Rig>>* rigs =
      new std::map<size_t, std::unique_ptr<Rig>>();
  auto it = rigs->find(num_prefs);
  if (it == rigs->end()) {
    workload::SyntheticProfile gen = MakeProfile(num_prefs);
    StatusOr<ProfileTree> tree = ProfileTree::Build(gen.profile);
    if (!tree.ok()) {
      std::fprintf(stderr, "tree build failed: %s\n",
                   tree.status().ToString().c_str());
      std::abort();
    }
    FlatProfileTree flat = FlatProfileTree::Build(*tree);
    auto rig = std::make_unique<Rig>(
        Rig{std::move(gen), std::move(*tree), std::move(flat), {}, {}});
    rig->cover_queries =
        workload::RandomQueryBatch(*rig->gen.env, 64, 2, 0.3);
    rig->exact_queries = workload::ExactQueryBatch(rig->gen.profile, 64, 1);
    it = rigs->emplace(num_prefs, std::move(rig)).first;
  }
  return *it->second;
}

void BM_SearchCS_Pointer(benchmark::State& state) {
  Rig& rig = RigFor(static_cast<size_t>(state.range(0)));
  TreeResolver resolver(&rig.tree);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        resolver.SearchCS(rig.cover_queries[i++ % rig.cover_queries.size()]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SearchCS_Pointer)->Arg(500)->Arg(5000);

void BM_SearchCS_Flat(benchmark::State& state) {
  // The serving hot path: compact candidates into reused buffers, no
  // per-candidate materialization (ResolveBest materializes winners
  // only — measured separately below).
  Rig& rig = RigFor(static_cast<size_t>(state.range(0)));
  std::vector<FlatProfileTree::FlatCandidate> out;
  std::vector<uint32_t> path_keys;
  size_t i = 0;
  for (auto _ : state) {
    rig.flat.SearchCS(rig.cover_queries[i++ % rig.cover_queries.size()],
                      DistanceKind::kHierarchy, /*exact_only=*/false,
                      /*counter=*/nullptr, out, path_keys);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SearchCS_Flat)->Arg(500)->Arg(5000);

void BM_ResolveBest_Pointer(benchmark::State& state) {
  Rig& rig = RigFor(static_cast<size_t>(state.range(0)));
  TreeResolver resolver(&rig.tree);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(resolver.ResolveBest(
        rig.cover_queries[i++ % rig.cover_queries.size()]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ResolveBest_Pointer)->Arg(500)->Arg(5000);

void BM_ResolveBest_Flat(benchmark::State& state) {
  Rig& rig = RigFor(static_cast<size_t>(state.range(0)));
  FlatResolver resolver(&rig.flat);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(resolver.ResolveBest(
        rig.cover_queries[i++ % rig.cover_queries.size()]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ResolveBest_Flat)->Arg(500)->Arg(5000);

void BM_ExactLookup_Pointer(benchmark::State& state) {
  Rig& rig = RigFor(static_cast<size_t>(state.range(0)));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        rig.tree.ExactLookup(rig.exact_queries[i++ % rig.exact_queries.size()]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExactLookup_Pointer)->Arg(500)->Arg(5000);

void BM_ExactLookup_Flat(benchmark::State& state) {
  Rig& rig = RigFor(static_cast<size_t>(state.range(0)));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        rig.flat.ExactLookup(rig.exact_queries[i++ % rig.exact_queries.size()]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExactLookup_Flat)->Arg(500)->Arg(5000);

// The arena a publish builds: `FlatProfileTree::Build(profile)`, the
// route `BuildAndPublish` takes (an advisory row, not gated).

void BM_PublishBuild_Direct(benchmark::State& state) {
  Rig& rig = RigFor(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    FlatProfileTree flat = FlatProfileTree::Build(rig.gen.profile);
    benchmark::DoNotOptimize(flat.CellCount());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PublishBuild_Direct)->Arg(500)->Arg(5000);

// What a rescore publish (`ProfileStore::UpdateUser`) does to the
// profile and its arena: copy the published profile, one `UpdateScore`
// (refused when it would conflict, as a publish allows), then the arena
// built over the published copy and the previous arena, which keeps
// every body at its index and so shares the whole shape (an advisory
// row, not gated).

void BM_PublishRescore(benchmark::State& state) {
  Rig& rig = RigFor(static_cast<size_t>(state.range(0)));
  auto published = std::make_shared<const Profile>(rig.gen.profile);
  FlatProfileTree previous = FlatProfileTree::Build(published);
  size_t i = 0;
  for (auto _ : state) {
    Profile draft = *published;
    (void)draft.UpdateScore((i * 7919) % draft.size(),
                            static_cast<double>(i % 21) * 0.05);
    ++i;
    published = std::make_shared<const Profile>(std::move(draft));
    FlatProfileTree flat = FlatProfileTree::Build(published, &previous);
    benchmark::DoNotOptimize(flat.LeafEntryCount());
    previous = std::move(flat);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PublishRescore)->Arg(500)->Arg(5000);

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
