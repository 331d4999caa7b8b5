// Reproduces Fig. 7 (paper §5.2): number of cells accessed during
// context resolution — the profile tree against the sequential scan.
//
//  * left:   real profile — average cell accesses per query for exact
//            and non-exact (cover) matches, tree vs. serial;
//  * center: synthetic profiles (domains 50/100/1000, hierarchy levels
//            2/3/3), exact match, uniform and zipf draws vs. serial;
//  * right:  the same for non-exact (cover) matches.
//
// 50 queries per point, mixed hierarchy levels (as in the paper).
// Expected shapes: tree exact ≈ height-many node visits, far below
// serial; non-exact costs more than exact (ancestor fan-out) but stays
// well below the serial full scan; serial grows linearly with profile
// size, the tree stays near-flat.

#include <cstdio>

#include "bench_metrics.h"
#include "preference/profile_tree.h"
#include "preference/resolution.h"
#include "preference/sequential_store.h"
#include "workload/profile_generator.h"
#include "workload/query_generator.h"

using namespace ctxpref;

namespace {

struct AccessStats {
  double tree_cells = 0;
  double serial_cells = 0;
};

/// Average cells touched per query over `queries` for tree vs. serial.
AccessStats Measure(const Profile& profile,
                    const std::vector<ContextState>& queries,
                    bool exact_only) {
  StatusOr<ProfileTree> tree = ProfileTree::Build(profile);
  SequentialStore store = SequentialStore::Build(profile);
  TreeResolver resolver(&*tree);
  ResolutionOptions options;
  options.exact_only = exact_only;

  AccessStats stats;
  for (const ContextState& q : queries) {
    AccessCounter tree_counter;
    AccessCounter serial_counter;
    if (exact_only) {
      tree->ExactLookup(q, &tree_counter);
      store.SearchExact(q, &serial_counter);
    } else {
      resolver.SearchCS(q, options, &tree_counter);
      store.SearchCovering(q, options, &serial_counter);
    }
    stats.tree_cells += static_cast<double>(tree_counter.cells());
    stats.serial_cells += static_cast<double>(serial_counter.cells());
  }
  stats.tree_cells /= static_cast<double>(queries.size());
  stats.serial_cells /= static_cast<double>(queries.size());
  return stats;
}

workload::SyntheticProfileSpec SyntheticSpec(size_t num_prefs, double zipf_a,
                                             uint64_t seed) {
  workload::SyntheticProfileSpec spec;
  spec.params = {
      {"c50", 50, 2, 8, zipf_a},     // 2 hierarchy levels.
      {"c100", 100, 3, 5, zipf_a},   // 3 levels.
      {"c1000", 1000, 3, 10, zipf_a},// 3 levels.
  };
  spec.num_preferences = num_prefs;
  spec.lift_probability = 0.3;
  spec.omit_probability = 0.05;
  spec.clause_pool = 400;
  spec.seed = seed;
  return spec;
}

}  // namespace

int main() {
  bench::PrintBenchContext();
  constexpr size_t kNumQueries = 50;

  // ---- Left: real profile ----
  {
    StatusOr<workload::SyntheticProfile> gen =
        workload::MakeRealLikeProfile(7);
    if (!gen.ok()) {
      std::fprintf(stderr, "%s\n", gen.status().ToString().c_str());
      return 1;
    }
    // Exact-match workload: queries drawn from stored states. Cover
    // workload: random mixed-level queries.
    std::vector<ContextState> exact_queries =
        workload::ExactQueryBatch(gen->profile, kNumQueries, 31);
    std::vector<ContextState> cover_queries =
        workload::RandomQueryBatch(*gen->env, kNumQueries, 32, 0.3);

    AccessStats exact = Measure(gen->profile, exact_queries, true);
    AccessStats cover = Measure(gen->profile, cover_queries, false);

    std::printf("Figure 7 (left): real profile (%zu preferences), average "
                "cells accessed over %zu queries\n\n",
                gen->profile.size(), kNumQueries);
    std::printf("%-24s %14s %14s\n", "match type", "profile tree", "serial");
    std::printf("%-24s %14.1f %14.1f\n", "exact match", exact.tree_cells,
                exact.serial_cells);
    std::printf("%-24s %14.1f %14.1f\n", "non-exact (cover)",
                cover.tree_cells, cover.serial_cells);
    std::printf("\n");
  }

  // ---- Center & right: synthetic profiles ----
  const size_t kPrefCounts[] = {500, 1000, 5000, 10000};
  for (bool exact : {true, false}) {
    std::printf("Figure 7 (%s): synthetic profiles — %s match, average "
                "cells accessed over %zu queries\n\n",
                exact ? "center" : "right", exact ? "exact" : "non-exact",
                kNumQueries);
    std::printf("%-18s", "#prefs");
    for (size_t n : kPrefCounts) std::printf(" %12zu", n);
    std::printf("\n");

    for (double zipf_a : {0.0, 1.5}) {
      std::vector<double> tree_row, serial_row;
      for (size_t n : kPrefCounts) {
        StatusOr<workload::SyntheticProfile> gen =
            GenerateSyntheticProfile(SyntheticSpec(n, zipf_a, 5000 + n));
        if (!gen.ok()) {
          std::fprintf(stderr, "%s\n", gen.status().ToString().c_str());
          return 1;
        }
        std::vector<ContextState> queries =
            exact ? workload::ExactQueryBatch(gen->profile, kNumQueries, 41)
                  : workload::RandomQueryBatch(*gen->env, kNumQueries, 42,
                                               0.3);
        AccessStats stats = Measure(gen->profile, queries, exact);
        tree_row.push_back(stats.tree_cells);
        serial_row.push_back(stats.serial_cells);
      }
      const char* dist = zipf_a == 0.0 ? "uniform" : "zipf(1.5)";
      std::printf("tree/%-13s", dist);
      for (double c : tree_row) std::printf(" %12.1f", c);
      std::printf("\nserial/%-11s", dist);
      for (double c : serial_row) std::printf(" %12.1f", c);
      std::printf("\n");
    }
    std::printf("\n");
  }
  std::printf("Expected shape: tree ≪ serial everywhere; serial grows "
              "linearly with profile size; non-exact tree search costs more "
              "than exact but stays far below the serial full scan.\n");
  return 0;
}
