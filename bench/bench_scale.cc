// Scaling study beyond the paper's evaluation: the paper fixes three
// context parameters; here we grow (a) the number of parameters and
// (b) the hierarchy depth, and measure how tree size and resolution
// cost respond. This characterizes where the profile tree's advantage
// over the sequential scan widens or narrows.
//
// Expected shapes:
//  * exact-match tree cost grows ~linearly with the number of
//    parameters (one node per level), while serial cost grows with
//    #parameters × #preferences;
//  * cover-search fan-out grows with hierarchy depth (more ancestor
//    cells per level qualify), so deeper hierarchies narrow the gap —
//    but never close it at these scales.

#include <cstdio>

#include "bench_metrics.h"
#include "preference/profile_tree.h"
#include "preference/resolution.h"
#include "preference/sequential_store.h"
#include "workload/profile_generator.h"
#include "workload/query_generator.h"

using namespace ctxpref;

namespace {

struct Costs {
  size_t cells = 0;
  double tree_exact = 0, serial_exact = 0;
  double tree_cover = 0, serial_cover = 0;
};

StatusOr<Costs> Measure(const workload::SyntheticProfileSpec& spec) {
  StatusOr<workload::SyntheticProfile> gen = GenerateSyntheticProfile(spec);
  if (!gen.ok()) return gen.status();
  StatusOr<ProfileTree> tree = ProfileTree::Build(gen->profile);
  if (!tree.ok()) return tree.status();
  SequentialStore store = SequentialStore::Build(gen->profile);
  TreeResolver resolver(&*tree);

  Costs costs;
  costs.cells = tree->CellCount();
  constexpr size_t kQueries = 50;
  std::vector<ContextState> exact =
      workload::ExactQueryBatch(gen->profile, kQueries, 5);
  std::vector<ContextState> cover =
      workload::RandomQueryBatch(*gen->env, kQueries, 6, 0.3);
  for (size_t i = 0; i < kQueries; ++i) {
    AccessCounter te, se, tc, sc;
    tree->ExactLookup(exact[i], &te);
    store.SearchExact(exact[i], &se);
    resolver.SearchCS(cover[i], {}, &tc);
    store.SearchCovering(cover[i], {}, &sc);
    costs.tree_exact += static_cast<double>(te.cells());
    costs.serial_exact += static_cast<double>(se.cells());
    costs.tree_cover += static_cast<double>(tc.cells());
    costs.serial_cover += static_cast<double>(sc.cells());
  }
  costs.tree_exact /= kQueries;
  costs.serial_exact /= kQueries;
  costs.tree_cover /= kQueries;
  costs.serial_cover /= kQueries;
  return costs;
}

}  // namespace

int main() {
  bench::PrintBenchContext();
  std::printf("Scaling study (beyond the paper): 2000 preferences, "
              "50 queries per point\n\n");

  // ---- (a) Number of context parameters ----
  std::printf("(a) parameters swept 2..6 (domains of 30 values, "
              "2-level hierarchies)\n\n");
  std::printf("%7s %10s %12s %14s %12s %14s\n", "params", "cells",
              "tree exact", "serial exact", "tree cover", "serial cover");
  for (size_t n = 2; n <= 6; ++n) {
    workload::SyntheticProfileSpec spec;
    for (size_t i = 0; i < n; ++i) {
      std::string name = "p";  // Not `"p" + ...`: GCC 12 -Wrestrict.
      name += std::to_string(i);
      spec.params.push_back({std::move(name), 30, 2, 5, /*zipf_a=*/0.5});
    }
    spec.num_preferences = 2000;
    spec.clause_pool = 400;
    spec.seed = 1000 + n;
    StatusOr<Costs> costs = Measure(spec);
    if (!costs.ok()) {
      std::fprintf(stderr, "%s\n", costs.status().ToString().c_str());
      return 1;
    }
    std::printf("%7zu %10zu %12.1f %14.1f %12.1f %14.1f\n", n, costs->cells,
                costs->tree_exact, costs->serial_exact, costs->tree_cover,
                costs->serial_cover);
  }

  // ---- (b) Hierarchy depth ----
  std::printf("\n(b) hierarchy depth swept 1..5 levels (3 parameters, "
              "depth applied to a 243-value domain, fan 3)\n\n");
  std::printf("%7s %10s %12s %14s %12s %14s\n", "levels", "cells",
              "tree exact", "serial exact", "tree cover", "serial cover");
  for (size_t depth = 1; depth <= 5; ++depth) {
    workload::SyntheticProfileSpec spec;
    spec.params = {
        {"shallow1", 20, 2, 5, 0.5},
        {"shallow2", 20, 2, 5, 0.5},
        {"deep", 243, depth, 3, 0.5},
    };
    spec.num_preferences = 2000;
    spec.clause_pool = 400;
    spec.seed = 2000 + depth;
    StatusOr<Costs> costs = Measure(spec);
    if (!costs.ok()) {
      std::fprintf(stderr, "%s\n", costs.status().ToString().c_str());
      return 1;
    }
    std::printf("%7zu %10zu %12.1f %14.1f %12.1f %14.1f\n", depth,
                costs->cells, costs->tree_exact, costs->serial_exact,
                costs->tree_cover, costs->serial_cover);
  }
  std::printf("\nExpected shape: exact tree cost ~ #parameters; cover "
              "fan-out grows with depth; serial dwarfs both throughout.\n");
  return 0;
}
