// Reproduces Fig. 6 (paper §5.2): profile-tree size on synthetic
// profiles.
//
//  * left:   uniform value draws — cells vs. #preferences for the six
//            orderings of domains (50, 100, 1000), plus serial;
//  * center: the same with zipf(a = 1.5) draws;
//  * right:  5000 preferences over domains (50, 100, 200) where the
//            200-value parameter is drawn zipf(a) with a swept 0..3.5 —
//            showing the best ordering depends on the *active* domain,
//            so a skewed large domain may belong high in the tree.
//
// Expected shapes (paper): large domains low => fewer cells; zipf
// profiles smaller than uniform (value sharing); on the right, order 3
// (200 first) becomes competitive/best as a grows.

#include <cstdio>

#include "bench_metrics.h"
#include "preference/profile_tree.h"
#include "preference/sequential_store.h"
#include "workload/profile_generator.h"

using namespace ctxpref;

namespace {

struct Named {
  const char* label;
  std::vector<size_t> perm;  // level -> param index
};

/// Builds the spec of the paper's three-parameter synthetic profile.
workload::SyntheticProfileSpec BaseSpec(size_t num_prefs, double zipf_a,
                                        uint64_t seed) {
  workload::SyntheticProfileSpec spec;
  // Hierarchy shapes per §5.2: 2 levels for the 50-domain, 3 for the
  // 100- and 1000-domains (plus ALL).
  spec.params = {
      {"c50", 50, 2, 8, zipf_a},
      {"c100", 100, 3, 5, zipf_a},
      {"c1000", 1000, 3, 10, zipf_a},
  };
  spec.num_preferences = num_prefs;
  spec.lift_probability = 0.3;
  spec.omit_probability = 0.05;
  spec.clause_pool = 400;
  spec.seed = seed;
  return spec;
}

int RunSizeSweep(const char* title, double zipf_a) {
  const std::vector<Named> orders = {
      {"order1 (50,100,1000)", {0, 1, 2}},
      {"order2 (50,1000,100)", {0, 2, 1}},
      {"order3 (100,50,1000)", {1, 0, 2}},
      {"order4 (100,1000,50)", {1, 2, 0}},
      {"order5 (1000,50,100)", {2, 0, 1}},
      {"order6 (1000,100,50)", {2, 1, 0}},
  };
  std::printf("%s\n", title);
  std::printf("%-22s", "#prefs");
  for (size_t n : {500, 1000, 5000, 10000}) std::printf(" %10zu", n);
  std::printf("\n");

  std::vector<std::vector<size_t>> cells(orders.size() + 1);
  for (size_t n : {500, 1000, 5000, 10000}) {
    StatusOr<workload::SyntheticProfile> gen =
        GenerateSyntheticProfile(BaseSpec(n, zipf_a, 1000 + n));
    if (!gen.ok()) {
      std::fprintf(stderr, "%s\n", gen.status().ToString().c_str());
      return 1;
    }
    for (size_t i = 0; i < orders.size(); ++i) {
      StatusOr<ProfileTree> tree = ProfileTree::Build(
          gen->profile, *Ordering::FromPermutation(orders[i].perm));
      if (!tree.ok()) {
        std::fprintf(stderr, "%s\n", tree.status().ToString().c_str());
        return 1;
      }
      cells[i].push_back(tree->CellCount());
    }
    cells[orders.size()].push_back(
        SequentialStore::Build(gen->profile).CellCount());
  }
  for (size_t i = 0; i < orders.size(); ++i) {
    std::printf("%-22s", orders[i].label);
    for (size_t c : cells[i]) std::printf(" %10zu", c);
    std::printf("\n");
  }
  std::printf("%-22s", "serial");
  for (size_t c : cells[orders.size()]) std::printf(" %10zu", c);
  std::printf("\n\n");
  return 0;
}

int RunSkewSweep() {
  std::printf("Fig. 6 (right): combined distribution — 5000 prefs, domains "
              "(50 uniform, 100 uniform, 200 zipf(a)), cells vs a\n");
  const std::vector<Named> orders = {
      {"order1 (50,100,200)", {0, 1, 2}},
      {"order2 (50,200,100)", {0, 2, 1}},
      {"order3 (200,50,100)", {2, 0, 1}},
  };
  std::printf("%-22s", "a");
  for (double a = 0.0; a <= 3.51; a += 0.5) std::printf(" %8.1f", a);
  std::printf("\n");

  std::vector<std::vector<size_t>> cells(orders.size());
  std::vector<uint64_t> active200;
  for (double a = 0.0; a <= 3.51; a += 0.5) {
    workload::SyntheticProfileSpec spec;
    spec.params = {
        {"c50", 50, 2, 8, 0.0},
        {"c100", 100, 3, 5, 0.0},
        {"c200", 200, 3, 6, a},
    };
    spec.num_preferences = 5000;
    spec.lift_probability = 0.3;
    spec.omit_probability = 0.05;
    spec.clause_pool = 400;
    spec.seed = 4242;
    StatusOr<workload::SyntheticProfile> gen = GenerateSyntheticProfile(spec);
    if (!gen.ok()) {
      std::fprintf(stderr, "%s\n", gen.status().ToString().c_str());
      return 1;
    }
    active200.push_back(ActiveDomainSizes(gen->profile)[2]);
    for (size_t i = 0; i < orders.size(); ++i) {
      StatusOr<ProfileTree> tree = ProfileTree::Build(
          gen->profile, *Ordering::FromPermutation(orders[i].perm));
      if (!tree.ok()) {
        std::fprintf(stderr, "%s\n", tree.status().ToString().c_str());
        return 1;
      }
      cells[i].push_back(tree->CellCount());
    }
  }
  for (size_t i = 0; i < orders.size(); ++i) {
    std::printf("%-22s", orders[i].label);
    for (size_t c : cells[i]) std::printf(" %8zu", c);
    std::printf("\n");
  }
  std::printf("%-22s", "active |dom(c200)|");
  for (uint64_t v : active200) {
    std::printf(" %8llu", static_cast<unsigned long long>(v));
  }
  std::printf("\n\nExpected shape: as a grows the 200-domain's active size "
              "collapses, and mapping it HIGH in the tree (order3) becomes "
              "the most space-efficient.\n");
  return 0;
}

}  // namespace

int main() {
  bench::PrintBenchContext();
  std::printf("Figure 6: profile-tree size on synthetic profiles\n\n");
  if (int rc = RunSizeSweep(
          "Fig. 6 (left): uniform draws — total cells per ordering", 0.0);
      rc != 0) {
    return rc;
  }
  if (int rc = RunSizeSweep(
          "Fig. 6 (center): zipf(a=1.5) draws — total cells per ordering",
          1.5);
      rc != 0) {
    return rc;
  }
  return RunSkewSweep();
}
