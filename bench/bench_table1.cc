// Reproduces Table 1 (paper §5.1): the usability study.
//
// 10 simulated users (see src/workload/user_sim.h and DESIGN.md for the
// substitution protocol replacing the paper's human subjects): each is
// assigned one of the 12 default profiles, edits it toward a hidden
// per-user ground truth, and then rates the system's top-20 against the
// ground-truth top-20 for three query classes — exact match, exactly
// one cover, and multiple covers under the Hierarchy and Jaccard
// distances.
//
// Paper-reported reference (Table 1): 12-38 updates, 15-45 minutes,
// precision 85-100% (exact), 85-100% (1 cover), 70-90% (Hierarchy),
// 75-100% (Jaccard); Jaccard >= Hierarchy on average.

#include <cstdio>

#include "bench_metrics.h"
#include "workload/user_sim.h"

using namespace ctxpref;
using namespace ctxpref::workload;

int main() {
  bench::PrintBenchContext();
  UserStudyConfig config;
  config.num_users = 10;
  config.num_pois = 150;
  config.queries_per_class = 20;
  config.top_k = 20;
  config.seed = 2026;

  StatusOr<std::vector<UserStudyRow>> rows = RunUserStudy(config);
  if (!rows.ok()) {
    std::fprintf(stderr, "user study failed: %s\n",
                 rows.status().ToString().c_str());
    return 1;
  }

  std::printf("Table 1: User Study Results (simulated; %zu users, "
              "%zu POIs, top-%zu, %zu queries/class)\n\n",
              config.num_users, config.num_pois, config.top_k,
              config.queries_per_class);
  std::printf("%-22s", "");
  for (const UserStudyRow& r : *rows) std::printf(" User%-4d", r.user_id);
  std::printf("\n");

  auto print_int_row = [&](const char* label, auto getter) {
    std::printf("%-22s", label);
    for (const UserStudyRow& r : *rows) {
      std::printf(" %-8.0f", static_cast<double>(getter(r)));
    }
    std::printf("\n");
  };
  auto print_pct_row = [&](const char* label, auto getter) {
    std::printf("%-22s", label);
    for (const UserStudyRow& r : *rows) {
      const double v = getter(r);
      if (v < 0.0) {
        std::printf(" %-8s", "-");  // No measurable queries in class.
      } else {
        std::printf(" %-8.0f", v);
      }
    }
    std::printf("\n");
  };

  print_int_row("Num of updates", [](const auto& r) { return r.num_updates; });
  print_int_row("Update time (mins)",
                [](const auto& r) { return r.update_minutes; });
  print_pct_row("Exact match (%)",
                [](const auto& r) { return r.exact_pct; });
  print_pct_row("1 cover state (%)",
                [](const auto& r) { return r.one_cover_pct; });
  std::printf("More cover states\n");
  print_pct_row("  Hierarchy (%)",
                [](const auto& r) { return r.multi_cover_hierarchy_pct; });
  print_pct_row("  Jaccard (%)",
                [](const auto& r) { return r.multi_cover_jaccard_pct; });

  // Aggregates the paper discusses qualitatively (skipping users whose
  // profile produced no queries in a class).
  double sums[4] = {0, 0, 0, 0};
  double ns[4] = {0, 0, 0, 0};
  for (const UserStudyRow& r : *rows) {
    const double vals[4] = {r.exact_pct, r.one_cover_pct,
                            r.multi_cover_hierarchy_pct,
                            r.multi_cover_jaccard_pct};
    for (int i = 0; i < 4; ++i) {
      if (vals[i] >= 0.0) {
        sums[i] += vals[i];
        ns[i] += 1.0;
      }
    }
  }
  auto avg = [&](int i) { return ns[i] > 0 ? sums[i] / ns[i] : 0.0; };
  std::printf("\nAverages: exact %.1f%%, 1-cover %.1f%%, "
              "multi-Hierarchy %.1f%%, multi-Jaccard %.1f%%\n",
              avg(0), avg(1), avg(2), avg(3));
  std::printf("Expected shape: exact >= covers; Jaccard >= Hierarchy "
              "(fewer ties); more updates -> higher precision.\n");
  return 0;
}
