// Serving-under-churn study for the copy-on-write profile store:
// N reader threads rank through `storage::ServeQuery` against M users
// while a writer publishes fresh profile versions at a target rate.
// Three phases share one store and cache:
//
//   baseline   readers only, no writer — the throughput yardstick
//   churn      writer at --swaps_per_sec (default 100) round-robin
//              over the users
//   saturate   writer publishing as fast as it can
//
// Reported per phase: aggregate queries/s, p50/p99 latency, achieved
// swap rate, and the torn-read count. Every published version scores
// ALL its preferences identically (a distinct grid point per version),
// so an answer mixing two versions is detectable as two differing
// scores — the torn counter must stay 0 in every phase. The churn
// acceptance bar is reader throughput within 10% of baseline.
//
// Flags: --readers=N --users=M --swaps_per_sec=R --duration_ms=D
// plus the shared --metrics family from bench_metrics.h.
// --scenario=FILE seeds the shared knobs (users, pois, seed, threads
// -> readers) from a scenario config (docs/scenarios.md); explicit
// flags given after it still override.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "bench_metrics.h"
#include "context/parser.h"
#include "harness/scenario_config.h"
#include "preference/replicated_query_cache.h"
#include "storage/profile_store.h"
#include "storage/serving.h"
#include "workload/poi_dataset.h"

using namespace ctxpref;

namespace {

using Clock = std::chrono::steady_clock;

struct Flags {
  size_t readers = 2;
  size_t users = 4;
  double swaps_per_sec = 100.0;
  size_t duration_ms = 1000;
  size_t pois = 100;
  uint64_t seed = 17;
};

Flags ParseFlags(int argc, char** argv) {
  Flags f;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--scenario=", 11) == 0) {
      StatusOr<harness::ScenarioConfig> cfg =
          harness::LoadScenarioConfig(arg + 11);
      if (!cfg.ok()) {
        std::fprintf(stderr, "--scenario: %s\n",
                     cfg.status().ToString().c_str());
        std::exit(2);
      }
      f.users = cfg->users;
      f.readers = cfg->threads;
      f.pois = cfg->pois;
      f.seed = cfg->seed;
    } else if (std::strncmp(arg, "--readers=", 10) == 0) {
      f.readers = static_cast<size_t>(std::atoll(arg + 10));
    } else if (std::strncmp(arg, "--users=", 8) == 0) {
      f.users = static_cast<size_t>(std::atoll(arg + 8));
    } else if (std::strncmp(arg, "--swaps_per_sec=", 16) == 0) {
      f.swaps_per_sec = std::atof(arg + 16);
    } else if (std::strncmp(arg, "--duration_ms=", 14) == 0) {
      f.duration_ms = static_cast<size_t>(std::atoll(arg + 14));
    }
  }
  if (f.readers == 0) f.readers = 1;
  if (f.users == 0) f.users = 1;
  return f;
}

double Percentile(std::vector<double>& sorted_ns, double p) {
  if (sorted_ns.empty()) return 0.0;
  const size_t idx = static_cast<size_t>(p * (sorted_ns.size() - 1));
  return sorted_ns[idx];
}

/// Score for publish step `k`: a distinct 0.05-grid point per step
/// (mod the period), applied to every preference of that version.
double ScoreForStep(uint64_t k) {
  return 0.05 + static_cast<double>(k % 19) * 0.05;
}

/// "u<n>", built with += because GCC 12's -Wrestrict misfires on
/// `literal + std::to_string(...)` at -O2 (breaks -Werror CI builds).
std::string UserName(uint64_t u) {
  std::string id("u");
  id += std::to_string(u);
  return id;
}

ContextualPreference MakePref(const ContextEnvironment& env,
                              const std::string& cod_text,
                              const std::string& value, double score) {
  StatusOr<CompositeDescriptor> cod = ParseCompositeDescriptor(env, cod_text);
  if (!cod.ok()) {
    std::fprintf(stderr, "%s\n", cod.status().ToString().c_str());
    std::abort();
  }
  StatusOr<ContextualPreference> pref = ContextualPreference::Create(
      std::move(*cod),
      AttributeClause{"type", db::CompareOp::kEq, db::Value(value)}, score);
  if (!pref.ok()) {
    std::fprintf(stderr, "%s\n", pref.status().ToString().c_str());
    std::abort();
  }
  return *pref;
}

Profile VersionedProfile(EnvironmentPtr env, uint64_t step) {
  const double s = ScoreForStep(step);
  Profile p(env);
  Status st =
      p.Insert(MakePref(*env, "location = Plaka", "museum", s));
  if (st.ok()) {
    st = p.Insert(MakePref(*env, "location = Kifisia", "park", s));
  }
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    std::abort();
  }
  return p;
}

struct PhaseResult {
  double queries_per_sec = 0;
  double p50_ns = 0;
  double p99_ns = 0;
  double achieved_swaps_per_sec = 0;
  uint64_t torn = 0;
  double hit_rate = 0;
};

/// One measured phase: `readers` threads serve round-robin over the
/// users for `duration_ms`; a writer publishes at `swaps_per_sec`
/// (0 = no writer, infinity = unthrottled).
PhaseResult RunPhase(storage::ProfileStore& store, ReplicatedQueryCache& cache,
                     const workload::PoiDatabase& poi,
                     const ContextualQuery& query, const Flags& flags,
                     double swaps_per_sec, std::atomic<uint64_t>& step) {
  const CacheStats cache_before = cache.Stats();
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> torn{0};
  std::atomic<uint64_t> answered{0};
  std::atomic<uint64_t> swaps{0};
  std::vector<std::vector<double>> latencies(flags.readers);

  std::thread writer;
  if (swaps_per_sec > 0) {
    writer = std::thread([&] {
      const bool throttled = std::isfinite(swaps_per_sec);
      const auto interval = std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(
              throttled ? 1.0 / swaps_per_sec : 0.0));
      Clock::time_point next = Clock::now();
      while (!stop.load(std::memory_order_relaxed)) {
        const uint64_t k = step.fetch_add(1, std::memory_order_relaxed) + 1;
        const std::string user = UserName(k % flags.users);
        Status st =
            store.PublishProfile(user, VersionedProfile(poi.env, k));
        if (!st.ok()) {
          std::fprintf(stderr, "%s\n", st.ToString().c_str());
          std::abort();
        }
        swaps.fetch_add(1, std::memory_order_relaxed);
        if (throttled) {
          next += interval;
          std::this_thread::sleep_until(next);
        }
      }
    });
  }

  const auto start = Clock::now();
  {
    std::vector<std::jthread> threads;
    for (size_t r = 0; r < flags.readers; ++r) {
      threads.emplace_back([&, r] {
        std::vector<double>& lat = latencies[r];
        uint64_t i = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          const std::string user = UserName((r + i) % flags.users);
          const bool sample = i % 8 == 0;
          Clock::time_point op_start;
          if (sample) op_start = Clock::now();
          StatusOr<storage::ServedQuery> served = storage::ServeQuery(
              store, user, poi.relation, query, &cache, {}, nullptr, r);
          if (sample) {
            lat.push_back(std::chrono::duration<double, std::nano>(
                              Clock::now() - op_start)
                              .count());
          }
          if (!served.ok()) {
            std::fprintf(stderr, "%s\n",
                         served.status().ToString().c_str());
            std::abort();
          }
          // The pinned snapshot fixes the one legal score; any tuple
          // departing from it is a torn (mixed-version) answer.
          const double expect =
              served->snapshot->profile().preference(0).score();
          for (const db::ScoredTuple& t : served->result.tuples) {
            if (std::abs(t.score - expect) > 1e-12) {
              torn.fetch_add(1, std::memory_order_relaxed);
            }
          }
          answered.fetch_add(1, std::memory_order_relaxed);
          ++i;
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(flags.duration_ms));
    stop.store(true, std::memory_order_relaxed);
  }  // Join readers.
  if (writer.joinable()) writer.join();
  const double secs =
      std::chrono::duration<double>(Clock::now() - start).count();

  std::vector<double> all;
  for (std::vector<double>& lat : latencies) {
    all.insert(all.end(), lat.begin(), lat.end());
  }
  std::sort(all.begin(), all.end());

  const CacheStats cache_after = cache.Stats();
  const uint64_t hits = cache_after.hits - cache_before.hits;
  const uint64_t misses = cache_after.misses - cache_before.misses;

  PhaseResult result;
  result.queries_per_sec = static_cast<double>(answered.load()) / secs;
  result.p50_ns = Percentile(all, 0.50);
  result.p99_ns = Percentile(all, 0.99);
  result.achieved_swaps_per_sec = static_cast<double>(swaps.load()) / secs;
  result.torn = torn.load();
  result.hit_rate = hits + misses == 0
                        ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(hits + misses);
  return result;
}

int Run(const Flags& flags) {
  StatusOr<workload::PoiDatabase> poi =
      workload::MakePoiDatabase(flags.pois, flags.seed);
  if (!poi.ok()) {
    std::fprintf(stderr, "%s\n", poi.status().ToString().c_str());
    return 1;
  }
  StatusOr<ExtendedDescriptor> ecod = ParseExtendedDescriptor(
      *poi->env, "location = Plaka or location = Kifisia");
  if (!ecod.ok()) {
    std::fprintf(stderr, "%s\n", ecod.status().ToString().c_str());
    return 1;
  }
  ContextualQuery query;
  query.context = *ecod;

  // One cache replica per reader, consumed inline: readers never share
  // a cache lock, and a publish reaches each replica through the log.
  storage::ProfileStore store(poi->env);
  ReplicatedQueryCache::Options ropt;
  ropt.num_replicas = flags.readers;
  ropt.capacity_per_replica = 1024;
  ReplicatedQueryCache cache(poi->env, Ordering::Identity(poi->env->size()),
                             ropt);
  store.AttachCoherenceLog(&cache.log());
  std::atomic<uint64_t> step{0};
  for (size_t u = 0; u < flags.users; ++u) {
    Status st = store.CreateUser(UserName(u),
                                 VersionedProfile(poi->env, 0));
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
  }

  std::printf("Copy-on-write serving: %zu readers x %zu users, "
              "%zu ms per phase, %u hardware threads\n\n",
              flags.readers, flags.users, flags.duration_ms,
              std::thread::hardware_concurrency());
  std::printf("%-10s %14s %12s %12s %10s %8s %6s\n", "phase", "queries/s",
              "p50 (ns)", "p99 (ns)", "swaps/s", "hit%", "torn");

  struct PhaseSpec {
    const char* name;
    double swaps_per_sec;
  };
  const PhaseSpec phases[] = {
      {"baseline", 0.0},
      {"churn", flags.swaps_per_sec},
      {"saturate", std::numeric_limits<double>::infinity()},
  };

  double baseline_qps = 0;
  double churn_qps = 0;
  uint64_t total_torn = 0;
  for (const PhaseSpec& phase : phases) {
    PhaseResult r =
        RunPhase(store, cache, *poi, query, flags, phase.swaps_per_sec, step);
    std::printf("%-10s %14.0f %12.0f %12.0f %10.1f %7.1f%% %6llu\n",
                phase.name, r.queries_per_sec, r.p50_ns, r.p99_ns,
                r.achieved_swaps_per_sec, 100 * r.hit_rate,
                static_cast<unsigned long long>(r.torn));
    if (std::strcmp(phase.name, "baseline") == 0) {
      baseline_qps = r.queries_per_sec;
    } else if (std::strcmp(phase.name, "churn") == 0) {
      churn_qps = r.queries_per_sec;
    }
    total_torn += r.torn;
  }

  // The churn/baseline bar is a parallelism claim (readers keep their
  // throughput while a writer publishes), so it is only meaningful —
  // and only enforced — with more than one hardware thread. On a
  // single-CPU host the writer time-slices the reader's core and the
  // ratio measures scheduling, not copy-on-write overhead.
  const unsigned cores = std::thread::hardware_concurrency();
  const double ratio = baseline_qps == 0 ? 0.0 : churn_qps / baseline_qps;
  if (cores <= 1) {
    std::printf("\nchurn/baseline throughput: %.1f%% (bar >= 90%% SKIPPED: "
                "single hardware thread)\n",
                100 * ratio);
  } else {
    std::printf("\nchurn/baseline throughput: %.1f%% (bar: >= 90%%%s)\n",
                100 * ratio, ratio >= 0.9 ? "" : " FAILED");
  }
  std::printf("torn reads: %llu (bar: 0)\n",
              static_cast<unsigned long long>(total_torn));
  if (total_torn != 0) return 2;
  if (cores > 1 && ratio < 0.9) return 3;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ctxpref::bench::MetricsFlags metrics =
      ctxpref::bench::ParseMetricsFlags(argc, argv);
  const Flags flags = ParseFlags(argc, argv);
  const int rc = Run(flags);
  ctxpref::bench::DumpMetrics(metrics);
  return rc;
}
