// Coherence study for the replicated query caches (ISSUE 10): does
// replication pay, and what does log-based coherence cost?
//
// Phase A — hit-rate throughput under read skew. N reader threads
// hammer a small hot set of context states (75% of accesses on one
// state), all hits, against two configurations:
//
//   single   one shared cache striped over 8 single-lock
//            ContextQueryTrees (capacity 128 each), a state routed by
//            ContextStateHash % 8: every reader takes the hot state's
//            tree lock and bumps the same LRU + entry refcount
//   repl     a ReplicatedQueryCache, one private tree per reader; each
//            lookup first pays the coherence gate (the Covers acquire
//            load) like storage::ServeQuery does
//
// The two arms alternate over three rounds, and each row is its arm's
// median. The rows BM_CoherenceHitRate_{SingleShared,Replicated}/<N>r
// (real_time = ns per hit) feed scripts/compare_bench.py --speedup,
// which gates replicated >= 1.5x single-shared in CI. The gate is
// meaningless when the readers time-slice one CPU, so check.sh and CI
// guard it on nproc; this binary always prints the ratio.
//
// Phase B — invalidation lag vs write rate. A real ProfileStore with
// AttachCoherenceLog publishes profile versions at a swept rate while
// an interval consumer drains every replica each --consume_interval_us
// and pinned readers serve through storage::ServeQuery in kBackground
// mode. Between drains the clocks trail the store, so the gate refuses
// and the serve falls through uncached — the table reports appended/s,
// served/s, max/avg invalidation lag (versions), and stale refuses per
// rate. Every answer is checked against the one score its served
// version implies (torn must stay 0), and a final publish-then-serve
// round with no consumer proves the refuse path deterministically.
//
// Churn rows come first, on their own store with replicas consumed
// inline at lookup (each serve drains the log before the gate, so a
// publish costs a replica a miss, rarely a refuse): five interleaved
// pairs of a no-writer row and a 100 publishes/s row. The median over
// the pairs of each pair's 100 wps / no-writer served/s ratio must be
// >= 90% — copy-on-write publishing does not stall readers. Per-pair
// ratios, because the two rows of a pair run back to back and so see
// the same phase of host load, which a ratio of the two rows' medians
// mixes across pairs; a median of five, because one window on a
// shared host swings by more than the 10% margin. The bar is a
// parallelism claim, so it is enforced only with more than one
// hardware thread.
//
// Acceptance bars (exit code):
//   phase A lookups all hit                       (exit 3)
//   torn answers over phase B                == 0 (exit 2)
//   stale refuses over phase B               >  0 (exit 4)
//   lag after ConsumeAll quiesce             == 0 (exit 5)
//   median pair's served/s at 100 wps
//     >= 0.9 x its no-writer served/s             (exit 6, nproc > 1)
//
// Flags: --readers=N --duration_ms=D --consume_interval_us=C
// --json_out=FILE plus the shared --metrics family.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_metrics.h"
#include "context/parser.h"
#include "preference/query_cache.h"
#include "preference/replicated_query_cache.h"
#include "storage/profile_store.h"
#include "storage/serving.h"
#include "util/metrics.h"
#include "workload/poi_dataset.h"

using namespace ctxpref;

namespace {

using SteadyClock = std::chrono::steady_clock;

struct Flags {
  size_t readers = 8;           // Reader threads == replicas.
  size_t duration_ms = 300;     // Per-configuration / per-rate window.
  size_t consume_interval_us = 2000;  // Phase B drain cadence.
  std::string json_out;
};

Flags ParseFlags(int argc, char** argv) {
  Flags f;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--readers=", 10) == 0) {
      f.readers = static_cast<size_t>(std::atoll(arg + 10));
    } else if (std::strncmp(arg, "--duration_ms=", 14) == 0) {
      f.duration_ms = static_cast<size_t>(std::atoll(arg + 14));
    } else if (std::strncmp(arg, "--consume_interval_us=", 22) == 0) {
      f.consume_interval_us = static_cast<size_t>(std::atoll(arg + 22));
    } else if (std::strncmp(arg, "--json_out=", 11) == 0) {
      f.json_out = arg + 11;
    }
  }
  if (f.readers == 0) f.readers = 1;
  if (f.consume_interval_us == 0) f.consume_interval_us = 1;
  return f;
}

/// Score for publish step `k` (the bench_overload convention): one
/// 0.05-grid point per step, applied to every preference of that
/// version, so the expected score of ANY served version is a pure
/// function of it and a mixed-version answer is detectable per tuple.
double ScoreForStep(uint64_t k) {
  return 0.05 + static_cast<double>(k % 19) * 0.05;
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
  Status st = p.Insert(MakePref(*env, "location = Plaka", "museum", s));
  if (st.ok()) {
    st = p.Insert(MakePref(*env, "location = Kifisia", "park", s));
  }
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    std::abort();
  }
  return p;
}

ContextState MakeState(const ContextEnvironment& env,
                       std::vector<std::string> names) {
  StatusOr<ContextState> s = ContextState::FromNames(env, std::move(names));
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.status().ToString().c_str());
    std::abort();
  }
  return *s;
}

uint64_t StaleRefuses() {
  return MetricsRegistry::Global()
      .GetCounter("ctxpref_coherence_stale_refuses_total")
      .value();
}

/// The hot set: a handful of fully-specified context states. Accesses
/// are skewed 3-in-4 onto the first — replication's best case (each
/// reader owns its copy) and shared striping's worst (one stripe's lock
/// and one entry's refcount take most of the traffic).
std::vector<ContextState> HotStates(const ContextEnvironment& env) {
  std::vector<ContextState> hot;
  hot.push_back(MakeState(env, {"Plaka", "warm", "friends"}));
  hot.push_back(MakeState(env, {"Kifisia", "warm", "friends"}));
  hot.push_back(MakeState(env, {"Plaka", "cold", "family"}));
  hot.push_back(MakeState(env, {"Monastiraki", "hot", "alone"}));
  return hot;
}

size_t SkewedIndex(uint64_t i, size_t hot_size) {
  return (i % 4 != 3) ? 0 : static_cast<size_t>((i / 4) % hot_size);
}

/// Phase A: per-hit cost over `flags.readers` threads. `lookup(t, s)`
/// must return true on a hit; returns hits/s and counts gate/lookup
/// failures into `bad`.
template <typename LookupFn>
double MeasureHitRate(const Flags& flags,
                      const std::vector<ContextState>& hot,
                      std::atomic<uint64_t>& bad, LookupFn lookup) {
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> hits{0};
  const SteadyClock::time_point start = SteadyClock::now();
  {
    std::vector<std::jthread> readers;
    for (size_t t = 0; t < flags.readers; ++t) {
      readers.emplace_back([&, t] {
        uint64_t local = 0, i = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          const ContextState& s = hot[SkewedIndex(i++, hot.size())];
          if (lookup(t, s)) {
            ++local;
          } else {
            bad.fetch_add(1, std::memory_order_relaxed);
          }
        }
        hits.fetch_add(local, std::memory_order_relaxed);
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(flags.duration_ms));
    stop.store(true, std::memory_order_relaxed);
  }
  const double secs =
      std::chrono::duration<double>(SteadyClock::now() - start).count();
  return static_cast<double>(hits.load()) / secs;
}

struct LagResult {
  double target_rate = 0;
  double appended_per_sec = 0;
  double served_per_sec = 0;
  uint64_t max_lag = 0;
  double avg_lag = 0;
  uint64_t refuses = 0;
  uint64_t torn = 0;
};

/// Phase B's replica set: one replica per reader.
ReplicatedQueryCache::Options ReplicaOptions(
    const Flags& flags, ReplicatedQueryCache::ConsumeMode mode) {
  ReplicatedQueryCache::Options opts;
  opts.num_replicas = flags.readers;
  opts.capacity_per_replica = 1024;
  opts.mode = mode;
  return opts;
}

void PrintLagRow(const LagResult& r) {
  std::printf("%10.0f %12.0f %12.0f %9llu %9.1f %10llu %6llu\n",
              r.target_rate, r.appended_per_sec, r.served_per_sec,
              static_cast<unsigned long long>(r.max_lag), r.avg_lag,
              static_cast<unsigned long long>(r.refuses),
              static_cast<unsigned long long>(r.torn));
}

/// The middle value of an odd-sized, non-empty sample.
double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Phase B: one write-rate point. The writer publishes through the
/// store (the real append hook) at `rate` per second (0 = no writer),
/// the consumer drains on an interval, pinned readers serve through
/// the gate.
LagResult RunLagPhase(const Flags& flags, workload::PoiDatabase& poi,
                      storage::ProfileStore& store,
                      ReplicatedQueryCache& replicas,
                      const ContextualQuery& query, std::atomic<uint64_t>& step,
                      double rate) {
  LagResult r;
  r.target_rate = rate;
  const uint64_t refuses_before = StaleRefuses();
  const uint64_t watermark_before = replicas.log().max_appended();
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> served{0}, torn{0};
  std::atomic<uint64_t> max_lag{0};
  std::atomic<uint64_t> lag_sum{0}, lag_samples{0};

  const SteadyClock::time_point start = SteadyClock::now();
  {
    std::vector<std::jthread> threads;
    // Writer: paced publishes; sleep_until granularity is fine at
    // these rates (>= 125 us intervals).
    if (rate > 0) {
      threads.emplace_back([&] {
        const auto interval =
            std::chrono::duration_cast<SteadyClock::duration>(
                std::chrono::duration<double>(1.0 / rate));
        SteadyClock::time_point next = SteadyClock::now();
        while (!stop.load(std::memory_order_relaxed)) {
          const uint64_t k = step.fetch_add(1, std::memory_order_relaxed) + 1;
          Status st = store.PublishProfile("u", VersionedProfile(poi.env, k));
          if (!st.ok()) {
            std::fprintf(stderr, "%s\n", st.ToString().c_str());
            std::abort();
          }
          next += interval;
          std::this_thread::sleep_until(next);
        }
      });
    }
    // Interval consumer: the "each replica runs a consume step on its
    // own schedule" agent; also samples the headline lag gauge.
    threads.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        replicas.ConsumeAll();
        const uint64_t lag = replicas.InvalidationLagVersions();
        uint64_t seen = max_lag.load(std::memory_order_relaxed);
        while (lag > seen &&
               !max_lag.compare_exchange_weak(seen, lag,
                                              std::memory_order_relaxed)) {
        }
        lag_sum.fetch_add(lag, std::memory_order_relaxed);
        lag_samples.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::sleep_for(
            std::chrono::microseconds(flags.consume_interval_us));
      }
    });
    // Pinned readers: replica t, gate decides cached vs fall-through.
    for (size_t t = 0; t < flags.readers; ++t) {
      threads.emplace_back([&, t] {
        uint64_t local_served = 0, local_torn = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          StatusOr<storage::ServedQuery> s = storage::ServeQuery(
              store, "u", poi.relation, query, &replicas, {}, nullptr, t);
          if (!s.ok()) {
            std::fprintf(stderr, "%s\n", s.status().ToString().c_str());
            std::abort();
          }
          const double expect =
              ScoreForStep(s->snapshot->serving_version());
          for (const db::ScoredTuple& tup : s->result.tuples) {
            if (std::abs(tup.score - expect) > 1e-12) ++local_torn;
          }
          ++local_served;
        }
        served.fetch_add(local_served, std::memory_order_relaxed);
        torn.fetch_add(local_torn, std::memory_order_relaxed);
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(flags.duration_ms));
    stop.store(true, std::memory_order_relaxed);
  }
  const double secs =
      std::chrono::duration<double>(SteadyClock::now() - start).count();

  r.appended_per_sec =
      static_cast<double>(replicas.log().max_appended() - watermark_before) /
      secs;
  r.served_per_sec = static_cast<double>(served.load()) / secs;
  r.max_lag = max_lag.load();
  r.avg_lag = lag_samples.load() > 0 ? static_cast<double>(lag_sum.load()) /
                                           static_cast<double>(
                                               lag_samples.load())
                                     : 0.0;
  r.refuses = StaleRefuses() - refuses_before;
  r.torn = torn.load();
  return r;
}

struct Row {
  std::string name;
  double per_sec = 0;
};

void WriteJson(const std::string& path, const std::vector<Row>& rows) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  // google-benchmark shape, so compare_bench.py --speedup can pair the
  // hit-rate rows. real_time = ns per operation: "lower is better",
  // matching the tool's base/target ratio convention.
  out << "{\n  \"context\": " << bench::BenchContextJson()
      << ",\n  \"benchmarks\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const double ns_per_op = rows[i].per_sec > 0 ? 1e9 / rows[i].per_sec : 1e12;
    out << "    {\"name\": \"" << rows[i].name
        << "\", \"run_type\": \"iteration\", \"real_time\": " << ns_per_op
        << ", \"cpu_time\": " << ns_per_op
        << ", \"time_unit\": \"ns\", \"ops_per_sec\": " << rows[i].per_sec
        << "}";
    out << (i + 1 < rows.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
}

int Run(const Flags& flags) {
  StatusOr<workload::PoiDatabase> poi = workload::MakePoiDatabase(60, 23);
  if (!poi.ok()) {
    std::fprintf(stderr, "%s\n", poi.status().ToString().c_str());
    return 1;
  }
  const EnvironmentPtr env = poi->env;
  const std::vector<ContextState> hot = HotStates(*env);
  const std::vector<db::ScoredTuple> tuples = {
      {1, 0.9}, {2, 0.8}, {3, 0.7}, {4, 0.6}};
  std::vector<Row> rows;
  std::atomic<uint64_t> bad{0};

  // ---- Phase A: hit-rate throughput under read skew ----
  std::printf("Coherence hit-rate: %zu readers, %zu hot states (75%% on "
              "one), %u hardware threads\n\n",
              flags.readers, hot.size(), std::thread::hardware_concurrency());

  double shared_rate = 0, repl_rate = 0;
  {
    // The striped baseline: 1024 entries over 8 lock stripes.
    constexpr size_t kStripes = 8;
    std::vector<std::unique_ptr<ContextQueryTree>> stripes;
    for (size_t i = 0; i < kStripes; ++i) {
      stripes.push_back(std::make_unique<ContextQueryTree>(/*capacity=*/128));
    }
    auto stripe_for = [&stripes](const ContextState& s) -> ContextQueryTree& {
      return *stripes[ContextStateHash{}(s) % kStripes];
    };
    for (const ContextState& s : hot) stripe_for(s).Put(s, 1, tuples);
    ReplicatedQueryCache::Options opts;
    opts.num_replicas = flags.readers;
    opts.capacity_per_replica = 1024;
    ReplicatedQueryCache replicas(env, Ordering::Identity(env->size()), opts);
    // One appended-and-consumed record brings every clock to 1, the
    // version the warm entries carry, so the gate is open and honest.
    replicas.log().Append("warmup", 1);
    replicas.ConsumeAll();
    for (size_t r = 0; r < replicas.num_replicas(); ++r) {
      for (const ContextState& s : hot) replicas.replica(r).Put(s, 1, tuples);
    }
    // Three alternating rounds, each arm's median row: one window on a
    // busy shared host can swing by more than the ratio the gate reads.
    std::vector<double> shared_rates, repl_rates;
    for (int round = 0; round < 3; ++round) {
      shared_rates.push_back(MeasureHitRate(
          flags, hot, bad, [&stripe_for](size_t, const ContextState& s) {
            return stripe_for(s).Lookup(s, 1) != nullptr;
          }));
      repl_rates.push_back(MeasureHitRate(
          flags, hot, bad, [&replicas](size_t t, const ContextState& s) {
            return replicas.Covers(t, 1) &&
                   replicas.replica(t).Lookup(s, 1) != nullptr;
          }));
      std::printf("round %d: single shared %14.0f, replicated %14.0f hits/s\n",
                  round + 1, shared_rates.back(), repl_rates.back());
    }
    shared_rate = Median(shared_rates);
    repl_rate = Median(repl_rates);
  }
  // += not operator+: GCC 12's -Wrestrict misfires on
  // `literal + std::to_string(...)` at -O2.
  std::string suffix("/");
  suffix += std::to_string(flags.readers);
  suffix += "r";
  rows.push_back(Row{"BM_CoherenceHitRate_SingleShared" + suffix,
                     shared_rate});
  rows.push_back(Row{"BM_CoherenceHitRate_Replicated" + suffix, repl_rate});
  const double ratio = shared_rate > 0 ? repl_rate / shared_rate : 0.0;
  std::printf("%-28s %14.0f hits/s (median)\n", "single shared (8 stripes)",
              shared_rate);
  std::printf("%-28s %14.0f hits/s (median)\n", "replicated (1 tree/reader)",
              repl_rate);
  std::printf("replicated / single-shared: %.2fx (CI bar >= 1.5x, gated by "
              "compare_bench.py when nproc > 1)\n\n",
              ratio);

  // ---- Phase B: serving under a swept write rate ----
  StatusOr<ExtendedDescriptor> ecod = ParseExtendedDescriptor(
      *env, "location = Plaka or location = Kifisia");
  if (!ecod.ok()) {
    std::fprintf(stderr, "%s\n", ecod.status().ToString().c_str());
    return 1;
  }
  ContextualQuery query;
  query.context = *ecod;
  auto serve_name = [](double rate) {
    std::string name("BM_CoherenceServe_");
    name += std::to_string(static_cast<int>(rate));
    name += "wps";
    return name;
  };
  uint64_t total_torn = 0, total_refuses = 0;

  constexpr int kServePairs = 5;
  std::printf("Serving under churn (%zu replicas, inline consume; "
              "%d interleaved pairs):\n",
              flags.readers, kServePairs);
  std::printf("%10s %12s %12s %9s %9s %10s %6s\n", "target/s", "appended/s",
              "served/s", "max lag", "avg lag", "refuses", "torn");
  double churn_ratio = 0;
  {
    ReplicatedQueryCache replicas(
        env, Ordering::Identity(env->size()),
        ReplicaOptions(flags,
                       ReplicatedQueryCache::ConsumeMode::kInlineAtLookup));
    storage::ProfileStore store(env);
    store.AttachCoherenceLog(&replicas.log());
    Status created = store.CreateUser("u", VersionedProfile(env, 1));
    if (!created.ok()) {
      std::fprintf(stderr, "%s\n", created.ToString().c_str());
      return 1;
    }
    std::atomic<uint64_t> step{1};
    std::vector<double> served[2];
    std::vector<double> ratios;
    for (int pair = 0; pair < kServePairs; ++pair) {
      for (const double rate : {0.0, 100.0}) {
        LagResult r =
            RunLagPhase(flags, *poi, store, replicas, query, step, rate);
        PrintLagRow(r);
        served[rate > 0 ? 1 : 0].push_back(r.served_per_sec);
        total_torn += r.torn;
      }
      const double no_writer = served[0].back();
      ratios.push_back(no_writer > 0 ? served[1].back() / no_writer : 0.0);
    }
    churn_ratio = Median(ratios);
    rows.push_back(Row{serve_name(0), Median(served[0])});
    rows.push_back(Row{serve_name(100), Median(served[1])});
  }

  ReplicatedQueryCache replicas(
      env, Ordering::Identity(env->size()),
      ReplicaOptions(flags, ReplicatedQueryCache::ConsumeMode::kBackground));
  storage::ProfileStore store(env);
  store.AttachCoherenceLog(&replicas.log());
  Status created = store.CreateUser("u", VersionedProfile(env, 1));
  if (!created.ok()) {
    std::fprintf(stderr, "%s\n", created.ToString().c_str());
    return 1;
  }
  std::atomic<uint64_t> step{1};

  std::printf("\nInvalidation lag vs write rate (%zu replicas, consume every "
              "%zu us, background mode):\n",
              flags.readers, flags.consume_interval_us);
  std::printf("%10s %12s %12s %9s %9s %10s %6s\n", "target/s", "appended/s",
              "served/s", "max lag", "avg lag", "refuses", "torn");
  for (const double rate : {500.0, 2000.0, 8000.0}) {
    LagResult r =
        RunLagPhase(flags, *poi, store, replicas, query, step, rate);
    PrintLagRow(r);
    rows.push_back(Row{serve_name(rate), r.served_per_sec});
    total_torn += r.torn;
    total_refuses += r.refuses;
    // Quiesce between rates: a full drain must zero the lag.
    replicas.ConsumeAll();
    if (replicas.InvalidationLagVersions() != 0) {
      std::printf("\nlag after ConsumeAll: %llu (bar: 0) FAILED\n",
                  static_cast<unsigned long long>(
                      replicas.InvalidationLagVersions()));
      return 5;
    }
  }

  // Deterministic refuse exercise: one more publish with no consumer
  // running leaves every clock behind the pinned version, so a serve
  // through each replica must take the refuse path — scheduling-
  // independent proof the fall-through fires (and stays byte-correct).
  {
    const uint64_t refuses_before = StaleRefuses();
    const uint64_t k = step.fetch_add(1, std::memory_order_relaxed) + 1;
    Status st = store.PublishProfile("u", VersionedProfile(env, k));
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    for (size_t t = 0; t < flags.readers; ++t) {
      StatusOr<storage::ServedQuery> s = storage::ServeQuery(
          store, "u", poi->relation, query, &replicas, {}, nullptr, t);
      if (!s.ok()) {
        std::fprintf(stderr, "%s\n", s.status().ToString().c_str());
        return 1;
      }
      const double expect = ScoreForStep(s->snapshot->serving_version());
      for (const db::ScoredTuple& tup : s->result.tuples) {
        if (std::abs(tup.score - expect) > 1e-12) ++total_torn;
      }
    }
    const uint64_t forced = StaleRefuses() - refuses_before;
    total_refuses += forced;
    std::printf("forced refuse round: %llu refuses over %zu replicas "
                "(bar: >= %zu)\n",
                static_cast<unsigned long long>(forced), flags.readers,
                flags.readers);
    replicas.ConsumeAll();
  }

  if (!flags.json_out.empty()) WriteJson(flags.json_out, rows);

  // On one hardware thread the writer time-slices the readers' core,
  // so the ratio measures scheduling, not copy-on-write overhead.
  const bool multi_core = std::thread::hardware_concurrency() > 1;
  const bool churn_ok = !multi_core || churn_ratio >= 0.9;
  std::printf("\nmedian pair's served/s at 100 wps / no writer: %.1f%% "
              "(bar: >= 90%%%s)\n",
              100 * churn_ratio,
              !multi_core ? " SKIPPED: single hardware thread"
                          : (churn_ok ? "" : " FAILED"));

  std::printf("phase A gate/lookup failures: %llu (bar: 0)\n",
              static_cast<unsigned long long>(bad.load()));
  std::printf("torn answers: %llu (bar: 0)\n",
              static_cast<unsigned long long>(total_torn));
  std::printf("stale refuses: %llu (bar: > 0)\n",
              static_cast<unsigned long long>(total_refuses));
  if (total_torn != 0) return 2;
  if (bad.load() != 0) return 3;
  if (total_refuses == 0) return 4;
  if (!churn_ok) return 6;
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
