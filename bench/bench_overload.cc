// Overload study for the resilient serving stack (ISSUE 8): an
// open-loop producer offers requests at a multiple of the measured
// saturation rate; a fixed-size server pool (server_queue.h) executes
// them. Two configurations face the same load sweep:
//
//   shed     bounded LIFO queue + deadline drop-at-dequeue +
//            ServeQuery with an AdmissionController and a deadline, so
//            its degradation ladder (stale / truncated fallbacks) runs
//   noshed   unbounded FIFO queue, no admission, no ladder — every
//            request is fully evaluated no matter how late
//
// Each request carries a real-clock deadline budget; *goodput* counts
// only answers delivered within it. Past saturation the noshed queue
// grows without bound, every answer goes out late, and goodput
// collapses, while the shed configuration keeps answering at close to
// capacity by refusing work it cannot finish in time. A writer churns
// profile versions throughout, and every in-budget answer is checked
// against the one version its provenance names — the torn counter
// must stay 0.
//
// The sweep's capacity is the median of five 200 ms closed-loop probes
// (all five are printed).
//
// Acceptance bars (exit code; all but the first only with >1 hardware
// thread):
//   torn reads over all phases        == 0        (exit 2)
//   noshed at 2x offered >= 1.8x the median probe
//     and answered late at least once             (exit 5, "unsaturated
//                                                  run": the bars below
//                                                  would compare
//                                                  unsaturated phases)
//   shed goodput at 2x <= 1.3x the median probe   (exit 6, "slow
//                                                  probe": the probes
//                                                  underread capacity,
//                                                  so "2x" was not
//                                                  past it)
//   shed goodput at 2x / shed at 1x   >= 80%      (exit 3)
//   shed goodput at 2x > noshed at 2x             (exit 4)
//
// An attempt whose shed 2x row trips the slow-probe bar and that would
// exit 6 or 5 (no torn read; a slow probe also makes noshed's "2x"
// unsaturated, since it was offered 2x an underread capacity) is
// re-run, probes and all four arms, at most twice more; every attempt
// is printed, and exit 6 or 5 stands only when all three trip it. The
// last attempt's bars decide the exit code.
//
// --json_out=FILE writes the last attempt's google-benchmark-shaped rows
// (BM_OverloadGoodput_{Shed,NoShed}/<mult>x, real_time = ns per good
// answer) for scripts/compare_bench.py --speedup, which gates the
// shed/noshed ratio at 2x in CI.
//
// Flags: --threads=N --duration_ms=D --budget_us=B --service_us=S
// --swaps_per_sec=R --json_out=FILE plus the shared --metrics family.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_metrics.h"
#include "server_queue.h"
#include "context/parser.h"
#include "preference/replicated_query_cache.h"
#include "storage/admission.h"
#include "storage/profile_store.h"
#include "storage/serving.h"
#include "util/deadline.h"
#include "workload/poi_dataset.h"

using namespace ctxpref;

namespace {

using SteadyClock = std::chrono::steady_clock;

struct Flags {
  size_t threads = 2;        // Server pool size.
  size_t duration_ms = 400;  // Offered-load window per phase.
  size_t budget_us = 1000;   // Per-request deadline budget.
  size_t service_us = 50;    // Modeled downstream work per request.
  double swaps_per_sec = 200.0;
  std::string json_out;
};

Flags ParseFlags(int argc, char** argv) {
  Flags f;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--threads=", 10) == 0) {
      f.threads = static_cast<size_t>(std::atoll(arg + 10));
    } else if (std::strncmp(arg, "--duration_ms=", 14) == 0) {
      f.duration_ms = static_cast<size_t>(std::atoll(arg + 14));
    } else if (std::strncmp(arg, "--budget_us=", 12) == 0) {
      f.budget_us = static_cast<size_t>(std::atoll(arg + 12));
    } else if (std::strncmp(arg, "--service_us=", 13) == 0) {
      f.service_us = static_cast<size_t>(std::atoll(arg + 13));
    } else if (std::strncmp(arg, "--swaps_per_sec=", 16) == 0) {
      f.swaps_per_sec = std::atof(arg + 16);
    } else if (std::strncmp(arg, "--json_out=", 11) == 0) {
      f.json_out = arg + 11;
    }
  }
  if (f.threads == 0) f.threads = 1;
  return f;
}

/// Score for publish step `k`: a distinct 0.05-grid point per step
/// (mod the period), applied to every preference of that version. One
/// user and one sequential writer keep serving version == step, so the
/// expected score of ANY served version is a pure function of it.
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

/// Busy-spins for `us` of wall time — the modeled non-ranking cost of
/// a request (feature fetch, serialization, downstream calls). Gives
/// the service time a known floor so "2x saturation" is a rate the
/// producer thread can actually offer.
void SpinFor(size_t us) {
  const SteadyClock::time_point until =
      SteadyClock::now() + std::chrono::microseconds(us);
  while (SteadyClock::now() < until) {
  }
}

struct PhaseResult {
  double offered_per_sec = 0;
  double goodput_per_sec = 0;
  uint64_t good = 0;
  uint64_t late = 0;       ///< Answered, but past the budget.
  uint64_t rejected = 0;   ///< Refused at the bounded queue.
  uint64_t expired = 0;    ///< Dropped at dequeue, deadline gone.
  uint64_t unavailable = 0;
  uint64_t degraded = 0;   ///< Served by a non-fresh ladder rung.
  uint64_t torn = 0;
  size_t queue_highwater = 0;  ///< Deepest backlog the queue held.
};

/// One cache replica per server thread (picked by thread), consumed
/// inline; the default staleness window keeps the stale rung's reach.
ReplicatedQueryCache::Options CacheOptions(size_t threads) {
  ReplicatedQueryCache::Options o;
  o.num_replicas = threads;
  o.capacity_per_replica = 1024;
  return o;
}

struct World {
  std::unique_ptr<workload::PoiDatabase> poi;
  storage::ProfileStore store;
  ReplicatedQueryCache cache;
  ContextualQuery query;
  std::atomic<uint64_t> step{1};

  World(workload::PoiDatabase db, size_t threads)
      : poi(std::make_unique<workload::PoiDatabase>(std::move(db))),
        store(poi->env),
        cache(poi->env, Ordering::Identity(poi->env->size()),
              CacheOptions(threads)) {
    store.AttachCoherenceLog(&cache.log());
  }
};

/// The shed queue's depth: as many requests as the pool gets through
/// in one deadline at the measured `capacity`, per worker — deadline ×
/// probe rate / threads, and at least one per worker. A deeper queue
/// only holds requests that expire before a worker reaches them.
size_t ShedQueueDepth(const Flags& flags, double capacity) {
  const double depth = static_cast<double>(flags.budget_us) * 1e-6 *
                       capacity / static_cast<double>(flags.threads);
  return std::max<size_t>(flags.threads,
                          static_cast<size_t>(std::llround(depth)));
}

/// One offered-load phase at `rate` requests/s; a shed queue holds
/// `shed_depth` requests.
PhaseResult RunPhase(World& w, const Flags& flags, double rate, bool shed,
                     size_t shed_depth) {
  PhaseResult r;
  std::atomic<uint64_t> good{0}, late{0}, expired{0}, unavailable{0},
      degraded{0}, torn{0};
  uint64_t offered = 0, rejected = 0;

  // Shed: a queue sized from the deadline, newest-first under backlog,
  // and per-request deadlines enforced at dequeue. NoShed: FIFO, no
  // bound, no deadlines — work is never refused, only delayed.
  bench::ServerQueue queue(flags.threads, shed, shed_depth);
  storage::AdmissionController admission(
      storage::AdmissionPolicy{.max_in_flight = 2 * flags.threads});

  // The request body, shared by both configurations up to the serving
  // call: modeled downstream work, then a ranked serve, then the
  // goodput / torn accounting against the request's own budget.
  auto account = [&](uint64_t version, const std::vector<db::ScoredTuple>& ts,
                     bool in_budget) {
    const double expect = ScoreForStep(version);
    for (const db::ScoredTuple& t : ts) {
      if (std::abs(t.score - expect) > 1e-12) {
        torn.fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (in_budget) {
      good.fetch_add(1, std::memory_order_relaxed);
    } else {
      late.fetch_add(1, std::memory_order_relaxed);
    }
  };

  const auto interval = std::chrono::duration_cast<SteadyClock::duration>(
      std::chrono::duration<double>(1.0 / rate));
  const auto budget = std::chrono::microseconds(flags.budget_us);
  const SteadyClock::time_point start = SteadyClock::now();
  const SteadyClock::time_point stop = start + std::chrono::milliseconds(
                                                   flags.duration_ms);
  SteadyClock::time_point next = start;
  while (next < stop) {
    bool accepted;
    if (shed) {
      util::Deadline deadline =
          util::Deadline::AfterMicros(static_cast<int64_t>(flags.budget_us));
      accepted = queue.TrySubmit(
          [&w, &flags, &admission, &account, &unavailable, &degraded,
           deadline] {
            SpinFor(flags.service_us);
            QueryOptions options;
            options.deadline = deadline;
            StatusOr<storage::ServedQuery> served = storage::ServeQuery(
                w.store, "u", w.poi->relation, w.query, &w.cache, options,
                nullptr, storage::kAnyReplica, &admission);
            if (!served.ok()) {
              unavailable.fetch_add(1, std::memory_order_relaxed);
              return;
            }
            if (served->provenance.via != storage::ServedVia::kFresh) {
              degraded.fetch_add(1, std::memory_order_relaxed);
            }
            account(served->provenance.served_version, served->result.tuples,
                    !deadline.Expired());
          },
          deadline,
          /*on_expired=*/
          [&expired] { expired.fetch_add(1, std::memory_order_relaxed); });
    } else {
      const SteadyClock::time_point due = SteadyClock::now() + budget;
      accepted = queue.TrySubmit([&w, &flags, &account, due] {
        SpinFor(flags.service_us);
        StatusOr<storage::ServedQuery> served = storage::ServeQuery(
            w.store, "u", w.poi->relation, w.query, &w.cache);
        if (!served.ok()) {
          std::fprintf(stderr, "%s\n", served.status().ToString().c_str());
          std::abort();
        }
        // Without ladder provenance the pinned snapshot names the one
        // legal version (serving version == publish step by
        // construction).
        account(served->snapshot->serving_version(), served->result.tuples,
                SteadyClock::now() <= due);
      });
    }
    if (!accepted) ++rejected;
    ++offered;
    next += interval;
    // Spin-wait pacing: intervals at these rates are a few to tens of
    // microseconds, far below reliable sleep granularity.
    while (SteadyClock::now() < next && next < stop) {
    }
  }
  const double offered_secs =
      std::chrono::duration<double>(SteadyClock::now() - start).count();
  queue.Drain();  // Drain the backlog (counts lates in noshed mode).

  r.offered_per_sec = static_cast<double>(offered) / offered_secs;
  r.good = good.load();
  r.goodput_per_sec = static_cast<double>(r.good) / offered_secs;
  r.late = late.load();
  r.rejected = rejected;
  r.expired = expired.load();
  r.unavailable = unavailable.load();
  r.degraded = degraded.load();
  r.torn = torn.load();
  r.queue_highwater = queue.highwater();
  return r;
}

/// One closed-loop saturation probe: `threads` workers run the full
/// request body back to back for 200 ms; returns the aggregate rate.
double ProbeCapacity(World& w, const Flags& flags) {
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> done{0};
  const SteadyClock::time_point start = SteadyClock::now();
  {
    std::vector<std::jthread> workers;
    for (size_t t = 0; t < flags.threads; ++t) {
      workers.emplace_back([&] {
        while (!stop.load(std::memory_order_relaxed)) {
          SpinFor(flags.service_us);
          StatusOr<storage::ServedQuery> served = storage::ServeQuery(
              w.store, "u", w.poi->relation, w.query, &w.cache);
          if (!served.ok()) {
            std::fprintf(stderr, "%s\n",
                         served.status().ToString().c_str());
            std::abort();
          }
          done.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    stop.store(true, std::memory_order_relaxed);
  }
  const double secs =
      std::chrono::duration<double>(SteadyClock::now() - start).count();
  return static_cast<double>(done.load()) / secs;
}

/// The capacity the load sweep multiplies: the median of five probes,
/// each printed. Single probes on a shared 4-core host have read
/// anywhere from 13k to 37k requests/s, and one low reading turns every
/// "2x" phase into a 1x one. A warm-up probe runs first (cold caches,
/// first allocations, threads not yet spread over the cores); it is
/// printed but not counted.
double MeasureCapacity(World& w, const Flags& flags) {
  std::printf("warm-up probe: %.0f requests/s (not counted)\n",
              ProbeCapacity(w, flags));
  std::vector<double> probes;
  for (int i = 0; i < 5; ++i) probes.push_back(ProbeCapacity(w, flags));
  std::printf("capacity probes:");
  for (double p : probes) std::printf(" %.0f", p);
  std::printf(" requests/s\n");
  std::sort(probes.begin(), probes.end());
  return probes[2];
}

struct Row {
  std::string name;
  double goodput = 0;
};

void WriteJson(const std::string& path, const std::vector<Row>& rows) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  // google-benchmark shape, so compare_bench.py --speedup can pair the
  // rows. real_time = ns per good answer: "lower is better", matching
  // the tool's base/target ratio convention. Zero goodput maps to one
  // good answer per 1000 s so ratios stay finite.
  out << "{\n  \"context\": " << bench::BenchContextJson()
      << ",\n  \"benchmarks\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const double ns_per_good =
        rows[i].goodput > 0 ? 1e9 / rows[i].goodput : 1e12;
    out << "    {\"name\": \"" << rows[i].name
        << "\", \"run_type\": \"iteration\", \"real_time\": " << ns_per_good
        << ", \"cpu_time\": " << ns_per_good
        << ", \"time_unit\": \"ns\", \"goodput_per_sec\": "
        << rows[i].goodput << "}";
    out << (i + 1 < rows.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
}

/// One attempt: the capacity probes, the four arms (whose rows go to
/// `rows`) and the bars. Returns the exit code the bars give, and sets
/// `slow_probe` when shed at 2x served past the slow-probe bar.
int RunAttempt(World& w, const Flags& flags, std::vector<Row>& rows,
               bool& slow_probe) {
  slow_probe = false;
  const double capacity = MeasureCapacity(w, flags);
  const size_t shed_depth = ShedQueueDepth(flags, capacity);
  std::printf("measured saturation: %.0f requests/s (median closed-loop "
              "probe); shed queue depth %zu (budget x probe rate / "
              "threads)\n\n",
              capacity, shed_depth);
  std::printf("%-8s %6s %12s %12s %8s %8s %8s %8s %8s %6s %8s\n", "config",
              "load", "offered/s", "goodput/s", "late", "reject", "expired",
              "unavail", "degraded", "torn", "qhigh");

  const double mults[] = {1.0, 2.0};
  double shed_peak = 0, shed_2x = 0, noshed_2x = 0;
  double noshed_2x_offered = 0;
  uint64_t noshed_2x_late = 0;
  uint64_t total_torn = 0;
  for (const bool shed : {true, false}) {
    for (const double mult : mults) {
      PhaseResult r = RunPhase(w, flags, mult * capacity, shed, shed_depth);
      const char* config = shed ? "shed" : "noshed";
      std::printf("%-8s %5.0fx %12.0f %12.0f %8llu %8llu %8llu %8llu %8llu "
                  "%6llu %8zu\n",
                  config, mult, r.offered_per_sec, r.goodput_per_sec,
                  static_cast<unsigned long long>(r.late),
                  static_cast<unsigned long long>(r.rejected),
                  static_cast<unsigned long long>(r.expired),
                  static_cast<unsigned long long>(r.unavailable),
                  static_cast<unsigned long long>(r.degraded),
                  static_cast<unsigned long long>(r.torn),
                  r.queue_highwater);
      std::string name("BM_OverloadGoodput_");
      name += shed ? "Shed" : "NoShed";
      name += "/";
      name += std::to_string(static_cast<int>(mult));
      name += "x";
      rows.push_back(Row{name, r.goodput_per_sec});
      total_torn += r.torn;
      if (shed && mult == 1.0) shed_peak = r.goodput_per_sec;
      if (shed && mult == 2.0) shed_2x = r.goodput_per_sec;
      if (!shed && mult == 2.0) {
        noshed_2x = r.goodput_per_sec;
        noshed_2x_offered = r.offered_per_sec;
        noshed_2x_late = r.late;
      }
    }
  }

  // The bars are scheduling claims (shedding keeps the server's cores
  // doing useful work), meaningless when producer, writer, and workers
  // time-slice one CPU.
  const unsigned cores = std::thread::hardware_concurrency();
  const double retain = shed_peak > 0 ? shed_2x / shed_peak : 0.0;
  std::printf("\ntorn reads: %llu (bar: 0)\n",
              static_cast<unsigned long long>(total_torn));
  if (cores <= 1) {
    std::printf("shed goodput at 2x vs peak: %.1f%% (bar >= 80%% SKIPPED: "
                "single hardware thread)\n",
                100 * retain);
    std::printf("shed vs noshed at 2x: %.0f vs %.0f good/s (bar SKIPPED)\n",
                shed_2x, noshed_2x);
    return total_torn != 0 ? 2 : 0;
  }
  // The bars below compare configurations past saturation; a run whose
  // noshed "2x" phase was offered no more than it could serve, or never
  // fell behind, never got there and says nothing about them.
  const double offered_ratio = noshed_2x_offered / capacity;
  const bool saturated = offered_ratio >= 1.8 && noshed_2x_late > 0;
  std::printf("noshed at 2x: offered %.2fx the median probe, %llu late "
              "(bar: >= 1.8x and > 0 late%s)\n",
              offered_ratio, static_cast<unsigned long long>(noshed_2x_late),
              saturated ? "" : " FAILED: unsaturated run");
  // A host slow through every probe makes the median underread
  // capacity; shed then serves far more than "capacity" at "2x", which
  // was never past saturation.
  const double shed_2x_ratio = shed_2x / capacity;
  const bool probe_ok = shed_2x_ratio <= 1.3;
  slow_probe = !probe_ok;
  std::printf("shed at 2x: served %.2fx the median probe (bar: <= 1.3x%s)\n",
              shed_2x_ratio, probe_ok ? "" : " FAILED: slow probe");
  std::printf("shed goodput at 2x vs peak: %.1f%% (bar: >= 80%%%s)\n",
              100 * retain, retain >= 0.8 ? "" : " FAILED");
  std::printf("shed vs noshed at 2x: %.0f vs %.0f good/s (bar: shed >%s)\n",
              shed_2x, noshed_2x, shed_2x > noshed_2x ? "" : " FAILED");
  if (total_torn != 0) return 2;
  if (!saturated) return 5;
  if (!probe_ok) return 6;
  if (retain < 0.8) return 3;
  if (shed_2x <= noshed_2x) return 4;
  return 0;
}

int Run(const Flags& flags) {
  StatusOr<workload::PoiDatabase> poi = workload::MakePoiDatabase(100, 17);
  if (!poi.ok()) {
    std::fprintf(stderr, "%s\n", poi.status().ToString().c_str());
    return 1;
  }
  World w(std::move(*poi), flags.threads);
  StatusOr<ExtendedDescriptor> ecod = ParseExtendedDescriptor(
      *w.poi->env, "location = Plaka or location = Kifisia");
  if (!ecod.ok()) {
    std::fprintf(stderr, "%s\n", ecod.status().ToString().c_str());
    return 1;
  }
  w.query.context = *ecod;
  Status created = w.store.CreateUser("u", VersionedProfile(w.poi->env, 1));
  if (!created.ok()) {
    std::fprintf(stderr, "%s\n", created.ToString().c_str());
    return 1;
  }

  // Version churn for the whole run: keeps the stale rung honest (it
  // must pick ONE consistent older version) and the torn check sharp.
  std::atomic<bool> stop_writer{false};
  std::thread writer([&] {
    const auto interval = std::chrono::duration_cast<SteadyClock::duration>(
        std::chrono::duration<double>(1.0 / flags.swaps_per_sec));
    SteadyClock::time_point next = SteadyClock::now();
    while (!stop_writer.load(std::memory_order_relaxed)) {
      const uint64_t k = w.step.fetch_add(1, std::memory_order_relaxed) + 1;
      Status st =
          w.store.PublishProfile("u", VersionedProfile(w.poi->env, k));
      if (!st.ok()) {
        std::fprintf(stderr, "%s\n", st.ToString().c_str());
        std::abort();
      }
      next += interval;
      std::this_thread::sleep_until(next);
    }
  });

  std::printf("Overload sweep: %zu server threads, %zu us modeled service, "
              "%zu us budget, %u hardware threads\n",
              flags.threads, flags.service_us, flags.budget_us,
              std::thread::hardware_concurrency());
  // A host slow through every probe trips exit 6, or exit 5 when the
  // underread capacity also left noshed's "2x" unsaturated, on
  // unchanged code, so such an attempt is re-run before its bar is
  // believed.
  constexpr int kAttempts = 3;
  std::vector<Row> rows;
  int rc = 0;
  for (int attempt = 1; attempt <= kAttempts; ++attempt) {
    if (attempt > 1) {
      std::printf("\nslow probe: attempt %d of %d re-runs the probes and "
                  "the four arms\n",
                  attempt, kAttempts);
    }
    rows.clear();
    bool slow_probe = false;
    rc = RunAttempt(w, flags, rows, slow_probe);
    if (!(slow_probe && (rc == 6 || rc == 5))) break;
  }
  stop_writer.store(true, std::memory_order_relaxed);
  writer.join();

  if (!flags.json_out.empty()) WriteJson(flags.json_out, rows);
  return rc;
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
