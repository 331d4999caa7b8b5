// Closed-loop serving benchmark for the ctxpref library.
//
//   serve_bench --workload <hot_hits|cold_scan|churn_write> --seed N
//               --seconds S --trace <0|1>
//
// One client thread drives the public serving API (`ProfileStore`,
// `ServeQuery`, `ServeQueryReplicated`, `ReplicatedQueryCache`) in a
// closed loop: each request waits for its answer before the next one
// is sent. Every input is generated from --seed before anything is
// timed. With --trace 0 the run reports the end-to-end metrics; with
// --trace 1 it alternates untraced and traced slices of the window and
// reports the per-layer metrics (README.md has the catalogue).
//
// Standard output: diagnostic lines, then one JSON object as the last
// line: {"correct", "attempted", "failed", "metrics"}. Exit code 0 only
// when every answer check and workload self-check passed.

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "context/descriptor.h"
#include "context/hierarchy.h"
#include "db/predicate.h"
#include "preference/contextual_query.h"
#include "preference/flat_profile_tree.h"
#include "preference/ordering.h"
#include "preference/preference.h"
#include "preference/profile.h"
#include "preference/profile_tree.h"
#include "preference/replicated_query_cache.h"
#include "preference/resolution.h"
#include "storage/profile_store.h"
#include "storage/serving.h"
#include "util/counters.h"
#include "util/crc32.h"
#include "util/metrics.h"
#include "util/random.h"
#include "util/trace.h"
#include "workload/poi_dataset.h"
#include "workload/query_generator.h"

namespace ctxpref::perfbench {
namespace {

// ---- Build context ---------------------------------------------------

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_COMPILER
#define PERFBENCH_CXX_COMPILER "unknown"
#endif

/// Timings from a build with assertions or the lock-rank checker on
/// measure the checks, not the library (ROADMAP item 5), so the run
/// refuses to report them.
bool BuildIsMeasurable(std::string* why) {
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    *why = std::string("build type is ") + PERFBENCH_BUILD_TYPE +
           ", timings need Release";
    return false;
  }
#ifndef NDEBUG
  *why = "assertions are compiled in (NDEBUG unset)";
  return false;
#endif
  if (CTXPREF_LOCK_RANK_CHECKS != 0) {
    *why = "lock-rank checks are compiled in (CTXPREF_LOCK_RANK_CHECKS=1)";
    return false;
  }
  return true;
}

// ---- Clock, memory and the host probe --------------------------------

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Current resident set size in bytes (from /proc/self/statm).
uint64_t ResidentBytes() {
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long size = 0;
  unsigned long long resident = 0;
  const int n = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  if (n != 2) return 0;
  return resident * static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB.
}

/// A fixed memory-bound reference: a dependent pointer chase over a
/// 32 MiB single-cycle permutation. Printed as a host diagnostic only —
/// a disagreement between two sets of runs that this figure shares
/// points at the host, not at the library.
double HostProbeNsPerLoad() {
  constexpr uint32_t kSlots = 8u << 20;  // 8 Mi x 4 B = 32 MiB.
  constexpr uint32_t kLoads = 4u << 20;
  std::vector<uint32_t> next(kSlots);
  for (uint32_t i = 0; i < kSlots; ++i) next[i] = i;
  Rng rng(0x5eed);
  for (uint32_t i = kSlots - 1; i > 0; --i) {  // Sattolo: one cycle.
    const uint32_t j = static_cast<uint32_t>(rng.Uniform(i));
    std::swap(next[i], next[j]);
  }
  uint32_t at = 0;
  const uint64_t start = NowNs();
  for (uint32_t i = 0; i < kLoads; ++i) at = next[at];
  const uint64_t ns = NowNs() - start;
  if (at == kSlots) std::printf("unreachable\n");  // Keeps the chase live.
  return static_cast<double>(ns) / kLoads;
}

/// A fixed reference kernel that tracks how fast the host lets this
/// core run at the moment. One round gathers 8 192 integers from a
/// 256 KiB table through a fixed random index and sorts them:
/// cache-resident, branchy work like the serving calls', with every
/// buffer allocated once, so neither the heap's state nor page faults
/// reach it. A reading is the fastest of kRounds rounds, so an
/// interrupt during one round does not count. On a shared 4-vCPU KVM
/// guest the window's ops per second swing by up to 50% over seconds at
/// a time while the same code runs on the same data, and this kernel's
/// time swings with them (README.md, "Host noise"). Op timings are
/// therefore reported at a fixed host speed: each is multiplied by
/// kReferenceNs over the kernel's time measured around it.
class Reference {
 public:
  Reference() : table_(kTable), index_(kGather), out_(kGather) {
    Rng rng(0x7e1e7e1e);
    for (uint32_t& v : table_) v = static_cast<uint32_t>(rng.Next());
    for (uint32_t& i : index_) i = static_cast<uint32_t>(rng.Uniform(kTable));
  }

  /// The fastest of kRounds rounds, in ns.
  double RoundNs() {
    uint64_t best = UINT64_MAX;
    for (uint32_t round = 0; round < kRounds; ++round) {
      const uint64_t start = NowNs();
      for (size_t i = 0; i < kGather; ++i) out_[i] = table_[index_[i]];
      std::sort(out_.begin(), out_.end());
      best = std::min(best, NowNs() - start);
      sink_ += out_[round];
    }
    return static_cast<double>(best);
  }

  /// The factor that brings a time measured between two readings
  /// `before` and `after` to the reference host speed.
  static double Scale(double before, double after) {
    return kReferenceNs / ((before + after) / 2.0);
  }

  /// One round's time on the reference host: about its time on a quiet
  /// core of the 4-vCPU Sapphire Rapids KVM guest the benchmark was
  /// tuned on (GCC 12, -O3).
  static constexpr double kReferenceNs = 600'000.0;

 private:
  static constexpr size_t kTable = 64 * 1024;  // 256 KiB of uint32_t.
  static constexpr size_t kGather = 8192;
  static constexpr uint32_t kRounds = 4;
  std::vector<uint32_t> table_, index_, out_;
  uint64_t sink_ = 0;  // Keeps the rounds live.
};

// ---- Workloads --------------------------------------------------------

constexpr size_t kUsers = 8000;
constexpr size_t kPrefsPerUser = 60;
constexpr double kProfileZipfA = 1.5;
constexpr double kLiftProbability = 0.3;
constexpr size_t kTopK = 10;
constexpr size_t kOpCycle = 1u << 16;

enum class Kind { kHotHits, kColdScan, kChurnWrite };

struct Spec {
  Kind kind;
  const char* name;
  size_t pois;
  /// Serve through a one-replica `ReplicatedQueryCache` (else uncached
  /// `ServeQuery`).
  bool cache;
  size_t cache_capacity;
  /// Share of ops that are `UpdateUser` rescores.
  double update_share;
};

constexpr Spec kSpecs[] = {
    {Kind::kHotHits, "hot_hits", 500, true, 4096, 0.005},
    {Kind::kColdScan, "cold_scan", 20000, false, 0, 0.05},
    {Kind::kChurnWrite, "churn_write", 200, true, 1024, 0.30},
};

// hot_hits: kHotUsers hot users with kHotStates stored states each;
// every hot user asks kHotQueriesPerUser queries of kHotStatesPerQuery
// of those states. A single-state hit costs 8 us or 300 us depending on
// the cached list's length, so a one-state mix puts its median in the
// gap between the two; three states per query smooth the distribution.
// A user's states share its preferences, so many users with few states
// each make the mix of long and short lists vary less with the seed:
// with 128 hot users one seed's p50 stayed ~20% below another's over
// repeated runs.
constexpr size_t kHotUsers = 512;
constexpr size_t kHotStates = 4;
constexpr size_t kHotQueriesPerUser = 4;
constexpr size_t kHotStatesPerQuery = 3;
constexpr double kHotHitRatioFloor = 0.99;
// cold_scan: exploratory descriptors of kColdStates disjunctive states.
constexpr size_t kColdStates = 3;
// churn_write: users drawn zipf(kChurnUserZipfA). At 0.7 most rescores
// copied a profile nobody had touched for seconds, and the run's figures
// followed the host's memory phases (spreads 0.24-0.75 over seeds); at
// 1.2 the hot users' profiles stay in cache and the spreads halve.
constexpr double kChurnUserZipfA = 1.2;
constexpr double kChurnShareTolerance = 0.02;

// Answer checks: the first kCrcAnswers answers (identical for every
// run of one seed) feed the answer CRC; after them every
// kCheckStride-th answer is also kept, up to kMaxChecked in all.
constexpr size_t kCrcAnswers = 256;
constexpr size_t kCheckStride = 512;
constexpr size_t kMaxChecked = 512;

// The window is served in kSegments equal segments, each by a stack set
// up just before it; one more set-up follows the last segment. So the
// kSegments + 1 set-ups sample the whole run rather than one moment of
// the host, and `setup_s` is their median.
constexpr int kSegments = 6;

// The window is cut into slices of this much time. The reference kernel
// is timed between slices (outside the window) and scales the slice's
// timings; traced runs alternate untraced and traced slices.
constexpr uint64_t kSliceNs = 250'000'000;

std::string UserName(size_t u) {
  std::string name = "user";
  name += std::to_string(u);
  return name;
}

/// Scores on the paper's 0.05 grid, never 0.
double GridScore(Rng& rng) {
  return 0.05 * static_cast<double>(1 + rng.Uniform(20));
}

/// One user profile in the scenario harness's zipf shape: context
/// values drawn zipf(1.5) over each parameter's detailed domain, lifted
/// to a random upper level with probability 0.3, clauses over the POI
/// `type` (80%) and `open_air` (20%) attributes, scores on the 0.05
/// grid. Conflicting and duplicate draws are redrawn.
StatusOr<Profile> MakeUserProfile(const EnvironmentPtr& env_ptr,
                                  const std::vector<ZipfDistribution>& zipf,
                                  uint64_t seed) {
  const ContextEnvironment& env = *env_ptr;
  Rng rng(seed);
  Profile profile(env_ptr);
  const std::vector<std::string>& types = workload::PoiTypes();
  for (size_t attempt = 0;
       profile.size() < kPrefsPerUser && attempt < 50 * kPrefsPerUser;
       ++attempt) {
    std::vector<ValueRef> values;
    values.reserve(env.size());
    bool contextual = false;
    for (size_t i = 0; i < env.size(); ++i) {
      const Hierarchy& h = env.parameter(i).hierarchy();
      ValueRef v{0, static_cast<ValueId>(zipf[i].Sample(rng))};
      if (h.num_levels() > 1 && rng.Bernoulli(kLiftProbability)) {
        v = h.Anc(v,
                  static_cast<LevelIndex>(1 + rng.Uniform(h.num_levels() - 1)));
      }
      if (v != h.AllValue()) contextual = true;
      values.push_back(v);
    }
    if (!contextual) continue;
    StatusOr<CompositeDescriptor> cod =
        CompositeDescriptor::ForState(env, ContextState(std::move(values)));
    if (!cod.ok()) return cod.status();
    const double score = GridScore(rng);
    AttributeClause clause =
        rng.Bernoulli(0.2)
            ? AttributeClause{"open_air", db::CompareOp::kEq,
                              db::Value(rng.Bernoulli(0.5))}
            : AttributeClause{"type", db::CompareOp::kEq,
                              db::Value(types[rng.Uniform(types.size())])};
    StatusOr<ContextualPreference> pref =
        ContextualPreference::Create(std::move(*cod), std::move(clause), score);
    if (!pref.ok()) return pref.status();
    Status st = profile.Insert(std::move(*pref));
    if (!st.ok() && !st.IsAlreadyExists() && !st.IsConflict()) return st;
  }
  return profile;
}

struct Op {
  bool update = false;
  uint32_t user = 0;
  uint32_t query = 0;  ///< Index into Inputs::queries (query ops).
  uint32_t pref = 0;   ///< Rescored preference (update ops).
  double score = 0.0;  ///< Its new score.
};

/// Everything a run needs, generated from the seed before timing.
struct Inputs {
  workload::PoiDatabase poi;
  std::vector<std::string> user_ids;
  std::vector<Profile> profiles;
  std::vector<ContextualQuery> queries;
  std::vector<Op> ops;  ///< Replayed cyclically.
  std::vector<Op> warmup;
};

StatusOr<ContextualQuery> QueryForStates(const ContextEnvironment& env,
                                         const std::vector<ContextState>& states) {
  std::vector<CompositeDescriptor> disjuncts;
  for (const ContextState& s : states) {
    StatusOr<CompositeDescriptor> cod = CompositeDescriptor::ForState(env, s);
    if (!cod.ok()) return cod.status();
    disjuncts.push_back(std::move(*cod));
  }
  ContextualQuery q;
  q.context = ExtendedDescriptor(std::move(disjuncts));
  return q;
}

Op UpdateOp(const Inputs& in, size_t user, Rng& rng) {
  Op op;
  op.update = true;
  op.user = static_cast<uint32_t>(user);
  op.pref = static_cast<uint32_t>(rng.Uniform(in.profiles[user].size()));
  op.score = GridScore(rng);
  return op;
}

Status AddQueryOp(Inputs& in, size_t user, std::vector<ContextState> states,
                  std::vector<Op>& out) {
  StatusOr<ContextualQuery> q = QueryForStates(*in.poi.env, states);
  if (!q.ok()) return q.status();
  Op op;
  op.user = static_cast<uint32_t>(user);
  op.query = static_cast<uint32_t>(in.queries.size());
  in.queries.push_back(std::move(*q));
  out.push_back(op);
  return Status::OK();
}

StatusOr<Inputs> MakeInputs(const Spec& spec, uint64_t seed) {
  StatusOr<workload::PoiDatabase> poi = workload::MakePoiDatabase(spec.pois, seed);
  if (!poi.ok()) return poi.status();
  Inputs in{std::move(*poi), {}, {}, {}, {}, {}};
  const ContextEnvironment& env = *in.poi.env;

  // The user population is shared by all workloads of one seed.
  std::vector<ZipfDistribution> zipf;
  for (size_t i = 0; i < env.size(); ++i) {
    zipf.emplace_back(env.parameter(i).hierarchy().level_size(0),
                      kProfileZipfA);
  }
  in.user_ids.reserve(kUsers);
  in.profiles.reserve(kUsers);
  for (size_t u = 0; u < kUsers; ++u) {
    StatusOr<Profile> p = MakeUserProfile(
        in.poi.env, zipf, seed * 0x9e3779b97f4a7c15ull + u + 1);
    if (!p.ok()) return p.status();
    if (p->empty()) return Status::Internal("generated an empty profile");
    in.user_ids.push_back(UserName(u));
    in.profiles.push_back(std::move(*p));
  }

  Rng rng(seed ^ 0xda3e39cb94b95bdbull);
  in.ops.reserve(kOpCycle);
  switch (spec.kind) {
    case Kind::kHotHits: {
      // Hot users with a few distinct stored states each; every query
      // asks for 3 of them. The warm-up serves every hot query once,
      // filling the cache.
      std::vector<size_t> hot;
      while (hot.size() < kHotUsers) {
        const size_t u = rng.Uniform(kUsers);
        if (std::find(hot.begin(), hot.end(), u) == hot.end()) hot.push_back(u);
      }
      std::vector<Op> hot_queries;
      for (const size_t u : hot) {
        std::vector<ContextState> seen;
        for (size_t tries = 0; seen.size() < kHotStates && tries < 200; ++tries) {
          ContextState s = workload::ExactQuery(in.profiles[u], rng);
          if (std::find(seen.begin(), seen.end(), s) == seen.end()) {
            seen.push_back(std::move(s));
          }
        }
        for (size_t q = 0; q < kHotQueriesPerUser; ++q) {
          std::vector<ContextState> states;
          while (states.size() < std::min(kHotStatesPerQuery, seen.size())) {
            const ContextState& s = seen[rng.Uniform(seen.size())];
            if (std::find(states.begin(), states.end(), s) == states.end()) {
              states.push_back(s);
            }
          }
          CTXPREF_RETURN_IF_ERROR(AddQueryOp(in, u, std::move(states), hot_queries));
        }
      }
      in.warmup = hot_queries;
      // The rescores go to cold users, so the hot set stays cached and
      // the tail is made of hits too: with rescores of hot users, ~1%
      // of queries missed and p99 sat on the edge between hits and
      // misses, moving with every seed.
      while (in.ops.size() < kOpCycle) {
        if (!rng.Bernoulli(spec.update_share)) {
          in.ops.push_back(hot_queries[rng.Uniform(hot_queries.size())]);
          continue;
        }
        size_t u = rng.Uniform(kUsers);
        while (std::find(hot.begin(), hot.end(), u) != hot.end()) {
          u = rng.Uniform(kUsers);
        }
        in.ops.push_back(UpdateOp(in, u, rng));
      }
      break;
    }
    case Kind::kColdScan: {
      // Uniform users, exploratory descriptors of random lifted states.
      while (in.ops.size() < kOpCycle / 4) {
        const size_t u = rng.Uniform(kUsers);
        if (rng.Bernoulli(spec.update_share)) {
          in.ops.push_back(UpdateOp(in, u, rng));
          continue;
        }
        std::vector<ContextState> states;
        for (size_t s = 0; s < kColdStates; ++s) {
          states.push_back(workload::RandomQuery(env, rng, kLiftProbability));
        }
        CTXPREF_RETURN_IF_ERROR(AddQueryOp(in, u, std::move(states), in.ops));
      }
      break;
    }
    case Kind::kChurnWrite: {
      // Zipf users; exact single-state queries beside rescores of the
      // same skewed users.
      const ZipfDistribution users(kUsers, kChurnUserZipfA);
      while (in.ops.size() < kOpCycle) {
        const size_t u = users.Sample(rng);
        if (rng.Bernoulli(spec.update_share)) {
          in.ops.push_back(UpdateOp(in, u, rng));
          continue;
        }
        CTXPREF_RETURN_IF_ERROR(AddQueryOp(
            in, u, {workload::ExactQuery(in.profiles[u], rng)}, in.ops));
      }
      break;
    }
  }
  return in;
}

// ---- The serving stack -------------------------------------------------

/// Store plus (optionally) the replicated cache. The coherence log is
/// attached *before* the population is published: attaching it later
/// leaves `max_appended()` at 0, and every replica then refuses every
/// query. Declared cache-first so the store is destroyed first.
struct Stack {
  std::unique_ptr<ReplicatedQueryCache> replicas;
  std::unique_ptr<storage::ProfileStore> store;
};

QueryOptions ServeOptions() {
  QueryOptions o;
  o.top_k = kTopK;
  o.combine = db::CombinePolicy::kMax;
  return o;
}

StatusOr<storage::ServedQuery> Serve(const Stack& stack, const Inputs& in,
                                     const Op& op, const QueryOptions& opts) {
  if (stack.replicas != nullptr) {
    return storage::ServeQueryReplicated(
        *stack.store, in.user_ids[op.user], in.poi.relation,
        in.queries[op.query], *stack.replicas, opts, nullptr, /*replica=*/0);
  }
  return storage::ServeQuery(*stack.store, in.user_ids[op.user],
                             in.poi.relation, in.queries[op.query],
                             /*cache=*/nullptr, opts);
}

Status Update(const Stack& stack, const Inputs& in, const Op& op) {
  const size_t idx = op.pref;
  const double score = op.score;
  // A rescore that would conflict keeps the old score; the publish
  // still happens.
  return stack.store->UpdateUser(in.user_ids[op.user],
                                 [idx, score](Profile& p) {
                                   (void)p.UpdateScore(idx, score);
                                   return Status::OK();
                                 });
}

struct SetupResult {
  Stack stack;
  double seconds = 0.0;
  uint64_t publish_rss_growth = 0;
};

/// Publishes the pre-generated population (copied off to the side
/// before the clock starts), builds the cache and runs the warm-up.
/// `publish_rss_growth` counts from before the copies, which the store
/// keeps, to after the last publish.
StatusOr<SetupResult> Setup(const Spec& spec, const Inputs& in) {
  const uint64_t rss_before = ResidentBytes();
  std::vector<Profile> copies = in.profiles;
  SetupResult out;
  const uint64_t start = NowNs();
  if (spec.cache) {
    ReplicatedQueryCache::Options ro;
    ro.num_replicas = 1;
    ro.capacity_per_replica = spec.cache_capacity;
    ro.mode = ReplicatedQueryCache::ConsumeMode::kInlineAtLookup;
    out.stack.replicas = std::make_unique<ReplicatedQueryCache>(
        in.poi.env, Ordering::Identity(in.poi.env->size()), ro);
  }
  out.stack.store = std::make_unique<storage::ProfileStore>(in.poi.env);
  if (out.stack.replicas != nullptr) {
    out.stack.store->AttachCoherenceLog(&out.stack.replicas->log());
  }
  for (size_t u = 0; u < copies.size(); ++u) {
    CTXPREF_RETURN_IF_ERROR(
        out.stack.store->CreateUser(in.user_ids[u], std::move(copies[u])));
  }
  const uint64_t rss_after = ResidentBytes();
  out.publish_rss_growth = rss_after > rss_before ? rss_after - rss_before : 0;
  const QueryOptions opts = ServeOptions();
  for (const Op& op : in.warmup) {
    StatusOr<storage::ServedQuery> served = Serve(out.stack, in, op, opts);
    if (!served.ok()) return served.status();
  }
  out.seconds = static_cast<double>(NowNs() - start) / 1e9;
  return out;
}

// ---- Per-layer accounting from trace spans ----------------------------

struct Mean {
  double sum = 0.0;
  uint64_t n = 0;
  void Add(double v) {
    sum += v;
    ++n;
  }
  double Get() const { return n == 0 ? 0.0 : sum / static_cast<double>(n); }
};

struct LayerStats {
  Mean pin_ns, publish_us, tree_build_us, flat_build_us;
  Mean expand_ns, states_per_query;
  Mean resolve_ns_per_state, candidates_per_state, cells_per_state;
  Mean rank_us_per_state;
  Mean select_us_per_query, rows_per_query;
  Mean hit_query_us, miss_query_us, lookup_ns, put_ns;
  Mean consume_us, records_per_consume;
  uint64_t lag_versions_max = 0;
  double root_ns = 0.0;     ///< bench.query span time.
  double covered_ns = 0.0;  ///< Its direct children's time.
};

/// Folds one op's spans into `stats`. `cache_missed` says whether the
/// op's `CachedRankCS` call missed in any state (from the `Stats()`
/// delta around it).
void FoldSpans(const std::vector<TraceEvent>& events, bool cache_missed,
               LayerStats& stats) {
  std::unordered_map<uint64_t, size_t> by_id;
  for (size_t i = 0; i < events.size(); ++i) by_id[events[i].id] = i;
  std::vector<double> child_ns(events.size(), 0.0);
  std::vector<bool> resolved_inside(events.size(), false);
  for (const TraceEvent& ev : events) {
    auto parent = by_id.find(ev.parent_id);
    if (parent == by_id.end()) continue;
    child_ns[parent->second] += static_cast<double>(ev.duration_nanos);
    if (ev.name == "resolve") resolved_inside[parent->second] = true;
  }
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& ev = events[i];
    const double ns = static_cast<double>(ev.duration_nanos);
    const std::string& name = ev.name;
    if (name == "bench.query") {
      stats.root_ns += ns;
      stats.covered_ns += child_ns[i];
    } else if (name == "bench.update") {
      stats.publish_us.Add(ns / 1e3);
    } else if (name == "bench.consume") {
      stats.consume_us.Add(ns / 1e3);
    } else if (name == "shadow.pin") {
      stats.pin_ns.Add(ns);
    } else if (name == "shadow.expand") {
      stats.expand_ns.Add(ns);
    } else if (name == "shadow.resolve") {
      stats.resolve_ns_per_state.Add(ns);
    } else if (name == "shadow.select") {
      stats.select_us_per_query.Add(ns / 1e3);
    } else if (name == "shadow.tree_build") {
      stats.tree_build_us.Add(ns / 1e3);
    } else if (name == "shadow.flat_build") {
      stats.flat_build_us.Add(ns / 1e3);
    } else if (name == "rank_cs.state" ||
               (name == "cached_rank_cs.state" && resolved_inside[i])) {
      // Self time: selection and scoring, with resolution and cache
      // calls (child spans) taken out.
      stats.rank_us_per_state.Add((ns - child_ns[i]) / 1e3);
    } else if (name == "cached_rank_cs") {
      (cache_missed ? stats.miss_query_us : stats.hit_query_us).Add(ns / 1e3);
    } else if (name == "query_cache.lookup") {
      stats.lookup_ns.Add(ns);
    } else if (name == "query_cache.put") {
      stats.put_ns.Add(ns);
    }
  }
}

// ---- The timed run ------------------------------------------------------

struct Sample {
  uint32_t query = 0;
  storage::SnapshotPtr snapshot;
  std::vector<db::ScoredTuple> tuples;
};

/// One kSliceNs of window time.
struct Slice {
  uint64_t ops = 0;
  uint64_t busy_ns = 0;  ///< Time spent inside the ops' calls.
  double scale = 1.0;    ///< Reference::Scale around the slice.
};

/// The whole window, summed over its segments. Op times are kept as
/// measured (`*_raw_ns`) and at the reference host speed (`*_ns`).
struct RunResult {
  uint64_t ops = 0, queries = 0, updates = 0, failed = 0;
  uint64_t elapsed_ns = 0;
  double scaled_elapsed_ns = 0.0;
  std::vector<double> query_ns, update_ns;
  std::vector<double> query_raw_ns, update_raw_ns;
  std::vector<Slice> slices;
  std::vector<Sample> samples;
  uint64_t answer_tuples = 0;
  CacheStats cache;  ///< Summed `Stats()` deltas of the segments.
  uint64_t stale_refuses = 0, tuples_scored = 0, registry_lookups = 0;
  // Traced runs only: per-mode op time, and the layer accounting.
  double untraced_ns = 0.0, traced_ns = 0.0;
  uint64_t untraced_ops = 0, traced_ops = 0;
  LayerStats layers;
};

void AddDelta(const CacheStats& a, const CacheStats& b, CacheStats& sum) {
  sum.lookups += b.lookups - a.lookups;
  sum.hits += b.hits - a.hits;
  sum.misses += b.misses - a.misses;
  sum.evictions += b.evictions - a.evictions;
  sum.invalidations += b.invalidations - a.invalidations;
}

/// Side-effect-free calls into the layers the serving call crosses
/// without a span of its own: pinning, descriptor expansion,
/// per-state resolution and the selections of the winning clauses.
void ShadowQuery(const Stack& stack, const Inputs& in, const Op& op,
                 const storage::ServedQuery& served, const QueryOptions& opts,
                 LayerStats& stats) {
  {
    TraceSpan span("shadow.pin");
    StatusOr<storage::SnapshotPtr> pinned =
        stack.store->GetSnapshot(in.user_ids[op.user]);
    (void)pinned;
  }
  const ContextEnvironment& env = *in.poi.env;
  std::vector<ContextState> states;
  {
    TraceSpan span("shadow.expand");
    states = in.queries[op.query].context.EnumerateStates(env);
  }
  stats.states_per_query.Add(static_cast<double>(states.size()));
  FlatResolver resolver(served.snapshot->flat_tree());
  std::vector<std::vector<CandidatePath>> best(states.size());
  for (size_t i = 0; i < states.size(); ++i) {
    AccessCounter counter;
    {
      TraceSpan span("shadow.resolve");
      best[i] = resolver.ResolveBest(states[i], opts.resolution, &counter);
    }
    stats.candidates_per_state.Add(static_cast<double>(best[i].size()));
    stats.cells_per_state.Add(static_cast<double>(counter.cells()));
  }
  size_t rows = 0;
  {
    TraceSpan span("shadow.select");
    const db::Relation& rel = in.poi.relation;
    for (const std::vector<CandidatePath>& cands : best) {
      for (const CandidatePath& cand : cands) {
        for (const ProfileTree::LeafEntry& e : cand.entries) {
          StatusOr<db::Predicate> pred = db::Predicate::Create(
              rel.schema(), e.clause.attribute, e.clause.op, e.clause.value);
          if (pred.ok()) rows += rel.Select(*pred).size();
        }
      }
    }
  }
  stats.rows_per_query.Add(static_cast<double>(rows));
}

/// Rebuilds the just-published profile's two trees off to the side —
/// the build work `UpdateUser` does without a span.
void ShadowUpdate(const Stack& stack, const Inputs& in, const Op& op) {
  StatusOr<storage::SnapshotPtr> snap =
      stack.store->GetSnapshot(in.user_ids[op.user]);
  if (!snap.ok()) return;
  std::optional<StatusOr<ProfileTree>> tree;
  {
    TraceSpan span("shadow.tree_build");
    tree.emplace(ProfileTree::Build((*snap)->profile()));
  }
  if (!tree->ok()) return;
  TraceSpan span("shadow.flat_build");
  FlatProfileTree flat = FlatProfileTree::Build(**tree);
  (void)flat;
}

/// Serves one segment of the window: replays the op cycle from
/// `next_op` for `seconds` on `stack`, slice by slice, adding to `r`.
/// The reference kernel is timed before the first slice and after each
/// one, outside the window.
void RunSegment(const Stack& stack, const Inputs& in, double seconds,
                bool trace, Reference& reference, size_t& next_op,
                RunResult& r) {
  const QueryOptions opts = ServeOptions();
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter& refuses = reg.GetCounter("ctxpref_coherence_stale_refuses_total");
  Counter& scored = reg.GetCounter("ctxpref_rank_cs_tuples_scored_total");
  Counter& lookups = reg.GetCounter("ctxpref_query_cache_lookups_total");
  const uint64_t refuses0 = refuses.value();
  const uint64_t scored0 = scored.value();
  const uint64_t lookups0 = lookups.value();
  const CacheStats cache0 =
      stack.replicas != nullptr ? stack.replicas->Stats() : CacheStats{};
  TraceRecorder recorder(1024);

  const uint64_t budget = static_cast<uint64_t>(seconds * 1e9);
  uint64_t served_ns = 0;
  double reference_ns = reference.RoundNs();
  while (served_ns < budget) {
    // Traced runs alternate untraced and traced slices, so host phases
    // hit both sides of the overhead ratio alike.
    const bool traced = trace && r.slices.size() % 2 == 1;
    const size_t queries_from = r.query_raw_ns.size();
    const size_t updates_from = r.update_raw_ns.size();
    Slice slice;
    const uint64_t start = NowNs();
    const uint64_t end = start + std::min(kSliceNs, budget - served_ns);
    uint64_t now = start;
    while (now < end) {
      const Op& op = in.ops[next_op++ % in.ops.size()];
      ++r.ops;
      ++slice.ops;
      if (op.update) {
        ++r.updates;
        if (traced) recorder.Install();
        const uint64_t t0 = NowNs();
        Status st;
        {
          TraceSpan span("bench.update");
          st = Update(stack, in, op);
        }
        now = NowNs();
        r.update_raw_ns.push_back(static_cast<double>(now - t0));
        slice.busy_ns += now - t0;
        if (!st.ok()) ++r.failed;
        if (traced) {
          r.traced_ns += static_cast<double>(now - t0);
          ++r.traced_ops;
          ShadowUpdate(stack, in, op);
        } else if (trace) {
          r.untraced_ns += static_cast<double>(now - t0);
          ++r.untraced_ops;
        }
      } else {
        ++r.queries;
        CacheStats before;
        if (traced) {
          if (stack.replicas != nullptr) before = stack.replicas->Stats();
          recorder.Install();
        }
        const uint64_t t0 = NowNs();
        if (traced && stack.replicas != nullptr) {
          r.layers.lag_versions_max =
              std::max(r.layers.lag_versions_max,
                       stack.replicas->InvalidationLagVersions());
          TraceSpan span("bench.consume");
          r.layers.records_per_consume.Add(
              static_cast<double>(stack.replicas->Consume(0)));
        }
        std::optional<StatusOr<storage::ServedQuery>> served;
        {
          TraceSpan span("bench.query");
          served.emplace(Serve(stack, in, op, opts));
        }
        now = NowNs();
        r.query_raw_ns.push_back(static_cast<double>(now - t0));
        slice.busy_ns += now - t0;
        if (trace) {
          (traced ? r.traced_ns : r.untraced_ns) +=
              static_cast<double>(now - t0);
          ++(traced ? r.traced_ops : r.untraced_ops);
        }
        if (!served->ok()) {
          ++r.failed;
        } else {
          storage::ServedQuery& answer = **served;
          r.answer_tuples += answer.result.tuples.size();
          if (traced) {
            ShadowQuery(stack, in, op, answer, opts, r.layers);
          }
          const size_t q = r.queries - 1;
          if ((q < kCrcAnswers || q % kCheckStride == 0) &&
              r.samples.size() < kMaxChecked) {
            r.samples.push_back(Sample{op.query, answer.snapshot,
                                       std::move(answer.result.tuples)});
          }
        }
        if (traced) {
          recorder.Uninstall();
          const bool missed = stack.replicas != nullptr &&
                              stack.replicas->Stats().misses != before.misses;
          FoldSpans(recorder.Events(), missed, r.layers);
          recorder.Clear();
        }
        continue;
      }
      if (traced) {
        recorder.Uninstall();
        FoldSpans(recorder.Events(), false, r.layers);
        recorder.Clear();
      }
    }
    const double after = reference.RoundNs();
    slice.scale = Reference::Scale(reference_ns, after);
    reference_ns = after;
    for (size_t i = queries_from; i < r.query_raw_ns.size(); ++i) {
      r.query_ns.push_back(r.query_raw_ns[i] * slice.scale);
    }
    for (size_t i = updates_from; i < r.update_raw_ns.size(); ++i) {
      r.update_ns.push_back(r.update_raw_ns[i] * slice.scale);
    }
    served_ns += now - start;
    r.scaled_elapsed_ns += static_cast<double>(now - start) * slice.scale;
    r.slices.push_back(slice);
  }
  r.elapsed_ns += served_ns;
  if (stack.replicas != nullptr) {
    AddDelta(cache0, stack.replicas->Stats(), r.cache);
  }
  r.stale_refuses += refuses.value() - refuses0;
  r.tuples_scored += scored.value() - scored0;
  r.registry_lookups += lookups.value() - lookups0;
}

// ---- Answer checks -------------------------------------------------------

void FoldCrc(const std::vector<db::ScoredTuple>& tuples, uint32_t& crc) {
  for (const db::ScoredTuple& t : tuples) {
    char buf[16];
    const uint64_t row = t.row_id;
    std::memcpy(buf, &row, 8);
    std::memcpy(buf + 8, &t.score, 8);
    crc = Crc32(std::string_view(buf, sizeof(buf)), crc);
  }
}

bool BitEqual(const std::vector<db::ScoredTuple>& a,
              const std::vector<db::ScoredTuple>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].row_id != b[i].row_id ||
        std::memcmp(&a[i].score, &b[i].score, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

/// Re-ranks every kept answer uncached after the window, twice: with
/// `RankCS` on the pinned snapshot's `FlatResolver` (the serving path's
/// own resolver) and on its pointer `ProfileTree` through
/// `TreeResolver`, a second implementation, so that the check can fail
/// on uncached workloads too. Compares bit for bit and returns the
/// number of mismatching answers; `crc` covers the first kCrcAnswers.
uint64_t CheckAnswers(const Inputs& in, const std::vector<Sample>& samples,
                      uint32_t& crc) {
  const QueryOptions opts = ServeOptions();
  uint64_t mismatches = 0;
  crc = 0;
  for (size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    if (i < kCrcAnswers) FoldCrc(s.tuples, crc);
    const ContextualQuery& query = in.queries[s.query];
    StatusOr<QueryResult> flat = RankCS(
        in.poi.relation, query, FlatResolver(s.snapshot->flat_tree()), opts);
    StatusOr<QueryResult> tree = RankCS(
        in.poi.relation, query, TreeResolver(&s.snapshot->tree()), opts);
    if (!flat.ok() || !tree.ok() || !BitEqual(flat->tuples, s.tuples) ||
        !BitEqual(tree->tuples, s.tuples)) {
      ++mismatches;
    }
  }
  return mismatches;
}

// ---- Output ---------------------------------------------------------------

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

int Usage() {
  std::fprintf(stderr,
               "usage: serve_bench --workload <hot_hits|cold_scan|churn_write> "
               "--seed N --seconds S --trace <0|1>\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else {
      return Usage();
    }
  }
  const Spec* spec = nullptr;
  for (const Spec& s : kSpecs) {
    if (workload == s.name) spec = &s;
  }
  if (spec == nullptr || seconds <= 0.0 || (trace != 0 && trace != 1)) {
    return Usage();
  }

  std::string why;
  if (!BuildIsMeasurable(&why)) {
    std::fprintf(stderr, "serve_bench: refusing to report timings: %s\n",
                 why.c_str());
    return 3;
  }
  // Memory a torn-down stack frees stays with the process, so the next
  // set-up and its segment reuse pages that are already mapped rather
  // than fault fresh ones in: a page fault's cost in this guest varies
  // with the host, and the first set-up alone pays for them.
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  std::printf(
      "context:{\"workload\": \"%s\", \"seed\": %llu, \"nproc\": %u, "
      "\"build_type\": \"%s\", \"compiler\": \"%s\", \"lock_rank_checks\": "
      "%d, \"trace\": %d}\n",
      spec->name, static_cast<unsigned long long>(seed),
      std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
      PERFBENCH_CXX_COMPILER, CTXPREF_LOCK_RANK_CHECKS, trace);
  std::printf("host_probe: %.3f ns/load (32 MiB pointer chase)\n",
              HostProbeNsPerLoad());
  std::fflush(stdout);

  const uint64_t gen_start = NowNs();
  StatusOr<Inputs> inputs = MakeInputs(*spec, seed);
  if (!inputs.ok()) {
    std::fprintf(stderr, "serve_bench: inputs: %s\n",
                 inputs.status().ToString().c_str());
    return 1;
  }
  const Inputs& in = *inputs;
  std::printf("inputs: %zu users, %zu pois, %zu queries, %zu ops/cycle (%.2f s)\n",
              in.user_ids.size(), in.poi.relation.size(), in.queries.size(),
              in.ops.size(), static_cast<double>(NowNs() - gen_start) / 1e9);

  // Each segment of the window is served by a stack set up just before
  // it, and one more set-up follows the window (see kSegments). Set-ups
  // are scaled to the reference host speed like the window's ops.
  Reference reference;
  std::vector<double> setup_s, setup_raw_s;
  uint64_t publish_growth = 0;
  std::optional<SetupResult> setup;
  auto set_up = [&]() {
    setup.reset();  // Tear the previous stack down before timing anew.
    const double before = reference.RoundNs();
    StatusOr<SetupResult> s = Setup(*spec, in);
    const double after = reference.RoundNs();
    if (!s.ok()) {
      std::fprintf(stderr, "serve_bench: setup: %s\n",
                   s.status().ToString().c_str());
      return false;
    }
    if (setup_s.empty()) publish_growth = s->publish_rss_growth;
    setup_raw_s.push_back(s->seconds);
    setup_s.push_back(s->seconds * Reference::Scale(before, after));
    setup.emplace(std::move(*s));
    return true;
  };
  RunResult r;
  size_t flat_bytes = 0;
  size_t next_op = 0;
  for (int segment = 0; segment < kSegments; ++segment) {
    if (!set_up()) return 1;
    if (segment == 0) {
      for (const std::string& uid : in.user_ids) {
        StatusOr<storage::SnapshotPtr> snap =
            setup->stack.store->GetSnapshot(uid);
        if (snap.ok()) flat_bytes += (*snap)->flat_tree()->MeasuredByteSize();
      }
    }
    RunSegment(setup->stack, in, seconds / kSegments, trace == 1, reference,
               next_op, r);
  }

  uint32_t crc = 0;
  const uint64_t mismatches = CheckAnswers(in, r.samples, crc);
  const uint64_t failed = r.failed + mismatches;
  const size_t checked = r.samples.size();
  r.samples.clear();  // Releases the pinned snapshots.
  if (!set_up()) return 1;
  const double setup_median = Percentile(setup_s, 0.5);
  std::printf("setup: median %.4f s of", setup_median);
  for (const double s : setup_s) std::printf(" %.4f", s);
  std::printf("; as measured");
  for (const double s : setup_raw_s) std::printf(" %.4f", s);
  std::printf("\n");

  // Self-checks: each workload must do what it claims.
  std::vector<std::string> violations;
  const double hit_ratio =
      r.cache.lookups == 0 ? 0.0
                           : static_cast<double>(r.cache.hits) /
                                 static_cast<double>(r.cache.lookups);
  const double update_share =
      static_cast<double>(r.updates) / static_cast<double>(r.ops);
  const double stale_refuse_ratio =
      r.queries == 0 ? 0.0
                     : static_cast<double>(r.stale_refuses) /
                           static_cast<double>(r.queries);
  switch (spec->kind) {
    case Kind::kHotHits:
      if (hit_ratio < kHotHitRatioFloor) {
        violations.push_back("hit ratio " + std::to_string(hit_ratio) +
                             " below floor");
      }
      if (r.stale_refuses != 0) violations.push_back("stale refuses");
      break;
    case Kind::kColdScan:
      if (r.registry_lookups != 0 || r.cache.lookups != 0) {
        violations.push_back("cache lookups on a cache-off workload");
      }
      break;
    case Kind::kChurnWrite:
      if (std::fabs(update_share - spec->update_share) > kChurnShareTolerance) {
        violations.push_back("update share " + std::to_string(update_share) +
                             " drifted from target");
      }
      break;
  }
  if (checked < std::min<uint64_t>(kCrcAnswers, r.queries)) {
    violations.push_back("answer sample incomplete");
  }
  for (const std::string& v : violations) {
    std::printf("self_check_failed: %s\n", v.c_str());
  }
  const bool correct = failed == 0 && violations.empty();
  const double window_s = static_cast<double>(r.elapsed_ns) / 1e9;

  std::printf(
      "window: %.3f s, %llu ops (%llu queries, %llu updates), update share "
      "%.4f, hit ratio %.4f, stale refuses %llu, registry cache lookups %llu\n",
      window_s, static_cast<unsigned long long>(r.ops),
      static_cast<unsigned long long>(r.queries),
      static_cast<unsigned long long>(r.updates), update_share, hit_ratio,
      static_cast<unsigned long long>(r.stale_refuses),
      static_cast<unsigned long long>(r.registry_lookups));
  std::printf(
      "answers: crc %08x over the first %zu, %zu checked, %llu mismatches, "
      "fail_ratio %.6f\n",
      crc, std::min(kCrcAnswers, checked), checked,
      static_cast<unsigned long long>(mismatches),
      static_cast<double>(failed) / static_cast<double>(r.ops));
  // Host phases show up as runs of slower slices, and the reference
  // kernel's scale follows them.
  std::printf("ops per busy second as measured @ scale, by %.2f s slice:",
              kSliceNs / 1e9);
  for (const Slice& s : r.slices) {
    std::printf(" %.0f@%.2f",
                s.busy_ns == 0 ? 0.0
                               : static_cast<double>(s.ops) * 1e9 /
                                     static_cast<double>(s.busy_ns),
                s.scale);
  }
  std::printf("\nas measured: query_p50_us %.3f, throughput_ops_s %.1f, "
              "update_p50_us %.3f, setup_s %.4f",
              Percentile(r.query_raw_ns, 0.50) / 1e3,
              static_cast<double>(r.ops) / window_s,
              Percentile(r.update_raw_ns, 0.50) / 1e3,
              Percentile(setup_raw_s, 0.50));
  // The tail is printed but is not a metric of BENCHMARK.json: from one
  // set of ten runs to the next on a shared 4-vCPU Xeon it moved by up
  // to 39%, beyond the largest regression bound a metric may have.
  std::printf("\ntail: query_p99_us %.3f us\n",
              Percentile(r.query_ns, 0.99) / 1e3);

  const double queries = static_cast<double>(std::max<uint64_t>(r.queries, 1));
  std::vector<Metric> metrics;
  if (trace == 0) {
    metrics = {
        {"setup_s", setup_median, "s"},
        {"query_p50_us", Percentile(r.query_ns, 0.50) / 1e3, "us"},
        {"throughput_ops_s",
         static_cast<double>(r.ops) * 1e9 / r.scaled_elapsed_ns, "1/s"},
        {"update_p50_us", Percentile(r.update_ns, 0.50) / 1e3, "us"},
        {"peak_rss_mb", PeakRssMb(), "MiB"},
    };
  } else {
    const LayerStats& L = r.layers;
    const double users = static_cast<double>(in.user_ids.size());
    const double untraced =
        r.untraced_ops == 0 ? 0.0 : r.untraced_ns / r.untraced_ops;
    const double traced = r.traced_ops == 0 ? 0.0 : r.traced_ns / r.traced_ops;
    metrics = {
        {"storage.pin_ns", L.pin_ns.Get(), "ns"},
        {"storage.publish_us", L.publish_us.Get(), "us"},
        {"storage.tree_build_us", L.tree_build_us.Get(), "us"},
        {"storage.flat_build_us", L.flat_build_us.Get(), "us"},
        {"storage.bytes_per_user", static_cast<double>(publish_growth) / users,
         "B"},
        {"storage.flat_bytes_per_user", static_cast<double>(flat_bytes) / users,
         "B"},
        {"context.states_per_query", L.states_per_query.Get(), "count"},
        {"context.expand_ns", L.expand_ns.Get(), "ns"},
        {"resolve.ns_per_state", L.resolve_ns_per_state.Get(), "ns"},
        {"resolve.candidates_per_state", L.candidates_per_state.Get(), "count"},
        {"resolve.cells_per_state", L.cells_per_state.Get(), "count"},
        {"rank.us_per_state", L.rank_us_per_state.Get(), "us"},
        {"rank.tuples_scored_per_query",
         static_cast<double>(r.tuples_scored) / queries, "count"},
        {"rank.answer_tuples_per_query",
         static_cast<double>(r.answer_tuples) / queries, "count"},
        {"db.select_us_per_query", L.select_us_per_query.Get(), "us"},
        {"db.rows_selected_per_query", L.rows_per_query.Get(), "count"},
        {"cache.hit_ratio", hit_ratio, "ratio"},
        {"cache.hit_query_us", L.hit_query_us.Get(), "us"},
        {"cache.miss_query_us", L.miss_query_us.Get(), "us"},
        {"cache.lookup_ns", L.lookup_ns.Get(), "ns"},
        {"cache.put_ns", L.put_ns.Get(), "ns"},
        {"cache.evictions", static_cast<double>(r.cache.evictions), "count"},
        {"cache.invalidations", static_cast<double>(r.cache.invalidations),
         "count"},
        {"coherence.consume_us", L.consume_us.Get(), "us"},
        {"coherence.records_per_consume", L.records_per_consume.Get(), "count"},
        {"coherence.stale_refuse_ratio", stale_refuse_ratio, "ratio"},
        {"coherence.lag_versions_max", static_cast<double>(L.lag_versions_max),
         "versions"},
        {"trace.overhead_ratio", untraced == 0.0 ? 0.0 : traced / untraced,
         "ratio"},
        {"trace.covered_ratio", L.root_ns == 0.0 ? 0.0 : L.covered_ns / L.root_ns,
         "ratio"},
    };
  }
  for (const Metric& m : metrics) {
    std::printf("metric: %-30s %14.4f %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::printf("%s\n", ResultJson(correct, r.ops, failed, metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace ctxpref::perfbench

int main(int argc, char** argv) { return ctxpref::perfbench::Main(argc, argv); }
