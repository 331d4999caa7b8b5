#ifndef CTXPREF_STORAGE_SERVING_H_
#define CTXPREF_STORAGE_SERVING_H_

#include <memory>
#include <string>
#include <utility>

#include "preference/contextual_query.h"
#include "preference/query_cache.h"
#include "storage/admission.h"
#include "storage/profile_store.h"
#include "util/counters.h"
#include "util/status.h"

namespace ctxpref {
class ReplicatedQueryCache;
}

namespace ctxpref::storage {

/// RAII pin on a `ProfileSnapshot`: holds the snapshot alive for the
/// duration of a read (one or more ranked queries) and records the pin
/// duration into `ctxpref_profile_reader_pin_ns` on release — the
/// histogram that tells an operator how long retired snapshots can
/// stay referenced (and thus how much memory a churning writer can
/// pin). The duration is recorded only while
/// `MetricsRegistry::TimingEnabled()`.
class SnapshotPin {
 public:
  explicit SnapshotPin(SnapshotPtr snapshot);
  ~SnapshotPin();

  SnapshotPin(const SnapshotPin&) = delete;
  SnapshotPin& operator=(const SnapshotPin&) = delete;
  SnapshotPin(SnapshotPin&& other) noexcept
      : snapshot_(std::move(other.snapshot_)),
        start_nanos_(other.start_nanos_) {
    other.start_nanos_ = 0;
  }

  const ProfileSnapshot& operator*() const { return *snapshot_; }
  const ProfileSnapshot* operator->() const { return snapshot_.get(); }
  const SnapshotPtr& snapshot() const { return snapshot_; }

 private:
  SnapshotPtr snapshot_;
  uint64_t start_nanos_;  ///< 0 = untimed (or moved-from).
};

/// How an answer was produced, mirroring PR 3's per-parameter
/// acquisition report at the whole-query level: callers (and the
/// differential tests) can tell a full fresh answer from every rung of
/// the degradation ladder.
enum class ServedVia {
  kFresh,      ///< Full evaluation at the pinned snapshot version.
  kStale,      ///< Cached answer at an older consistent serving version.
  kTruncated,  ///< First-state-only, reduced top-k evaluation.
  kShed,       ///< Nothing served (paired with kUnavailable status).
};

const char* ServedViaToString(ServedVia v);

struct ServingProvenance {
  ServedVia via = ServedVia::kFresh;
  /// Serving version the answer's data reflects (== `current_version`
  /// for fresh/truncated; older for stale; 0 for shed).
  uint64_t served_version = 0;
  /// Serving version pinned at request time.
  uint64_t current_version = 0;
  /// Front-door outcome (kAdmitted when no controller was involved).
  AdmissionDecision admission = AdmissionDecision::kAdmitted;
  /// True when a deadline expiry (at admission or mid-evaluation)
  /// pushed the request down the ladder.
  bool deadline_hit = false;

  /// "fresh" | "stale-v<served_version>" | "truncated" | "shed".
  std::string ToString() const;
};

/// A ranked answer plus the exact snapshot it was computed from, so
/// callers can attribute every tuple and trace to one published
/// profile version (the zero-torn-reads property bench_serving and the
/// concurrency tests check). `provenance` is filled by
/// `ServeQueryResilient`; the plain `ServeQuery` always serves fresh.
struct ServedQuery {
  QueryResult result;
  SnapshotPtr snapshot;
  ServingProvenance provenance;
};

/// The multi-user serving entry point: pins `user_id`'s current
/// snapshot, ranks `query` against that one immutable profile-tree
/// version, and returns the answer together with the snapshot it came
/// from. With `cache` non-null the per-state results go through
/// `CachedRankCS`, tagged `{user_id, serving version}` — safe across
/// concurrent profile swaps (see docs/serving.md); with `cache` null
/// it is a plain uncached `RankCS`. `options.cache_user` is ignored:
/// the snapshot's user id is authoritative here.
StatusOr<ServedQuery> ServeQuery(const ProfileStore& store,
                                 const std::string& user_id,
                                 const db::Relation& relation,
                                 const ContextualQuery& query,
                                 ContextQueryTree* cache = nullptr,
                                 const QueryOptions& options = {},
                                 AccessCounter* counter = nullptr);

/// Ranks against an already-pinned snapshot — the form for callers
/// that run several queries against one consistent version.
StatusOr<QueryResult> ServeQuery(const ProfileSnapshot& snapshot,
                                 const db::Relation& relation,
                                 const ContextualQuery& query,
                                 ContextQueryTree* cache = nullptr,
                                 const QueryOptions& options = {},
                                 AccessCounter* counter = nullptr);

/// Overload-protection knobs for `ServeQueryResilient`.
struct ServeOptions {
  /// The underlying query options; `query.deadline` is the request's
  /// cancellation budget (checked at admission and at every query-path
  /// cancellation point).
  QueryOptions query;
  /// Front door; null = always admitted (deadline still enforced).
  AdmissionController* admission = nullptr;
  QueryPriority priority = QueryPriority::kInteractive;
  /// Ladder rung 1: serve a cached answer at an older serving version.
  /// Requires a cache in retain-stale mode to be useful, options the
  /// cache can answer (`CheckCacheableOptions`: kMax/kMin, no score
  /// discount — the rung is skipped otherwise), and every query
  /// state cached at ONE consistent version — mixed versions would be a
  /// torn answer, the thing this whole layer exists to prevent.
  bool allow_stale = true;
  /// How far back (in serving versions) rung 1 may reach.
  uint64_t max_stale_versions = 8;
  /// Ladder rung 2: evaluate only the first query state, top-k
  /// truncated, no cache writes.
  bool allow_truncated = true;
  size_t truncated_top_k = 10;
};

/// `ServeQuery` wrapped in the overload-protection ladder
/// (docs/robustness.md "Serving under overload"):
///
///   admission -> full evaluation -> stale-at-version -> truncated
///   -> kUnavailable
///
/// A request that is shed by the `AdmissionController` or runs out of
/// deadline mid-evaluation falls to the next rung instead of failing;
/// every answer carries a `ServingProvenance` saying which rung served
/// it. Errors other than deadline/shed (unknown user, bad predicate)
/// return unchanged — the ladder only absorbs overload, not bugs.
StatusOr<ServedQuery> ServeQueryResilient(const ProfileStore& store,
                                          const std::string& user_id,
                                          const db::Relation& relation,
                                          const ContextualQuery& query,
                                          ContextQueryTree* cache = nullptr,
                                          const ServeOptions& opts = {},
                                          AccessCounter* counter = nullptr);

/// "Pick the replica by thread" sentinel for `ServeQueryReplicated`.
inline constexpr size_t kAnyReplica = ~static_cast<size_t>(0);

/// `ServeQuery` through one replica of a `ReplicatedQueryCache` kept
/// coherent by the log-based scheme (docs/coherence.md). The flow:
///
///   1. Pin `user_id`'s current snapshot (version V).
///   2. Pick a replica — `replica` if given, else a stable hash of the
///      calling thread (`kAnyReplica`).
///   3. In `kInlineAtLookup` mode, run the replica's consume step so
///      its clock catches up to the append watermark.
///   4. **Gate**: if the replica's clock covers V, serve through the
///      replica's tree (exact-version hits; misses recompute and Put).
///      Otherwise count a stale refuse and serve *uncached* — the miss
///      path — rather than read through a replica that may still hold
///      entries the log says are dead beyond the staleness window.
///
/// Either branch ranks against the same pinned snapshot, so the answer
/// is byte-identical to a single-cache or uncached `ServeQuery` at the
/// same serving version (the differential suite's property); the gate
/// only decides whether the replica's cache may *participate*.
StatusOr<ServedQuery> ServeQueryReplicated(const ProfileStore& store,
                                           const std::string& user_id,
                                           const db::Relation& relation,
                                           const ContextualQuery& query,
                                           ReplicatedQueryCache& replicas,
                                           const QueryOptions& options = {},
                                           AccessCounter* counter = nullptr,
                                           size_t replica = kAnyReplica);

}  // namespace ctxpref::storage

#endif  // CTXPREF_STORAGE_SERVING_H_
