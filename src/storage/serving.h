#ifndef CTXPREF_STORAGE_SERVING_H_
#define CTXPREF_STORAGE_SERVING_H_

#include <memory>
#include <string>
#include <utility>

#include "preference/contextual_query.h"
#include "preference/query_cache.h"
#include "preference/replicated_query_cache.h"
#include "storage/admission.h"
#include "storage/profile_store.h"
#include "util/counters.h"
#include "util/status.h"

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
  /// Front-door outcome. Without a controller: kShedDeadline for an
  /// already-expired deadline, else kAdmitted.
  AdmissionDecision admission = AdmissionDecision::kAdmitted;
  /// True when a deadline expiry (at admission or mid-evaluation)
  /// pushed the request down the ladder.
  bool deadline_hit = false;

  /// "fresh" | "stale-v<served_version>" | "truncated" | "shed".
  std::string ToString() const;
};

/// A ranked answer plus the exact snapshot it was computed from, so
/// callers can attribute every tuple and trace to one published
/// profile version (the zero-torn-reads property `bench_coherence` and
/// `ServingConcurrentTest` check). `provenance` says which ladder rung of
/// `ServeQuery` served it.
struct ServedQuery {
  QueryResult result;
  SnapshotPtr snapshot;
  ServingProvenance provenance;
};

/// "Pick the replica by thread" sentinel for the `replica` argument of
/// the serving entry point.
inline constexpr size_t kAnyReplica = ~static_cast<size_t>(0);

/// The multi-user serving entry point: pins `user_id`'s current
/// snapshot (version V), ranks `query` against that one immutable
/// profile version, and returns the answer together with the snapshot
/// it came from and the `ServingProvenance` of the rung that served it.
///
///   1. **Pin** the snapshot (O(1); the ladder needs V anyway).
///   2. **Gate** (only with `cache`): pick a replica — `replica` if
///      given, else a stable hash of the calling thread (`kAnyReplica`);
///      one at or beyond `cache->num_replicas()` is InvalidArgument. In
///      `kInlineAtLookup` mode run the replica's consume step, then use
///      the replica's tree iff its clock covers V. Otherwise count a
///      stale refuse and serve *uncached* rather than read a replica
///      that may still hold entries the log says are dead
///      (docs/coherence.md).
///   3. **Admission** (only with `admission`): admit or shed, never
///      queue. An already-expired `options.deadline` is shed here too,
///      with or without a controller.
///   4. **Rung 0, fresh**: full `RankCS` at V through the gated tree
///      (entries tagged `{user_id, V}`), deadline-checked at every
///      cancellation point.
///   5. **Rung 1, stale** (only when the gate covered a replica): a
///      cached answer with every query state at ONE older version,
///      at most the cache's `staleness_window` behind V — mixed
///      versions would be a torn answer, the thing this layer exists
///      to prevent. Skipped for options the cache cannot answer
///      (`CheckCacheableOptions`).
///   6. **Rung 2, truncated**: the first query state only, uncached,
///      at `options.top_k` (10 when it is 0). Keeps the deadline, so an
///      expired one aborts this rung too.
///   7. Off the ladder: kUnavailable.
///
/// A request shed at the door or out of deadline mid-evaluation falls
/// to the next rung instead of failing. A request with no `admission`
/// and no deadline never leaves rung 0, so its answer is byte-identical
/// to the snapshot-level `ServeQuery` at V. Errors other than
/// deadline/shed (unknown user, bad predicate) return unchanged — the
/// ladder absorbs overload, not bugs.
StatusOr<ServedQuery> ServeQuery(const ProfileStore& store,
                                 const std::string& user_id,
                                 const db::Relation& relation,
                                 const ContextualQuery& query,
                                 ReplicatedQueryCache* cache = nullptr,
                                 const QueryOptions& options = {},
                                 AccessCounter* counter = nullptr,
                                 size_t replica = kAnyReplica,
                                 AdmissionController* admission = nullptr);

/// Ranks against an already-pinned snapshot — the form for callers
/// that run several queries against one consistent version — through
/// `cache` (one replica tree, already gated by the caller) or uncached
/// when it is null.
StatusOr<QueryResult> ServeQuery(const ProfileSnapshot& snapshot,
                                 const db::Relation& relation,
                                 const ContextualQuery& query,
                                 ContextQueryTree* cache = nullptr,
                                 const QueryOptions& options = {},
                                 AccessCounter* counter = nullptr);

/// `ServeQuery(store, user_id, relation, query, &replicas, options,
/// counter, replica)`, under its older name: perfbench/serve_bench.cc
/// still calls it. The next change to the benchmark deletes it.
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
