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
/// profile version (the zero-torn-reads property `bench_coherence` and
/// `ServingConcurrentTest` check). `provenance` says which ladder rung of
/// `ServeQueryResilient` served it; the plain `ServeQuery` always
/// serves fresh.
struct ServedQuery {
  QueryResult result;
  SnapshotPtr snapshot;
  ServingProvenance provenance;
};

/// "Pick the replica by thread" sentinel for the `replica` argument of
/// the serving entry points.
inline constexpr size_t kAnyReplica = ~static_cast<size_t>(0);

/// The multi-user serving entry point: pins `user_id`'s current
/// snapshot (version V), ranks `query` against that one immutable
/// profile version, and returns the answer together with the snapshot
/// it came from. With `cache` null it is a plain uncached `RankCS`.
/// With `cache` non-null the read follows the cache protocol
/// (docs/coherence.md):
///
///   1. Pick a replica — `replica` if given, else a stable hash of the
///      calling thread (`kAnyReplica`). A `replica` at or beyond
///      `cache->num_replicas()` is InvalidArgument.
///   2. In `kInlineAtLookup` mode, run the replica's consume step so
///      its clock catches up to the log's append watermark.
///   3. **Gate**: if the replica's clock covers V, serve through the
///      replica's tree (`RankCS` with a `StateCache`, entries tagged
///      `{user_id, V}`). Otherwise count a stale refuse and serve
///      *uncached* rather than read a replica that may still hold
///      entries the log says are dead.
///
/// Either branch ranks against the same pinned snapshot, so the answer
/// is byte-identical to an uncached serve at the same serving version;
/// the gate only decides whether the replica's cache may participate.
StatusOr<ServedQuery> ServeQuery(const ProfileStore& store,
                                 const std::string& user_id,
                                 const db::Relation& relation,
                                 const ContextualQuery& query,
                                 ReplicatedQueryCache* cache = nullptr,
                                 const QueryOptions& options = {},
                                 AccessCounter* counter = nullptr,
                                 size_t replica = kAnyReplica);

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
  /// Needs a cache replica the coherence gate covered (a refused
  /// replica skips the rung), options the cache can answer
  /// (`CheckCacheableOptions`: kMax/kMin, no score discount — the rung
  /// is skipped otherwise), and every query state cached at ONE
  /// consistent version — mixed versions would be a torn answer, the
  /// thing this whole layer exists to prevent. The cache's
  /// `staleness_window` bounds how far back entries survive the
  /// consume step.
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
///
/// `cache` and `replica` work as in `ServeQuery`: the replica is picked,
/// consumed and gated once, right after the pin, and both the fresh
/// rung and the stale rung read only a replica the gate covered.
StatusOr<ServedQuery> ServeQueryResilient(const ProfileStore& store,
                                          const std::string& user_id,
                                          const db::Relation& relation,
                                          const ContextualQuery& query,
                                          ReplicatedQueryCache* cache = nullptr,
                                          const ServeOptions& opts = {},
                                          AccessCounter* counter = nullptr,
                                          size_t replica = kAnyReplica);

/// `ServeQuery(store, user_id, relation, query, &replicas, options,
/// counter, replica)`, under its older name (perfbench/serve_bench.cc
/// still calls it).
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
