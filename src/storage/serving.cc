#include "storage/serving.h"

#include "preference/resolution.h"
#include "preference/threshold_merge.h"
#include "util/metrics.h"

namespace ctxpref::storage {

namespace {

LatencyHistogram& ReaderPinHistogram() {
  static LatencyHistogram* h = &MetricsRegistry::Global().GetHistogram(
      "ctxpref_profile_reader_pin_ns",
      "How long readers keep a ProfileSnapshot pinned");
  return *h;
}

/// Degradation-ladder outcome mix for the store-level `ServeQuery` (the
/// admission decisions themselves are counted in admission.cc).
struct ServingMetrics {
  Counter& requests;
  Counter& fresh;
  Counter& stale;
  Counter& truncated;
  Counter& unavailable;
  Counter& deadline_hits;

  static ServingMetrics& Get() {
    MetricsRegistry& reg = MetricsRegistry::Global();
    static ServingMetrics* m = new ServingMetrics{
        reg.GetCounter("ctxpref_serving_requests_total",
                       "Store-level ServeQuery requests"),
        reg.GetCounter("ctxpref_serving_fresh_total",
                       "Answers served by full evaluation"),
        reg.GetCounter("ctxpref_serving_stale_total",
                       "Answers served from the bounded-staleness cache rung"),
        reg.GetCounter("ctxpref_serving_truncated_total",
                       "Answers served by the truncated top-k rung"),
        reg.GetCounter("ctxpref_serving_unavailable_total",
                       "Requests that fell off the ladder (kUnavailable)"),
        reg.GetCounter("ctxpref_serving_deadline_hits_total",
                       "Requests pushed down the ladder by deadline expiry"),
    };
    return *m;
  }
};

}  // namespace

const char* ServedViaToString(ServedVia v) {
  switch (v) {
    case ServedVia::kFresh:
      return "fresh";
    case ServedVia::kStale:
      return "stale";
    case ServedVia::kTruncated:
      return "truncated";
    case ServedVia::kShed:
      return "shed";
  }
  return "unknown";
}

std::string ServingProvenance::ToString() const {
  switch (via) {
    case ServedVia::kStale:
      return "stale-v" + std::to_string(served_version);
    case ServedVia::kFresh:
    case ServedVia::kTruncated:
    case ServedVia::kShed:
      return ServedViaToString(via);
  }
  return "unknown";
}

SnapshotPin::SnapshotPin(SnapshotPtr snapshot)
    : snapshot_(std::move(snapshot)),
      start_nanos_(MetricsRegistry::TimingEnabled() ? MonotonicNanos() : 0) {}

SnapshotPin::~SnapshotPin() {
  if (start_nanos_ != 0 && snapshot_ != nullptr) {
    ReaderPinHistogram().Record(MonotonicNanos() - start_nanos_);
  }
}

StatusOr<QueryResult> ServeQuery(const ProfileSnapshot& snapshot,
                                 const db::Relation& relation,
                                 const ContextualQuery& query,
                                 ContextQueryTree* cache,
                                 const QueryOptions& options,
                                 AccessCounter* counter) {
  FlatResolver resolver(snapshot.flat_tree());
  // Tag entries with the snapshot's own identity: the serving version
  // is unique across swaps, so a stale entry can never be mistaken for
  // a current one.
  const StateCache state_cache{cache, &snapshot.user_id(),
                               snapshot.serving_version()};
  return RankCS(relation, query, resolver, options, counter,
                cache != nullptr ? &state_cache : nullptr);
}

namespace {

/// The read side of the cache protocol: picks the replica, runs its
/// inline consume step, and returns its tree iff the replica's clock
/// covers the pinned `version`. `Covers` reads the clock with acquire,
/// pairing with the consume step's release store: a covered replica
/// has applied every invalidation record at or below the pinned
/// version (modulo appends still in flight — harmless, their versions
/// exceed any tag a hit could match; see docs/coherence.md). A refused
/// read counts a stale refuse and gets null: it serves uncached and
/// skips the stale rung. A `replica` index the cache does not have is
/// InvalidArgument.
StatusOr<ContextQueryTree*> GateReplica(ReplicatedQueryCache* cache,
                                        size_t replica, uint64_t version) {
  if (cache == nullptr) return static_cast<ContextQueryTree*>(nullptr);
  if (replica != kAnyReplica && replica >= cache->num_replicas()) {
    return Status::InvalidArgument(
        "serving: replica " + std::to_string(replica) + " out of range (" +
        std::to_string(cache->num_replicas()) + " replicas)");
  }
  const size_t r =
      replica == kAnyReplica ? cache->ReplicaForThisThread() : replica;
  if (cache->options().mode ==
      ReplicatedQueryCache::ConsumeMode::kInlineAtLookup) {
    cache->Consume(r);
  }
  if (cache->Covers(r, version)) return &cache->replica(r);
  ReplicatedQueryCache::RecordStaleRefuse();
  return nullptr;
}

/// Ladder rung 1: a cached answer with every query state at ONE
/// consistent older serving version — mixed versions would be exactly
/// the torn answer the serving layer promises never to produce. The
/// lists go through cached `RankCS`'s merge (one list source per state,
/// `RankSources`), so the result is bit-identical to a direct
/// ServeQuery pinned at that version — the differential test's property.
bool TryServeStale(const std::string& user_id, const db::Relation& relation,
                   const ContextualQuery& query,
                   const std::vector<ContextState>& states,
                   ContextQueryTree& cache, uint64_t current_version,
                   uint64_t staleness_window, const QueryOptions& options,
                   AccessCounter* counter, QueryResult* out,
                   uint64_t* served_version) {
  if (states.empty()) return false;
  // Same rule as cached RankCS: per-state lists answer only an
  // associative combine.
  if (!CheckCacheableOptions(options).ok()) return false;
  const uint64_t min_version = current_version > staleness_window
                                   ? current_version - staleness_window
                                   : 0;
  // The first state picks the consistent version V (newest available
  // within the window); every other state must then hit exactly V.
  uint64_t version = 0;
  // Lists computed under other options (combine, resolution) miss.
  const CacheConfig config = CacheConfig::Of(options);
  std::vector<std::shared_ptr<const ContextQueryTree::Entry>> entries;
  entries.reserve(states.size());
  std::shared_ptr<const ContextQueryTree::Entry> first =
      cache.LookupAtOrBefore(user_id, states[0], current_version, min_version,
                             config, &version, counter);
  if (first == nullptr) return false;
  entries.push_back(std::move(first));
  for (size_t i = 1; i < states.size(); ++i) {
    std::shared_ptr<const ContextQueryTree::Entry> e = cache.LookupAtOrBefore(
        user_id, states[i], version, version, config, nullptr, counter);
    if (e == nullptr) return false;
    entries.push_back(std::move(e));
  }

  QueryResult result;
  std::vector<ScoredSource> sources;
  sources.reserve(states.size());
  for (size_t i = 0; i < states.size(); ++i) {
    sources.push_back(ScoredSource::List(entries[i]->tuples));
    result.traces.push_back(
        QueryResult::Trace{states[i], entries[i]->candidates});
  }
  result.tuples = RankSources(relation, sources, query.selections,
                              options.combine, options.top_k);
  *out = std::move(result);
  *served_version = version;
  return true;
}

}  // namespace

StatusOr<ServedQuery> ServeQuery(const ProfileStore& store,
                                 const std::string& user_id,
                                 const db::Relation& relation,
                                 const ContextualQuery& query,
                                 ReplicatedQueryCache* cache,
                                 const QueryOptions& options,
                                 AccessCounter* counter, size_t replica,
                                 AdmissionController* admission) {
  ServingMetrics& metrics = ServingMetrics::Get();
  metrics.requests.Increment();

  // Pinning is O(1) and the ladder's stale rung needs the pinned
  // version anyway, so the snapshot is pinned before admission.
  StatusOr<SnapshotPtr> snapshot = store.GetSnapshot(user_id);
  if (!snapshot.ok()) return snapshot.status();
  SnapshotPin pin(*snapshot);

  ServingProvenance provenance;
  provenance.current_version = pin->serving_version();
  // The one gate of this request: fresh and stale rungs both read only
  // this replica, and only if its clock covers the pinned version.
  StatusOr<ContextQueryTree*> gated =
      GateReplica(cache, replica, provenance.current_version);
  if (!gated.ok()) return gated.status();
  ContextQueryTree* tree = *gated;

  // Front door: admit or shed, never queue. An expired deadline sheds
  // here too (kShedDeadline) — one clock read instead of a full
  // evaluation up to the first cancellation point.
  AdmissionController::Ticket ticket;
  bool admitted = true;
  if (admission != nullptr) {
    ticket = admission->Admit(options.deadline);
    provenance.admission = ticket.decision();
    admitted = ticket.admitted();
    if (ticket.decision() == AdmissionDecision::kShedDeadline) {
      provenance.deadline_hit = true;
    }
  } else if (options.deadline.Expired()) {
    provenance.admission = AdmissionDecision::kShedDeadline;
    provenance.deadline_hit = true;
    admitted = false;
  }

  // Rung 0: full evaluation at the pinned version, deadline-checked at
  // every cancellation point along the way.
  if (admitted) {
    StatusOr<QueryResult> result =
        ServeQuery(*pin, relation, query, tree, options, counter);
    if (result.ok()) {
      metrics.fresh.Increment();
      provenance.served_version = provenance.current_version;
      return ServedQuery{std::move(*result), pin.snapshot(), provenance};
    }
    if (!result.status().IsDeadlineExceeded()) {
      return result.status();  // A bug, not overload: surface it.
    }
    provenance.deadline_hit = true;
  }
  if (provenance.deadline_hit) metrics.deadline_hits.Increment();

  // The ladder needs the enumerated query states (the stale rung joins
  // per-state cache entries; the truncated rung keeps only the first).
  const ContextEnvironment& env = pin->flat_tree()->env();
  StatusOr<std::vector<ContextState>> query_states = QueryStates(query, env);
  if (!query_states.ok()) return query_states.status();
  const std::vector<ContextState>& states = *query_states;

  // Rung 1: a cached answer at one older version, reaching back as far
  // as the cache retains entries.
  if (tree != nullptr) {
    QueryResult stale;
    uint64_t served_version = 0;
    if (TryServeStale(user_id, relation, query, states, *tree,
                      provenance.current_version,
                      cache->options().staleness_window, options, counter,
                      &stale, &served_version)) {
      metrics.stale.Increment();
      provenance.via = ServedVia::kStale;
      provenance.served_version = served_version;
      return ServedQuery{std::move(stale), pin.snapshot(), provenance};
    }
  }

  // Rung 2: truncated answer — first state only, the request's top-k
  // (10 when unbounded), no cache writes. Keeps the request's deadline:
  // if it is already gone, the first cancellation point aborts this
  // rung too.
  StatusOr<CompositeDescriptor> first_cod =
      CompositeDescriptor::ForState(env, states[0]);
  if (first_cod.ok()) {
    ContextualQuery truncated_query{
        ExtendedDescriptor::FromComposite(std::move(*first_cod)),
        query.selections};
    QueryOptions truncated_options = options;
    if (truncated_options.top_k == 0) truncated_options.top_k = 10;
    StatusOr<QueryResult> result =
        ServeQuery(*pin, relation, truncated_query, /*cache=*/nullptr,
                   truncated_options, counter);
    if (result.ok()) {
      metrics.truncated.Increment();
      provenance.via = ServedVia::kTruncated;
      provenance.served_version = provenance.current_version;
      return ServedQuery{std::move(*result), pin.snapshot(), provenance};
    }
    if (!result.status().IsDeadlineExceeded()) return result.status();
  }

  // Off the ladder.
  metrics.unavailable.Increment();
  return Status::Unavailable(
      std::string("serving: request shed (") +
      AdmissionDecisionToString(provenance.admission) +
      (provenance.deadline_hit ? ", deadline expired" : "") +
      "), no degraded answer available");
}

StatusOr<ServedQuery> ServeQueryReplicated(const ProfileStore& store,
                                           const std::string& user_id,
                                           const db::Relation& relation,
                                           const ContextualQuery& query,
                                           ReplicatedQueryCache& replicas,
                                           const QueryOptions& options,
                                           AccessCounter* counter,
                                           size_t replica) {
  return ServeQuery(store, user_id, relation, query, &replicas, options,
                    counter, replica);
}

}  // namespace ctxpref::storage
