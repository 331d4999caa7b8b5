#include "storage/serving.h"

#include "preference/replicated_query_cache.h"
#include "preference/resolution.h"
#include "util/metrics.h"

namespace ctxpref::storage {

namespace {

LatencyHistogram& ReaderPinHistogram() {
  static LatencyHistogram* h = &MetricsRegistry::Global().GetHistogram(
      "ctxpref_profile_reader_pin_ns",
      "How long readers keep a ProfileSnapshot pinned");
  return *h;
}

/// Degradation-ladder outcome mix for `ServeQueryResilient` (the
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
                       "ServeQueryResilient requests"),
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
  // Resolve against the snapshot's arena-flattened tree when it has
  // one (ProfileStore always publishes with it); the pointer tree is
  // the fallback for manually-built snapshots. Both produce identical
  // results — the differential tests pin that down — so this is purely
  // a hot-path choice. `options.prefer_flat = false` (the harness's
  // `flat = off` ablation) forces the pointer-tree fallback.
  const FlatProfileTree* flat =
      options.prefer_flat ? snapshot.flat_tree() : nullptr;
  if (flat != nullptr) {
    FlatResolver resolver(flat);
    if (cache != nullptr) {
      // Tag entries with the snapshot's own identity, never
      // options.cache_user / Profile::version(): the serving version is
      // unique across swaps, so a stale entry can never be mistaken for
      // a current one.
      return CachedRankCS(relation, query, resolver, snapshot.user_id(),
                          snapshot.serving_version(), *cache, options,
                          counter);
    }
    return RankCS(relation, query, resolver, options, counter);
  }
  TreeResolver resolver(&snapshot.tree());
  if (cache != nullptr) {
    return CachedRankCS(relation, query, resolver, snapshot.user_id(),
                        snapshot.serving_version(), *cache, options, counter);
  }
  return RankCS(relation, query, resolver, options, counter);
}

StatusOr<ServedQuery> ServeQuery(const ProfileStore& store,
                                 const std::string& user_id,
                                 const db::Relation& relation,
                                 const ContextualQuery& query,
                                 ContextQueryTree* cache,
                                 const QueryOptions& options,
                                 AccessCounter* counter) {
  StatusOr<SnapshotPtr> snapshot = store.GetSnapshot(user_id);
  if (!snapshot.ok()) return snapshot.status();
  SnapshotPin pin(*snapshot);
  StatusOr<QueryResult> result =
      ServeQuery(*pin, relation, query, cache, options, counter);
  if (!result.ok()) return result.status();
  return ServedQuery{std::move(*result), pin.snapshot(), ServingProvenance{}};
}

namespace {

/// Ladder rung 1: a cached answer with every query state at ONE
/// consistent older serving version — mixed versions would be exactly
/// the torn answer the serving layer promises never to produce. The
/// lists go through CachedRankCS's own merge (`MergeStateLists`), so
/// the result is bit-identical to a direct ServeQuery pinned at that
/// version — the differential test's property.
bool TryServeStale(const std::string& user_id, const db::Relation& relation,
                   const ContextualQuery& query,
                   const std::vector<ContextState>& states,
                   ContextQueryTree& cache, uint64_t current_version,
                   uint64_t max_stale_versions, const QueryOptions& options,
                   AccessCounter* counter, QueryResult* out,
                   uint64_t* served_version) {
  if (states.empty()) return false;
  // Same rule as CachedRankCS: per-state lists answer only an
  // associative combine with undiscounted scores.
  if (!CheckCacheableOptions(options).ok()) return false;
  const uint64_t min_version = current_version > max_stale_versions
                                   ? current_version - max_stale_versions
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
  std::vector<const std::vector<db::ScoredTuple>*> lists;
  lists.reserve(states.size());
  for (size_t i = 0; i < states.size(); ++i) {
    lists.push_back(&entries[i]->tuples);
    result.traces.push_back(QueryResult::Trace{
        states[i], entries[i]->candidates != nullptr
                       ? *entries[i]->candidates
                       : std::vector<CandidatePath>{}});
  }
  result.tuples = MergeStateLists(relation, lists, query.selections,
                                  options.combine, options.top_k);
  *out = std::move(result);
  *served_version = version;
  return true;
}

}  // namespace

StatusOr<ServedQuery> ServeQueryResilient(const ProfileStore& store,
                                          const std::string& user_id,
                                          const db::Relation& relation,
                                          const ContextualQuery& query,
                                          ContextQueryTree* cache,
                                          const ServeOptions& opts,
                                          AccessCounter* counter) {
  ServingMetrics& metrics = ServingMetrics::Get();
  metrics.requests.Increment();

  // Pinning is O(1) and the ladder's stale rung needs the pinned
  // version anyway, so the snapshot is pinned before admission.
  StatusOr<SnapshotPtr> snapshot = store.GetSnapshot(user_id);
  if (!snapshot.ok()) return snapshot.status();
  SnapshotPin pin(*snapshot);

  ServingProvenance provenance;
  provenance.current_version = pin->serving_version();

  // Front door: admit or shed, never queue. An expired deadline sheds
  // here too (kShedDeadline) — one clock read instead of a full pin +
  // first-cancellation-point round trip.
  AdmissionController::Ticket ticket;
  bool admitted = true;
  if (opts.admission != nullptr) {
    ticket = opts.admission->Admit(opts.priority, opts.query.deadline);
    provenance.admission = ticket.decision();
    admitted = ticket.admitted();
    if (ticket.decision() == AdmissionDecision::kShedDeadline) {
      provenance.deadline_hit = true;
    }
  } else if (opts.query.deadline.Expired()) {
    provenance.admission = AdmissionDecision::kShedDeadline;
    provenance.deadline_hit = true;
    admitted = false;
  }

  // Rung 0: full evaluation at the pinned version, deadline-checked at
  // every cancellation point along the way.
  if (admitted) {
    StatusOr<QueryResult> result =
        ServeQuery(*pin, relation, query, cache, opts.query, counter);
    if (result.ok()) {
      metrics.fresh.Increment();
      provenance.via = ServedVia::kFresh;
      provenance.served_version = pin->serving_version();
      return ServedQuery{std::move(*result), pin.snapshot(), provenance};
    }
    if (!result.status().IsDeadlineExceeded()) {
      return result.status();  // A bug, not overload: surface it.
    }
    provenance.deadline_hit = true;
    metrics.deadline_hits.Increment();
  } else if (provenance.deadline_hit) {
    metrics.deadline_hits.Increment();
  }

  // The ladder needs the enumerated query states (the stale rung joins
  // per-state cache entries; the truncated rung keeps only the first).
  const ContextEnvironment& env = pin->tree().env();
  std::vector<ContextState> states = query.context.EnumerateStates(env);
  if (states.empty()) states.push_back(ContextState::AllState(env));
  for (const ContextState& s : states) {
    CTXPREF_RETURN_IF_ERROR(s.Validate(env));
  }

  // Rung 1: bounded-staleness cached answer at one older version.
  if (cache != nullptr && opts.allow_stale && opts.max_stale_versions > 0) {
    QueryResult stale;
    uint64_t served_version = 0;
    if (TryServeStale(user_id, relation, query, states, *cache,
                      pin->serving_version(), opts.max_stale_versions,
                      opts.query, counter, &stale, &served_version)) {
      metrics.stale.Increment();
      provenance.via = ServedVia::kStale;
      provenance.served_version = served_version;
      return ServedQuery{std::move(stale), pin.snapshot(), provenance};
    }
  }

  // Rung 2: truncated answer — first state only, reduced top-k, no
  // cache writes. Keeps the request's deadline: if it is already gone,
  // the first cancellation point aborts this rung too.
  if (opts.allow_truncated) {
    StatusOr<CompositeDescriptor> first_cod =
        CompositeDescriptor::ForState(env, states[0]);
    if (first_cod.ok()) {
      ContextualQuery truncated_query{
          ExtendedDescriptor::FromComposite(std::move(*first_cod)),
          query.selections};
      QueryOptions truncated_options = opts.query;
      truncated_options.top_k = opts.truncated_top_k;
      truncated_options.num_threads = 1;
      truncated_options.pool = nullptr;
      StatusOr<QueryResult> result =
          ServeQuery(*pin, relation, truncated_query, /*cache=*/nullptr,
                     truncated_options, counter);
      if (result.ok()) {
        metrics.truncated.Increment();
        provenance.via = ServedVia::kTruncated;
        provenance.served_version = pin->serving_version();
        return ServedQuery{std::move(*result), pin.snapshot(), provenance};
      }
      if (!result.status().IsDeadlineExceeded()) return result.status();
    }
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
  StatusOr<SnapshotPtr> snapshot = store.GetSnapshot(user_id);
  if (!snapshot.ok()) return snapshot.status();
  SnapshotPin pin(*snapshot);
  const uint64_t pinned_version = pin->serving_version();

  const size_t r =
      replica == kAnyReplica ? replicas.ReplicaForThisThread() : replica;
  if (replicas.options().mode ==
      ReplicatedQueryCache::ConsumeMode::kInlineAtLookup) {
    replicas.Consume(r);
  }
  // The coherence gate. `Covers` reads the clock with acquire, pairing
  // with the consume step's release store: a covered replica has
  // applied every invalidation record at or below the pinned version
  // (modulo appends still in flight — harmless, their versions exceed
  // any tag a hit could match; see docs/coherence.md).
  ContextQueryTree* tree = nullptr;
  if (replicas.Covers(r, pinned_version)) {
    tree = &replicas.replica(r);
  } else {
    ReplicatedQueryCache::RecordStaleRefuse();
  }
  StatusOr<QueryResult> result =
      ServeQuery(*pin, relation, query, tree, options, counter);
  if (!result.ok()) return result.status();
  ServingProvenance provenance;
  provenance.via = ServedVia::kFresh;
  provenance.served_version = pinned_version;
  provenance.current_version = pinned_version;
  return ServedQuery{std::move(*result), pin.snapshot(), provenance};
}

}  // namespace ctxpref::storage
