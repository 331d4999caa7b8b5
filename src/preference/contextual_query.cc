#include "preference/contextual_query.h"

#include <bit>
#include <cstdint>
#include <memory>

#include "preference/query_cache.h"
#include "preference/threshold_merge.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace ctxpref {

namespace {

/// Query-path metrics of `RankCS` (cached and uncached), living in
/// `MetricsRegistry::Global()` (see docs/observability.md for the
/// catalog). Counters tick unconditionally; the latency histogram
/// records only while `MetricsRegistry::TimingEnabled()`.
struct RankMetrics {
  Counter& queries;         ///< ctxpref_rank_cs_queries_total
  Counter& cached_queries;  ///< ctxpref_rank_cs_cached_queries_total
  Counter& states;          ///< ctxpref_rank_cs_states_total
  Counter& tuples_scored;   ///< ctxpref_rank_cs_tuples_scored_total
  Counter& deadline_exceeded;  ///< ctxpref_rank_cs_deadline_exceeded_total
  Counter& states_abandoned;   ///< ctxpref_rank_cs_states_abandoned_total
  Counter& rescore_rebuilds;   ///< ctxpref_rank_cs_rescore_rebuilds_total
  LatencyHistogram& latency;  ///< ctxpref_rank_cs_latency_ns

  static RankMetrics& Get();
};

RankMetrics& RankMetrics::Get() {
  MetricsRegistry& reg = MetricsRegistry::Global();
  static RankMetrics* m = new RankMetrics{
      reg.GetCounter("ctxpref_rank_cs_queries_total",
                     "Plain (uncached) Rank_CS query evaluations"),
      reg.GetCounter("ctxpref_rank_cs_cached_queries_total",
                     "Rank_CS query evaluations through a context query tree"),
      reg.GetCounter("ctxpref_rank_cs_states_total",
                     "Query context states evaluated across Rank_CS runs"),
      reg.GetCounter("ctxpref_rank_cs_tuples_scored_total",
                     "Source rows read by the Rank_CS merge, not counting "
                     "sources skipped as repeats of an identical clause "
                     "(ranker additions under min/avg)"),
      reg.GetCounter("ctxpref_rank_cs_deadline_exceeded_total",
                     "Rank_CS evaluations aborted at a cancellation point"),
      reg.GetCounter("ctxpref_rank_cs_states_abandoned_total",
                     "Query states left unevaluated by deadline aborts"),
      reg.GetCounter("ctxpref_rank_cs_rescore_rebuilds_total",
                     "Re-score hits whose winners' scores had moved, so "
                     "the state's list was rebuilt (the rest re-tag)"),
      reg.GetHistogram("ctxpref_rank_cs_latency_ns",
                       "End-to-end Rank_CS latency (plain and cached)"),
  };
  return *m;
}

/// Appends one constant-score source per leaf entry of `candidates`, in
/// candidate, entry order; each reads its clause out of the candidate
/// set, which must outlive the sources.
Status AppendClauseSources(const db::Relation& relation,
                           const std::vector<CandidatePath>& candidates,
                           std::vector<ScoredSource>& sources) {
  for (const CandidatePath& cand : candidates) {
    for (const ProfileTree::LeafEntry& entry : cand.entries) {
      StatusOr<ScoredSource> source =
          ScoredSource::Clause(relation, entry.clause, entry.score);
      if (!source.ok()) return source.status();
      sources.push_back(*source);
    }
  }
  return Status::OK();
}

/// A re-score hit's winners at the pinned `arena`, which shares the
/// shape they were resolved under: the same states and distances, with
/// each leaf's entries as the arena holds them now. Returns `cached`
/// itself when every entry's score is bit-equal to the arena's — no
/// clause is copied and nothing is allocated — and null if a winner's
/// leaf is missing, which a shared shape rules out.
CandidateSetPtr Rescored(const FlatProfileTree& arena,
                         const CandidateSetPtr& cached,
                         AccessCounter* counter) {
  bool same = true;
  for (const CandidatePath& cand : *cached) {
    const uint32_t leaf = arena.ExactLookup(cand.state, counter);
    if (leaf == FlatProfileTree::kNoLeaf) return nullptr;
    const size_t n = cand.entries.size();
    same = arena.EntryCount(leaf) == n;
    for (size_t k = 0; same && k < n; ++k) {
      same = std::bit_cast<uint64_t>(arena.EntryAt(leaf, k).score()) ==
             std::bit_cast<uint64_t>(cand.entries[k].score);
    }
    if (!same) break;
  }
  if (same) return cached;
  auto rescored = std::make_shared<std::vector<CandidatePath>>();
  rescored->reserve(cached->size());
  for (const CandidatePath& cand : *cached) {
    const uint32_t leaf = arena.ExactLookup(cand.state, counter);
    if (leaf == FlatProfileTree::kNoLeaf) return nullptr;
    rescored->push_back(
        CandidatePath{cand.state, cand.distance, arena.EntriesOf(leaf)});
  }
  return rescored;
}

}  // namespace

StatusOr<std::vector<ContextState>> QueryStates(const ContextualQuery& query,
                                                const ContextEnvironment& env) {
  std::vector<ContextState> states = query.context.EnumerateStates(env);
  if (states.empty()) states.push_back(ContextState::AllState(env));
  for (const ContextState& s : states) {
    CTXPREF_RETURN_IF_ERROR(s.Validate(env));
  }
  return states;
}

namespace {

/// Rank_CS over `resolve`. With `arena` (the `FlatResolver` overload:
/// the pinned arena `resolve` reads), a cached entry resolved over the
/// arena's shape at an older version is a re-score hit.
StatusOr<QueryResult> RankOver(const db::Relation& relation,
                               const ContextualQuery& query,
                               const ContextEnvironment& env,
                               const ResolveFn& resolve,
                               const FlatProfileTree* arena,
                               const QueryOptions& options,
                               AccessCounter* counter,
                               const StateCache* cache) {
  if (cache != nullptr) CTXPREF_RETURN_IF_ERROR(CheckCacheableOptions(options));
  RankMetrics& metrics = RankMetrics::Get();
  TraceSpan span(cache != nullptr ? "cached_rank_cs" : "rank_cs");
  ScopedLatency latency(&metrics.latency);
  QueryResult result;

  StatusOr<std::vector<ContextState>> query_states = QueryStates(query, env);
  if (!query_states.ok()) return query_states.status();
  std::vector<ContextState>& states = *query_states;
  result.traces.reserve(states.size());

  // Ticked per query, not per tuple: one relaxed add in the inner loop
  // per scored tuple would be measurable in the benches.
  uint64_t tuples_scored = 0;
  size_t states_done = 0;
  // Partial-work accounting for deadline aborts: which state the loop
  // died in, how many finished, how much was already scored.
  auto deadline_exceeded = [&]() -> Status {
    metrics.deadline_exceeded.Increment();
    metrics.states.Increment(states_done);
    metrics.states_abandoned.Increment(states.size() - states_done);
    metrics.tuples_scored.Increment(tuples_scored);
    return Status::DeadlineExceeded(
        "rank_cs: deadline exceeded after " + std::to_string(states_done) +
        "/" + std::to_string(states.size()) + " states (" +
        std::to_string(tuples_scored) + " tuples scored)");
  };
  // Uncached: one constant-score source per resolved leaf entry, in
  // state, candidate, entry order. Cached: one list source per state,
  // reading the entry held in `entries` until the merge ends.
  std::vector<ScoredSource> sources;
  sources.reserve(states.size());
  std::vector<std::shared_ptr<const ContextQueryTree::Entry>> entries;
  if (cache != nullptr) entries.reserve(states.size());
  const CacheConfig config = CacheConfig::Of(options);
  const uint64_t shape_id = arena != nullptr ? arena->shape_id() : 0;
  for (ContextState& s : states) {
    // Cancellation point: one null check when no deadline is set, one
    // injected-clock read otherwise.
    if (options.deadline.Expired()) return deadline_exceeded();
    TraceSpan state_span(cache != nullptr ? "cached_rank_cs.state"
                                          : "rank_cs.state");
    ContextQueryTree::Hit hit;
    if (cache != nullptr) {
      hit = cache->tree->LookupOrRescore(*cache->user, s, cache->version,
                                         shape_id, config, counter);
    }
    std::shared_ptr<const ContextQueryTree::Entry> entry = std::move(hit.entry);
    CandidateSetPtr best = entry != nullptr ? entry->candidates : nullptr;
    if (hit.rescore) {
      // The winners hold under the shared shape; only scores may have
      // moved. Unchanged scores re-tag the entry at this version as it
      // is; changed ones rebuild the state's list below, as a miss
      // would, from the winners' current entries.
      best = Rescored(*arena, best, counter);
      if (best == entry->candidates) {
        cache->tree->PutEntry(*cache->user, s, cache->version, entry);
      } else {
        metrics.rescore_rebuilds.Increment();
        entry = nullptr;
      }
    }
    if (best == nullptr) {
      best = std::make_shared<const std::vector<CandidatePath>>(
          resolve(s, options.resolution, counter));
    }
    if (cache == nullptr) {
      CTXPREF_RETURN_IF_ERROR(AppendClauseSources(relation, *best, sources));
    } else {
      if (entry == nullptr) {
        // Cancellation point: resolution paid for, the state's
        // selections not yet.
        if (options.deadline.Expired()) return deadline_exceeded();
        std::vector<ScoredSource> clauses;
        CTXPREF_RETURN_IF_ERROR(AppendClauseSources(relation, *best, clauses));
        // The cached list is the state's whole ranking: no cut, and no
        // selections (an entry is keyed by context state only).
        entry = std::make_shared<const ContextQueryTree::Entry>(
            ContextQueryTree::Entry{
                RankSources(relation, clauses, {}, options.combine,
                            /*top_k=*/0, &tuples_scored),
                best, config, shape_id});
        cache->tree->PutEntry(*cache->user, s, cache->version, entry);
      }
      sources.push_back(ScoredSource::List(entry->tuples));
      entries.push_back(std::move(entry));
    }
    result.traces.push_back(QueryResult::Trace{std::move(s), std::move(best)});
    ++states_done;
  }
  // Cancellation point: resolution paid for, the selections and the
  // merge — the expensive part — not yet.
  if (options.deadline.Expired()) return deadline_exceeded();
  {
    TraceSpan merge_span("rank_cs.merge");
    result.tuples = RankSources(relation, sources, query.selections,
                                options.combine, options.top_k, &tuples_scored);
  }
  (cache != nullptr ? metrics.cached_queries : metrics.queries).Increment();
  metrics.states.Increment(states.size());
  metrics.tuples_scored.Increment(tuples_scored);
  if (span.active()) {
    span.Tag("states", static_cast<uint64_t>(states.size()));
    span.Tag("tuples", static_cast<uint64_t>(result.tuples.size()));
    span.Tag("scored", tuples_scored);
  }
  return result;
}

}  // namespace

StatusOr<QueryResult> RankCS(const db::Relation& relation,
                             const ContextualQuery& query,
                             const ContextEnvironment& env,
                             const ResolveFn& resolve,
                             const QueryOptions& options,
                             AccessCounter* counter, const StateCache* cache) {
  return RankOver(relation, query, env, resolve, /*arena=*/nullptr, options,
                  counter, cache);
}

StatusOr<QueryResult> RankCS(const db::Relation& relation,
                             const ContextualQuery& query,
                             const TreeResolver& resolver,
                             const QueryOptions& options,
                             AccessCounter* counter) {
  return RankCS(
      relation, query, resolver.tree().env(),
      [&resolver](const ContextState& s, const ResolutionOptions& opts,
                  AccessCounter* c) { return resolver.ResolveBest(s, opts, c); },
      options, counter);
}

StatusOr<QueryResult> RankCS(const db::Relation& relation,
                             const ContextualQuery& query,
                             const FlatResolver& resolver,
                             const QueryOptions& options,
                             AccessCounter* counter, const StateCache* cache) {
  return RankOver(
      relation, query, resolver.tree().env(),
      [&resolver](const ContextState& s, const ResolutionOptions& opts,
                  AccessCounter* c) { return resolver.ResolveBest(s, opts, c); },
      &resolver.tree(), options, counter, cache);
}

StatusOr<QueryResult> RankCS(const db::Relation& relation,
                             const ContextualQuery& query,
                             const SequentialStore& store,
                             const QueryOptions& options,
                             AccessCounter* counter) {
  return RankCS(
      relation, query, store.env(),
      [&store](const ContextState& s, const ResolutionOptions& opts,
               AccessCounter* c) { return store.ResolveBest(s, opts, c); },
      options, counter);
}

}  // namespace ctxpref
