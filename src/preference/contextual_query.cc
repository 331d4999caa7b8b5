#include "preference/contextual_query.h"

#include <cmath>
#include <memory>

#include "preference/threshold_merge.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace ctxpref {

RankMetrics& RankMetrics::Get() {
  MetricsRegistry& reg = MetricsRegistry::Global();
  static RankMetrics* m = new RankMetrics{
      reg.GetCounter("ctxpref_rank_cs_queries_total",
                     "Plain (uncached) Rank_CS query evaluations"),
      reg.GetCounter("ctxpref_rank_cs_cached_queries_total",
                     "CachedRankCS query evaluations"),
      reg.GetCounter("ctxpref_rank_cs_states_total",
                     "Query context states evaluated across Rank_CS runs"),
      reg.GetCounter("ctxpref_rank_cs_tuples_scored_total",
                     "Source rows read by the Rank_CS merge (ranker additions "
                     "under min/avg/weighted)"),
      reg.GetCounter("ctxpref_rank_cs_deadline_exceeded_total",
                     "Rank_CS evaluations aborted at a cancellation point"),
      reg.GetCounter("ctxpref_rank_cs_states_abandoned_total",
                     "Query states left unevaluated by deadline aborts"),
      reg.GetHistogram("ctxpref_rank_cs_latency_ns",
                       "End-to-end Rank_CS latency (plain and cached)"),
  };
  return *m;
}

const char* ScoreDiscountToString(ScoreDiscount d) {
  switch (d) {
    case ScoreDiscount::kNone:
      return "none";
    case ScoreDiscount::kInverseDistance:
      return "inverse-distance";
    case ScoreDiscount::kExponential:
      return "exponential";
  }
  return "?";
}

double ApplyDiscount(ScoreDiscount discount, double score, double distance) {
  switch (discount) {
    case ScoreDiscount::kNone:
      return score;
    case ScoreDiscount::kInverseDistance:
      return score / (1.0 + distance);
    case ScoreDiscount::kExponential:
      return score * std::exp2(-distance);
  }
  return score;
}

StatusOr<QueryResult> RankCS(const db::Relation& relation,
                             const ContextualQuery& query,
                             const ContextEnvironment& env,
                             const ResolveFn& resolve,
                             const QueryOptions& options,
                             AccessCounter* counter) {
  RankMetrics& metrics = RankMetrics::Get();
  TraceSpan span("rank_cs");
  ScopedLatency latency(&metrics.latency);
  QueryResult result;

  std::vector<ContextState> states = query.context.EnumerateStates(env);
  if (states.empty()) {
    // No context at all: treat as the (all, ..., all) state so that
    // non-contextual preferences (empty descriptors) still apply.
    states.push_back(ContextState::AllState(env));
  }
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
  // One constant-score source per resolved leaf entry, in state,
  // candidate, entry order; each reads its clause out of the trace's
  // candidate set.
  std::vector<ScoredSource> sources;
  for (ContextState& s : states) {
    // Cancellation point: one null check when no deadline is set, one
    // injected-clock read otherwise.
    if (options.deadline.Expired()) return deadline_exceeded();
    CTXPREF_RETURN_IF_ERROR(s.Validate(env));
    TraceSpan state_span("rank_cs.state");
    CandidateSetPtr best = std::make_shared<const std::vector<CandidatePath>>(
        resolve(s, options.resolution, counter));
    for (const CandidatePath& cand : *best) {
      for (const ProfileTree::LeafEntry& entry : cand.entries) {
        StatusOr<ScoredSource> source = ScoredSource::Clause(
            relation, entry.clause,
            ApplyDiscount(options.discount, entry.score, cand.distance));
        if (!source.ok()) return source.status();
        sources.push_back(*source);
      }
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
  metrics.queries.Increment();
  metrics.states.Increment(states.size());
  metrics.tuples_scored.Increment(tuples_scored);
  if (span.active()) {
    span.Tag("states", static_cast<uint64_t>(states.size()));
    span.Tag("tuples", static_cast<uint64_t>(result.tuples.size()));
    span.Tag("scored", tuples_scored);
  }
  return result;
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
                             AccessCounter* counter) {
  return RankCS(
      relation, query, resolver.tree().env(),
      [&resolver](const ContextState& s, const ResolutionOptions& opts,
                  AccessCounter* c) { return resolver.ResolveBest(s, opts, c); },
      options, counter);
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
