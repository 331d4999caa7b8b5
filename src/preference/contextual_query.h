#ifndef CTXPREF_PREFERENCE_CONTEXTUAL_QUERY_H_
#define CTXPREF_PREFERENCE_CONTEXTUAL_QUERY_H_

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "context/descriptor.h"
#include "db/ranker.h"
#include "db/relation.h"
#include "preference/resolution.h"
#include "preference/sequential_store.h"
#include "util/counters.h"
#include "util/deadline.h"
#include "util/status.h"

namespace ctxpref {

class ThreadPool;  // util/thread_pool.h
class Counter;           // util/metrics.h
class LatencyHistogram;  // util/histogram.h

/// Query-path metrics shared by `RankCS` and `CachedRankCS`, living in
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
  LatencyHistogram& latency;  ///< ctxpref_rank_cs_latency_ns

  static RankMetrics& Get();
};

/// A contextual query CQ (paper Def. 9): a query over the database
/// relation enhanced with an extended context descriptor. The
/// descriptor may come from the user's *current* context (one detailed
/// state) or be an explicit exploratory descriptor (Def. 8).
struct ContextualQuery {
  ExtendedDescriptor context;
  /// Optional extra selection predicates restricting which tuples may
  /// appear in the answer (e.g. "type = museum"); empty = whole
  /// relation is eligible.
  std::vector<db::Predicate> selections;
};

/// How (whether) a resolved preference's interest score is discounted
/// by the distance between its context state and the query state —
/// an extension of the paper's combining-function hook (§3.2/§4.4):
/// preferences that apply only via a distant covering state arguably
/// deserve less influence than near-exact matches.
enum class ScoreDiscount {
  kNone,             ///< Paper behavior: scores used as stated.
  kInverseDistance,  ///< score / (1 + distance).
  kExponential,      ///< score · 2^(-distance).
};

const char* ScoreDiscountToString(ScoreDiscount d);

/// Applies `discount` to `score` for a candidate at `distance`.
double ApplyDiscount(ScoreDiscount discount, double score, double distance);

/// Options for Rank_CS. Selection has no switch here: every clause runs
/// through the relation's own selection structures (`SelectClause`).
struct QueryOptions {
  ResolutionOptions resolution;
  /// Distance-based score discounting (kNone = the paper's semantics).
  ScoreDiscount discount = ScoreDiscount::kNone;
  /// Score-combination policy for tuples matched by several resolved
  /// preferences (paper §4.4).
  db::CombinePolicy combine = db::CombinePolicy::kMax;
  /// 0 = return all scored tuples.
  size_t top_k = 0;
  /// Worker threads for `CachedRankCS`'s per-state loop. 1 = evaluate
  /// states inline (the historical behavior); > 1 spreads the states of
  /// the extended descriptor over a `ThreadPool`. The merge order is
  /// fixed, so results do not depend on this value.
  size_t num_threads = 1;
  /// Optional shared worker pool for `CachedRankCS`. When set it takes
  /// precedence over `num_threads` (whose > 1 case spins up a transient
  /// pool per call — fine for exploratory queries, wasteful under
  /// server-style traffic). The pool may be shared by many queries.
  ThreadPool* pool = nullptr;
  /// Cache namespace for `CachedRankCS`'s `Profile&` overload: entries
  /// are tagged `{cache_user, profile.version()}` in the
  /// `ContextQueryTree`, so one shared cache can serve several users
  /// without mixing their results. The serving layer
  /// (`storage::ServeQuery`) ignores this and tags entries with the
  /// pinned snapshot's user id and serving version instead.
  std::string cache_user;
  /// When false, `storage::ServeQuery` resolves against the snapshot's
  /// pointer tree even when an arena-flattened tree is available.
  /// Ablation switch for the scenario harness (`flat = off`); both
  /// paths produce identical results, so this only changes cost.
  bool prefer_flat = true;
  /// Cancellation budget for the whole evaluation. Checked at cheap
  /// cancellation points — the per-state loops of `RankCS` /
  /// `CachedRankCS` and `ThreadPool` task dequeue (an expired queued
  /// state task is dropped, not run) — so an overloaded server stops
  /// spending cycles on answers nobody is waiting for. Expiry surfaces
  /// as `kDeadlineExceeded` with partial-work accounting in the
  /// message. Default: infinite (one null check per cancellation
  /// point). Declared last so existing designated initializers keep
  /// compiling.
  util::Deadline deadline;
};

/// σ_{A θ a}(relation) for one resolved attribute clause, the one
/// selection call of `RankCS` and of `CachedRankCS`'s miss path: calls
/// `visit(row)` for every matching row id, in row order, read in place
/// from the relation's own selection structures (the clause's constant
/// is not copied). NotFound / InvalidArgument when the clause does not
/// bind against the relation's schema (see `db::BindColumn`).
template <typename Visit>
Status SelectClause(const db::Relation& relation, const AttributeClause& clause,
                    Visit&& visit) {
  StatusOr<size_t> column =
      db::BindColumn(relation.schema(), clause.attribute, clause.value.type());
  if (!column.ok()) return column.status();
  relation.ForEachMatch(*column, clause.op, clause.value,
                        std::forward<Visit>(visit));
  return Status::OK();
}

/// Result of Rank_CS: scored tuples plus resolution diagnostics
/// (which preference states were used — the paper's usability study
/// leans on this traceability).
struct QueryResult {
  std::vector<db::ScoredTuple> tuples;
  /// Per query state: the chosen candidate paths (min distance, ties
  /// kept). Empty candidates = no covering preference for that state.
  struct Trace {
    ContextState query_state;
    std::vector<CandidatePath> candidates;
  };
  std::vector<Trace> traces;
};

/// Context-resolution backend Rank_CS draws candidates from; adapters
/// below wrap the profile tree and the sequential baseline so the
/// benchmark can swap them.
using ResolveFn = std::function<std::vector<CandidatePath>(
    const ContextState&, const ResolutionOptions&, AccessCounter*)>;

/// The paper's Rank_CS (Algorithm 2): for every state of the query's
/// extended descriptor, resolve the most relevant preferences, run each
/// resulting attribute clause as a selection over `relation`, annotate
/// qualifying tuples with the clause's score, combine duplicates under
/// `options.combine`, and return the ranked answer.
StatusOr<QueryResult> RankCS(const db::Relation& relation,
                             const ContextualQuery& query,
                             const ContextEnvironment& env,
                             const ResolveFn& resolve,
                             const QueryOptions& options = {},
                             AccessCounter* counter = nullptr);

/// Rank_CS against a profile tree (the paper's primary configuration).
StatusOr<QueryResult> RankCS(const db::Relation& relation,
                             const ContextualQuery& query,
                             const TreeResolver& resolver,
                             const QueryOptions& options = {},
                             AccessCounter* counter = nullptr);

/// Rank_CS against the arena-flattened tree (the serving hot path).
StatusOr<QueryResult> RankCS(const db::Relation& relation,
                             const ContextualQuery& query,
                             const FlatResolver& resolver,
                             const QueryOptions& options = {},
                             AccessCounter* counter = nullptr);

/// Rank_CS against the sequential baseline.
StatusOr<QueryResult> RankCS(const db::Relation& relation,
                             const ContextualQuery& query,
                             const SequentialStore& store,
                             const QueryOptions& options = {},
                             AccessCounter* counter = nullptr);

}  // namespace ctxpref

#endif  // CTXPREF_PREFERENCE_CONTEXTUAL_QUERY_H_
