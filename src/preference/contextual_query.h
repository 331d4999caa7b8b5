#ifndef CTXPREF_PREFERENCE_CONTEXTUAL_QUERY_H_
#define CTXPREF_PREFERENCE_CONTEXTUAL_QUERY_H_

#include <functional>
#include <memory>
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

class ContextQueryTree;  // preference/query_cache.h

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

/// The context states a query is evaluated over: its descriptor's
/// states, or the single (all, ..., all) state when it has none (so
/// non-contextual preferences, empty descriptors, still apply). Every
/// state is validated against `env`; the first invalid one is the
/// error. `RankCS` and the serving ladder's stale and truncated rungs
/// all start from it.
StatusOr<std::vector<ContextState>> QueryStates(const ContextualQuery& query,
                                                const ContextEnvironment& env);

/// Options for Rank_CS. Selection has no switch here: every clause runs
/// through the relation's own selection structures (`ScoredSource`).
struct QueryOptions {
  ResolutionOptions resolution;
  /// Score-combination policy for tuples matched by several resolved
  /// preferences (paper §4.4).
  db::CombinePolicy combine = db::CombinePolicy::kMax;
  /// 0 = return all scored tuples.
  size_t top_k = 0;
  /// Cancellation budget for the whole evaluation. Checked at cheap
  /// cancellation points — `RankCS`'s per-state loop — so an
  /// overloaded server stops spending cycles on answers nobody is
  /// waiting for. Expiry surfaces as `kDeadlineExceeded` with
  /// partial-work accounting in the message.
  /// Default: infinite (one null check per cancellation point).
  /// Declared last so existing designated initializers keep compiling.
  util::Deadline deadline;
};

/// A shared immutable set of winning candidate paths. A query trace
/// and the cache entry it was served from hold the same set, so a hit
/// copies no candidates (states, entries, clause strings).
using CandidateSetPtr = std::shared_ptr<const std::vector<CandidatePath>>;

/// Result of Rank_CS: scored tuples plus resolution diagnostics
/// (which preference states were used — the paper's usability study
/// leans on this traceability).
struct QueryResult {
  std::vector<db::ScoredTuple> tuples;
  /// Per query state: the chosen candidate paths (min distance, ties
  /// kept), never null. An empty set = no covering preference for that
  /// state.
  struct Trace {
    ContextState query_state;
    CandidateSetPtr candidates;
  };
  std::vector<Trace> traces;
};

/// Context-resolution backend Rank_CS draws candidates from; adapters
/// below wrap the profile tree and the sequential baseline so the
/// benchmark can swap them.
using ResolveFn = std::function<std::vector<CandidatePath>(
    const ContextState&, const ResolutionOptions&, AccessCounter*)>;

/// The context query tree a `RankCS` call reads and fills, and the key
/// its entries carry, `{*user, version}`: serving passes a pinned
/// snapshot's user id and *serving* version; a caller ranking one
/// in-place-edited `Profile` may pass `("", profile.version())` as long
/// as that object is never replaced wholesale (docs/serving.md). Both
/// pointers must stay valid for the call.
struct StateCache {
  ContextQueryTree* tree;
  const std::string* user;
  uint64_t version;
};

/// The paper's Rank_CS (Algorithm 2): for every state of the query's
/// extended descriptor, resolve the most relevant preferences, run each
/// resulting attribute clause as a selection over `relation`, annotate
/// qualifying tuples with the clause's score, combine duplicates under
/// `options.combine`, and return the ranked answer. Every resolved leaf
/// entry is one constant-score `ScoredSource`; the sources are combined
/// by `RankSources` — under kMax a threshold merge that reads only the
/// levels down to the k-th score's tie run.
///
/// Every state is validated before any is resolved; the loop returns at
/// the first state that fails (a deadline expiry reports how many
/// completed). With `cache` set, each state is first looked up: an
/// entry holds the state's whole ranked list (unselected, uncut) and
/// candidates, and a miss resolves the state, builds that list and
/// caches it. The merge then takes one list source per state
/// and re-applies the query's selections. A combine other than kMax/kMin
/// returns `CheckCacheableOptions`' InvalidArgument.
StatusOr<QueryResult> RankCS(const db::Relation& relation,
                             const ContextualQuery& query,
                             const ContextEnvironment& env,
                             const ResolveFn& resolve,
                             const QueryOptions& options = {},
                             AccessCounter* counter = nullptr,
                             const StateCache* cache = nullptr);

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
                             AccessCounter* counter = nullptr,
                             const StateCache* cache = nullptr);

/// Rank_CS against the sequential baseline.
StatusOr<QueryResult> RankCS(const db::Relation& relation,
                             const ContextualQuery& query,
                             const SequentialStore& store,
                             const QueryOptions& options = {},
                             AccessCounter* counter = nullptr);

}  // namespace ctxpref

#endif  // CTXPREF_PREFERENCE_CONTEXTUAL_QUERY_H_
