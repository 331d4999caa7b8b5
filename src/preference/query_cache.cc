#include "preference/query_cache.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <exception>

#include "preference/threshold_merge.h"
#include "util/metrics.h"
#include "util/mutex.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace ctxpref {

namespace {

/// Global (cross-instance) cache metrics; per-shard exactness lives in
/// `ShardStats`/`ShardLookupLatency` on each tree.
struct CacheMetrics {
  Counter& lookups;
  Counter& hits;
  Counter& misses;
  Counter& invalidations;
  Counter& evictions;
  LatencyHistogram& hit_latency;
  LatencyHistogram& miss_latency;
  LatencyHistogram& put_latency;

  static CacheMetrics& Get() {
    MetricsRegistry& reg = MetricsRegistry::Global();
    static CacheMetrics* m = new CacheMetrics{
        reg.GetCounter("ctxpref_query_cache_lookups_total",
                       "ContextQueryTree lookups (hits + misses)"),
        reg.GetCounter("ctxpref_query_cache_hits_total",
                       "ContextQueryTree lookup hits"),
        reg.GetCounter("ctxpref_query_cache_misses_total",
                       "ContextQueryTree lookup misses"),
        reg.GetCounter("ctxpref_query_cache_invalidations_total",
                       "Entries dropped by InvalidateUser(Below)"),
        reg.GetCounter("ctxpref_query_cache_evictions_total",
                       "LRU evictions beyond shard capacity"),
        reg.GetHistogram("ctxpref_query_cache_hit_latency_ns",
                         "Lookup latency when the entry was served"),
        reg.GetHistogram("ctxpref_query_cache_miss_latency_ns",
                         "Lookup latency when the caller must recompute"),
        reg.GetHistogram("ctxpref_query_cache_put_latency_ns",
                         "Put latency including any eviction"),
    };
    return *m;
  }
};

/// Lookup-path registry counters are flushed from the shard-local
/// accumulators every this many lookups (per shard), so the hot path
/// costs plain increments under the shard lock, not global atomic
/// RMWs. The registry lags exact per-shard stats by < one stride.
constexpr uint64_t kMetricsFlushStride = 64;

}  // namespace

ContextQueryTree::ContextQueryTree(EnvironmentPtr env, Ordering order,
                                   size_t capacity, size_t num_shards)
    : env_(std::move(env)), order_(std::move(order)) {
  assert(order_.size() == env_->size());
  if (num_shards == 0) num_shards = 1;
  // More shards than capacity would give every shard a budget of 1 and
  // let the global bound balloon to num_shards; clamp instead.
  if (capacity > 0 && num_shards > capacity) num_shards = capacity;
  // Split the budget evenly; rounding up keeps at least the requested
  // total (a bounded cache must never become unbounded per shard), at
  // the cost of overshooting `capacity` by up to num_shards - 1.
  shard_capacity_ =
      capacity == 0 ? 0 : (capacity + num_shards - 1) / num_shards;
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

ContextQueryTree::Shard& ContextQueryTree::ShardFor(const std::string& user,
                                                    const ContextState& state) {
  size_t h = ContextStateHash{}(state);
  if (!user.empty()) {
    // Boost-style combine so (user, state) pairs spread across shards
    // even when many users query the same few states.
    h ^= std::hash<std::string>{}(user) + 0x9e3779b97f4a7c15ULL + (h << 6) +
         (h >> 2);
  }
  return *shards_[h % shards_.size()];
}

ContextQueryTree::Node* ContextQueryTree::Descend(Shard& shard,
                                                  const std::string& user,
                                                  const ContextState& state,
                                                  bool create,
                                                  AccessCounter* counter) {
  Node* node;
  auto root_it = shard.roots.find(user);
  if (root_it == shard.roots.end()) {
    if (!create) return nullptr;
    root_it = shard.roots.emplace(user, std::make_unique<Node>()).first;
  }
  node = root_it->second.get();
  for (size_t level = 0; level < env_->size(); ++level) {
    const ValueRef key = state.value(order_.param_at_level(level));
    Node* next = nullptr;
    for (Node::Cell& cell : node->cells) {
      if (counter != nullptr) counter->AddCell();
      if (cell.key == key) {
        next = cell.child.get();
        break;
      }
    }
    if (next == nullptr) {
      if (!create) return nullptr;
      node->cells.push_back(Node::Cell{key, std::make_unique<Node>()});
      next = node->cells.back().child.get();
    }
    node = next;
  }
  return node;
}

void ContextQueryTree::RemovePath(Shard& shard, const std::string& user,
                                  const ContextState& state) {
  auto root_it = shard.roots.find(user);
  if (root_it == shard.roots.end()) return;
  // Collect the node chain, then erase the deepest link whose subtree
  // becomes empty.
  std::vector<Node*> chain = {root_it->second.get()};
  for (size_t level = 0; level < env_->size(); ++level) {
    const ValueRef key = state.value(order_.param_at_level(level));
    Node* next = nullptr;
    for (Node::Cell& cell : chain.back()->cells) {
      if (cell.key == key) {
        next = cell.child.get();
        break;
      }
    }
    if (next == nullptr) return;  // Path absent; nothing to remove.
    chain.push_back(next);
  }
  chain.back()->leaf.reset();
  // Prune empty nodes bottom-up.
  for (size_t level = env_->size(); level > 0; --level) {
    Node* child = chain[level];
    if (!child->cells.empty() || child->leaf != nullptr) break;
    Node* parent = chain[level - 1];
    const ValueRef key = state.value(order_.param_at_level(level - 1));
    for (auto it = parent->cells.begin(); it != parent->cells.end(); ++it) {
      if (it->key == key) {
        parent->cells.erase(it);
        break;
      }
    }
  }
  // An empty per-user trie is dropped outright so idle users cost
  // nothing in the roots map.
  Node* root = root_it->second.get();
  if (root->cells.empty() && root->leaf == nullptr) {
    shard.roots.erase(root_it);
  }
}

std::shared_ptr<const ContextQueryTree::Entry> ContextQueryTree::Lookup(
    const std::string& user, const ContextState& state,
    uint64_t profile_version, const CacheConfig& config,
    AccessCounter* counter) {
  CacheMetrics& metrics = CacheMetrics::Get();
  TraceSpan span("query_cache.lookup");
  // One clock pair serves both the outcome-dependent hit/miss
  // histograms and the per-shard histogram; reads happen only while
  // timing is enabled.
  const bool timed = MetricsRegistry::TimingEnabled();
  const uint64_t start_nanos = timed ? MonotonicNanos() : 0;
  Shard& shard = ShardFor(user, state);
  std::shared_ptr<const Entry> result;
  {
    util::MutexLock lock(shard.mu);
    ++shard.lookups;
    Node* node = Descend(shard, user, state, /*create=*/false, counter);
    if (node == nullptr || node->leaf == nullptr ||
        node->leaf->version != profile_version ||
        node->leaf->entry->config != config) {
      // Absent, at another version, or computed under other options:
      // the caller recomputes and its Put replaces the entry. A skewed
      // entry stays reachable for LookupAtOrBefore's staleness window
      // until then.
      ++shard.misses;
      ++shard.pending_misses;
    } else {
      // Refresh LRU position.
      shard.lru.splice(shard.lru.begin(), shard.lru, node->leaf->lru_it);
      ++shard.hits;
      ++shard.pending_hits;
      result = node->leaf->entry;
    }
    if (++shard.pending_lookups >= kMetricsFlushStride) {
      metrics.lookups.Increment(shard.pending_lookups);
      metrics.hits.Increment(shard.pending_hits);
      metrics.misses.Increment(shard.pending_misses);
      shard.pending_lookups = 0;
      shard.pending_hits = 0;
      shard.pending_misses = 0;
    }
  }
  if (timed) {
    const uint64_t elapsed = MonotonicNanos() - start_nanos;
    (result != nullptr ? metrics.hit_latency : metrics.miss_latency)
        .Record(elapsed);
    shard.lookup_latency.Record(elapsed);
  }
  if (span.active()) {
    span.Tag("outcome", result != nullptr ? "hit" : "miss");
  }
  return result;
}

std::shared_ptr<const ContextQueryTree::Entry>
ContextQueryTree::LookupAtOrBefore(const std::string& user,
                                   const ContextState& state,
                                   uint64_t max_version, uint64_t min_version,
                                   const CacheConfig& config,
                                   uint64_t* entry_version,
                                   AccessCounter* counter) {
  CacheMetrics& metrics = CacheMetrics::Get();
  TraceSpan span("query_cache.lookup_at_or_before");
  Shard& shard = ShardFor(user, state);
  std::shared_ptr<const Entry> result;
  {
    util::MutexLock lock(shard.mu);
    ++shard.lookups;
    Node* node = Descend(shard, user, state, /*create=*/false, counter);
    if (node != nullptr && node->leaf != nullptr &&
        node->leaf->version <= max_version &&
        node->leaf->version >= min_version &&
        node->leaf->entry->config == config) {
      shard.lru.splice(shard.lru.begin(), shard.lru, node->leaf->lru_it);
      ++shard.hits;
      ++shard.pending_hits;
      if (entry_version != nullptr) *entry_version = node->leaf->version;
      result = node->leaf->entry;
    } else {
      // Absent, outside the window or of other options: plain miss,
      // nothing dropped.
      ++shard.misses;
      ++shard.pending_misses;
    }
    if (++shard.pending_lookups >= kMetricsFlushStride) {
      metrics.lookups.Increment(shard.pending_lookups);
      metrics.hits.Increment(shard.pending_hits);
      metrics.misses.Increment(shard.pending_misses);
      shard.pending_lookups = 0;
      shard.pending_hits = 0;
      shard.pending_misses = 0;
    }
  }
  if (span.active()) {
    span.Tag("outcome", result != nullptr ? "hit" : "miss");
  }
  return result;
}

void ContextQueryTree::Put(const std::string& user, const ContextState& state,
                           uint64_t profile_version,
                           std::vector<db::ScoredTuple> tuples,
                           CandidateSetPtr candidates) {
  if (candidates == nullptr) {
    candidates = std::make_shared<const std::vector<CandidatePath>>();
  }
  PutEntry(user, state, profile_version,
           std::make_shared<const Entry>(
               Entry{std::move(tuples), std::move(candidates), CacheConfig{}}));
}

void ContextQueryTree::PutEntry(const std::string& user,
                                const ContextState& state,
                                uint64_t profile_version,
                                std::shared_ptr<const Entry> entry) {
  CacheMetrics& metrics = CacheMetrics::Get();
  TraceSpan span("query_cache.put");
  ScopedLatency latency(&metrics.put_latency);
  Shard& shard = ShardFor(user, state);
  util::MutexLock lock(shard.mu);
  Node* node = Descend(shard, user, state, /*create=*/true, nullptr);
  if (node->leaf != nullptr) {
    // Overwrite in place; readers holding the old snapshot keep it.
    node->leaf->entry = std::move(entry);
    node->leaf->version = profile_version;
    shard.lru.splice(shard.lru.begin(), shard.lru, node->leaf->lru_it);
    return;
  }
  shard.lru.push_front(EntryKey{user, state});
  node->leaf = std::make_unique<Leaf>();
  node->leaf->entry = std::move(entry);
  node->leaf->version = profile_version;
  node->leaf->lru_it = shard.lru.begin();
  ++shard.size;

  if (shard_capacity_ > 0 && shard.size > shard_capacity_) {
    const EntryKey victim = shard.lru.back();
    shard.lru.pop_back();
    RemovePath(shard, victim.user, victim.state);
    --shard.size;
    ++shard.evictions;
    metrics.evictions.Increment();
  }
}

size_t ContextQueryTree::InvalidateUser(const std::string& user) {
  CacheMetrics& metrics = CacheMetrics::Get();
  TraceSpan span("query_cache.invalidate_user");
  size_t dropped = 0;
  for (std::unique_ptr<Shard>& shard : shards_) {
    util::MutexLock lock(shard->mu);
    auto root_it = shard->roots.find(user);
    if (root_it == shard->roots.end()) continue;
    // Dropping the user's whole trie frees every leaf at once; the LRU
    // list is then swept of the user's keys (each leaf owns exactly one
    // LRU node, so the sweep count equals the leaves dropped).
    shard->roots.erase(root_it);
    size_t in_shard = 0;
    for (auto it = shard->lru.begin(); it != shard->lru.end();) {
      if (it->user == user) {
        it = shard->lru.erase(it);
        ++in_shard;
      } else {
        ++it;
      }
    }
    shard->size -= in_shard;
    shard->invalidations += in_shard;
    dropped += in_shard;
  }
  if (dropped > 0) {
    metrics.invalidations.Increment(dropped);
  }
  if (span.active()) {
    span.Tag("dropped", static_cast<uint64_t>(dropped));
  }
  return dropped;
}

size_t ContextQueryTree::InvalidateUserBelow(const std::string& user,
                                             uint64_t version) {
  CacheMetrics& metrics = CacheMetrics::Get();
  TraceSpan span("query_cache.invalidate_user_below");
  size_t dropped = 0;
  for (std::unique_ptr<Shard>& shard : shards_) {
    util::MutexLock lock(shard->mu);
    if (shard->roots.find(user) == shard->roots.end()) continue;
    // The LRU list is the only flat enumeration of a user's cached
    // states (trie leaves do not store their own path), so collect the
    // user's keys first, then check each leaf's version tag.
    std::vector<ContextState> states;
    for (const EntryKey& key : shard->lru) {
      if (key.user == user) states.push_back(key.state);
    }
    size_t in_shard = 0;
    for (const ContextState& state : states) {
      Node* node = Descend(*shard, user, state, /*create=*/false, nullptr);
      if (node == nullptr || node->leaf == nullptr) continue;
      if (node->leaf->version >= version) continue;  // Inside the window.
      shard->lru.erase(node->leaf->lru_it);
      RemovePath(*shard, user, state);
      --shard->size;
      ++in_shard;
    }
    shard->invalidations += in_shard;
    dropped += in_shard;
  }
  if (dropped > 0) {
    metrics.invalidations.Increment(dropped);
  }
  if (span.active()) {
    span.Tag("dropped", static_cast<uint64_t>(dropped));
  }
  return dropped;
}

void ContextQueryTree::InvalidateAll() {
  for (std::unique_ptr<Shard>& shard : shards_) {
    util::MutexLock lock(shard->mu);
    shard->roots.clear();
    shard->lru.clear();
    shard->size = 0;
  }
}

CacheStats ContextQueryTree::Stats() const {
  CacheStats stats;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    util::MutexLock lock(shard->mu);
    stats.lookups += shard->lookups;
    stats.hits += shard->hits;
    stats.misses += shard->misses;
    stats.evictions += shard->evictions;
    stats.invalidations += shard->invalidations;
    stats.size += shard->size;
  }
  return stats;
}

CacheStats ContextQueryTree::ShardStats(size_t shard_index) const {
  assert(shard_index < shards_.size());
  const Shard& shard = *shards_[shard_index];
  util::MutexLock lock(shard.mu);
  CacheStats stats;
  stats.lookups = shard.lookups;
  stats.hits = shard.hits;
  stats.misses = shard.misses;
  stats.evictions = shard.evictions;
  stats.invalidations = shard.invalidations;
  stats.size = shard.size;
  return stats;
}

HistogramSnapshot ContextQueryTree::ShardLookupLatency(
    size_t shard_index) const {
  assert(shard_index < shards_.size());
  // The histogram is internally atomic; no shard lock needed.
  return shards_[shard_index]->lookup_latency.Snapshot();
}

Status CheckCacheableOptions(const QueryOptions& options) {
  if (options.combine != db::CombinePolicy::kMax &&
      options.combine != db::CombinePolicy::kMin) {
    return Status::InvalidArgument(
        "CachedRankCS requires an associative combine policy (max or min)");
  }
  if (options.discount != ScoreDiscount::kNone) {
    return Status::InvalidArgument(
        std::string("CachedRankCS serves undiscounted per-state lists; "
                    "score discount '") +
        ScoreDiscountToString(options.discount) + "' needs uncached RankCS");
  }
  return Status::OK();
}

std::vector<db::ScoredTuple> MergeStateLists(
    const db::Relation& relation,
    std::span<const std::vector<db::ScoredTuple>* const> lists,
    const std::vector<db::Predicate>& selections, db::CombinePolicy combine,
    size_t top_k) {
  assert(combine == db::CombinePolicy::kMax ||
         combine == db::CombinePolicy::kMin);
  std::vector<ScoredSource> sources;
  sources.reserve(lists.size());
  for (const std::vector<db::ScoredTuple>* list : lists) {
    sources.push_back(ScoredSource::List(*list));
  }
  return RankSources(relation, sources, selections, combine, top_k);
}

namespace {

/// Outcome of evaluating one query state: either served from cache or
/// recomputed (and cached). A hit and a miss both hold the entry the
/// cache holds — ranked tuples plus the resolution trace — by shared
/// pointer, so a hit costs one refcount bump, not a copy of its tuples
/// or candidates, and hits and misses are indistinguishable downstream.
struct PerStateResult {
  Status status = Status::OK();
  std::shared_ptr<const ContextQueryTree::Entry> entry;
};

PerStateResult EvaluateState(const db::Relation& relation,
                             const ContextState& s, const ResolveFn& resolve,
                             const std::string& user,
                             uint64_t profile_version, ContextQueryTree& cache,
                             const QueryOptions& options,
                             AccessCounter* counter) {
  PerStateResult out;
  TraceSpan span("cached_rank_cs.state");
  // Cancellation point: at state entry, before any resolution work.
  // (A cache hit below is cheap enough that it is not worth a second
  // clock read to allow it through after expiry.)
  if (options.deadline.Expired()) {
    out.status =
        Status::DeadlineExceeded("cached_rank_cs: deadline expired at state");
    return out;
  }
  const CacheConfig config = CacheConfig::Of(options);
  out.entry = cache.Lookup(user, s, profile_version, config, counter);
  if (out.entry != nullptr) return out;
  // Compute this state's contribution with plain Rank_CS, then
  // populate the cache.
  std::vector<CandidatePath> best = resolve(s, options.resolution, counter);
  // Cancellation point: resolution paid for, selections (the expensive
  // part) not yet.
  if (options.deadline.Expired()) {
    out.status = Status::DeadlineExceeded(
        "cached_rank_cs: deadline expired before selections");
    return out;
  }
  CandidateSetPtr candidates =
      std::make_shared<const std::vector<CandidatePath>>(std::move(best));
  std::vector<ScoredSource> sources;
  for (const CandidatePath& cand : *candidates) {
    for (const ProfileTree::LeafEntry& entry : cand.entries) {
      StatusOr<ScoredSource> source =
          ScoredSource::Clause(relation, entry.clause, entry.score);
      if (!source.ok()) {
        out.status = source.status();
        return out;
      }
      sources.push_back(*source);
    }
  }
  // The cached list is the state's whole ranking: no cut, and no
  // selections (a list is keyed by context state only).
  out.entry = std::make_shared<const ContextQueryTree::Entry>(
      ContextQueryTree::Entry{
          RankSources(relation, sources, {}, options.combine, /*top_k=*/0),
          std::move(candidates), config});
  cache.PutEntry(user, s, profile_version, out.entry);
  return out;
}

/// Shared body of the `TreeResolver` / `FlatResolver` overloads: the
/// cache protocol only needs the environment and a way to resolve one
/// state, so both resolvers funnel through here and produce identical
/// cache entries (interchangeable across backends at the same
/// profile version).
StatusOr<QueryResult> CachedRankCSImpl(const db::Relation& relation,
                                       const ContextualQuery& query,
                                       const ContextEnvironment& env,
                                       const ResolveFn& resolve,
                                       const std::string& user,
                                       uint64_t profile_version,
                                       ContextQueryTree& cache,
                                       const QueryOptions& options,
                                       AccessCounter* counter) {
  CTXPREF_RETURN_IF_ERROR(CheckCacheableOptions(options));
  RankMetrics& metrics = RankMetrics::Get();
  TraceSpan span("cached_rank_cs");
  ScopedLatency latency(&metrics.latency);

  std::vector<ContextState> states = query.context.EnumerateStates(env);
  if (states.empty()) states.push_back(ContextState::AllState(env));
  for (const ContextState& s : states) {
    CTXPREF_RETURN_IF_ERROR(s.Validate(env));
  }

  // Evaluate every state, either inline or on a worker pool. Workers
  // write disjoint slots; the merge below runs serially in
  // state-enumeration order, so the ranked output and traces are
  // independent of the thread count.
  std::vector<PerStateResult> per_state(states.size());
  const size_t threads = std::min(options.num_threads, states.size());
  if (options.pool == nullptr && threads <= 1) {
    for (size_t i = 0; i < states.size(); ++i) {
      per_state[i] = EvaluateState(relation, states[i], resolve, user,
                                   profile_version, cache, options, counter);
    }
  } else {
    // A shared pool may be running other queries' tasks, so completion
    // is tracked per call rather than with pool Wait(). `pending` is a
    // plain count decremented under `done_mu`: the waiter only checks
    // it while holding the mutex, so it cannot observe 0 (and destroy
    // the sync state on scope exit) while a worker still holds
    // references to it. `transient` is declared after the sync state
    // so its destructor joins the workers before that state goes away.
    size_t pending = states.size();
    util::Mutex done_mu(util::LockRank::kCompletion, "CachedRankCS.done_mu");
    util::CondVar done_cv;
    std::unique_ptr<ThreadPool> transient;
    ThreadPool* pool = options.pool;
    if (pool == nullptr) {
      transient = std::make_unique<ThreadPool>(threads);
      pool = transient.get();
    }
    for (size_t i = 0; i < states.size(); ++i) {
      // The task carries the query deadline: if it passes while the
      // task is still queued behind other queries' states, the pool
      // drops the body and runs `on_expired` instead — which must
      // still count the completion down, or the wait below would hang.
      pool->Submit(
          [&, i] {
            PerStateResult r;
            try {
              r = EvaluateState(relation, states[i], resolve, user,
                                profile_version, cache, options, counter);
            } catch (const std::exception& e) {
              r.status = Status::Internal(e.what());
            } catch (...) {
              r.status = Status::Internal("unknown exception in EvaluateState");
            }
            per_state[i] = std::move(r);
            // The decrement must happen in every path, or the waiter
            // below would block forever.
            util::MutexLock lock(done_mu);
            if (--pending == 0) done_cv.NotifyOne();
          },
          options.deadline,
          /*on_expired=*/[&, i] {
            per_state[i].status = Status::DeadlineExceeded(
                "cached_rank_cs: state task expired in pool queue");
            util::MutexLock lock(done_mu);
            if (--pending == 0) done_cv.NotifyOne();
          });
    }
    util::MutexLock lock(done_mu);
    done_cv.Wait(done_mu, [&] { return pending == 0; });
  }

  QueryResult result;
  result.traces.reserve(states.size());
  std::vector<const std::vector<db::ScoredTuple>*> lists;
  lists.reserve(states.size());
  for (size_t i = 0; i < states.size(); ++i) {
    const PerStateResult& ps = per_state[i];
    if (!ps.status.ok()) {
      if (ps.status.IsDeadlineExceeded()) {
        // Partial-work accounting: how many states completed before
        // the budget ran out (states may finish out of order on the
        // pool, so count across the whole array, not the prefix).
        size_t done = 0;
        for (const PerStateResult& r : per_state) {
          if (r.status.ok()) ++done;
        }
        metrics.deadline_exceeded.Increment();
        metrics.states_abandoned.Increment(states.size() - done);
        return Status::DeadlineExceeded(
            "cached_rank_cs: deadline exceeded after " + std::to_string(done) +
            "/" + std::to_string(states.size()) + " states");
      }
      return ps.status;
    }
    lists.push_back(&ps.entry->tuples);
    result.traces.push_back(
        QueryResult::Trace{std::move(states[i]), ps.entry->candidates});
  }

  // Cached lists are selection-agnostic (keyed by context state only),
  // so the merge re-applies the query's restricting selections.
  result.tuples = MergeStateLists(relation, lists, query.selections,
                                  options.combine, options.top_k);
  metrics.cached_queries.Increment();
  metrics.states.Increment(states.size());
  if (span.active()) {
    span.Tag("states", static_cast<uint64_t>(states.size()));
    span.Tag("tuples", static_cast<uint64_t>(result.tuples.size()));
  }
  return result;
}

}  // namespace

StatusOr<QueryResult> CachedRankCS(const db::Relation& relation,
                                   const ContextualQuery& query,
                                   const TreeResolver& resolver,
                                   const std::string& user,
                                   uint64_t profile_version,
                                   ContextQueryTree& cache,
                                   const QueryOptions& options,
                                   AccessCounter* counter) {
  return CachedRankCSImpl(
      relation, query, resolver.tree().env(),
      [&resolver](const ContextState& s, const ResolutionOptions& opts,
                  AccessCounter* c) { return resolver.ResolveBest(s, opts, c); },
      user, profile_version, cache, options, counter);
}

StatusOr<QueryResult> CachedRankCS(const db::Relation& relation,
                                   const ContextualQuery& query,
                                   const FlatResolver& resolver,
                                   const std::string& user,
                                   uint64_t profile_version,
                                   ContextQueryTree& cache,
                                   const QueryOptions& options,
                                   AccessCounter* counter) {
  return CachedRankCSImpl(
      relation, query, resolver.tree().env(),
      [&resolver](const ContextState& s, const ResolutionOptions& opts,
                  AccessCounter* c) { return resolver.ResolveBest(s, opts, c); },
      user, profile_version, cache, options, counter);
}

}  // namespace ctxpref
