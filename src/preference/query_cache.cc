#include "preference/query_cache.h"

#include <cassert>
#include <cstdint>

#include "preference/threshold_merge.h"
#include "util/metrics.h"
#include "util/mutex.h"
#include "util/trace.h"

namespace ctxpref {

namespace {

/// Global (cross-instance) cache metrics; each tree's exact counters
/// are its `Stats()`.
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
                       "LRU evictions beyond tree capacity"),
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

/// Lookup-path registry counters are flushed from the tree-local
/// accumulators every this many lookups (per tree), so the hot path
/// costs plain increments under the tree lock, not global atomic
/// RMWs. The registry lags a tree's exact stats by < one stride.
constexpr uint64_t kMetricsFlushStride = 64;

}  // namespace

ContextQueryTree::ContextQueryTree(EnvironmentPtr env, Ordering order,
                                   size_t capacity)
    : env_(std::move(env)), order_(std::move(order)), capacity_(capacity) {
  assert(order_.size() == env_->size());
}

ContextQueryTree::Node* ContextQueryTree::Descend(const std::string& user,
                                                  const ContextState& state,
                                                  bool create,
                                                  AccessCounter* counter) {
  Node* node;
  auto root_it = roots_.find(user);
  if (root_it == roots_.end()) {
    if (!create) return nullptr;
    root_it = roots_.emplace(user, std::make_unique<Node>()).first;
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

void ContextQueryTree::RemovePath(const std::string& user,
                                  const ContextState& state) {
  auto root_it = roots_.find(user);
  if (root_it == roots_.end()) return;
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
    roots_.erase(root_it);
  }
}

std::shared_ptr<const ContextQueryTree::Entry> ContextQueryTree::Lookup(
    const std::string& user, const ContextState& state,
    uint64_t profile_version, const CacheConfig& config,
    AccessCounter* counter) {
  CacheMetrics& metrics = CacheMetrics::Get();
  TraceSpan span("query_cache.lookup");
  // One clock pair serves the outcome-dependent hit/miss histograms;
  // reads happen only while timing is enabled.
  const bool timed = MetricsRegistry::TimingEnabled();
  const uint64_t start_nanos = timed ? MonotonicNanos() : 0;
  std::shared_ptr<const Entry> result;
  {
    util::MutexLock lock(mu_);
    ++lookups_;
    Node* node = Descend(user, state, /*create=*/false, counter);
    if (node == nullptr || node->leaf == nullptr ||
        node->leaf->version != profile_version ||
        node->leaf->entry->config != config) {
      // Absent, at another version, or computed under other options:
      // the caller recomputes and its Put replaces the entry. A skewed
      // entry stays reachable for LookupAtOrBefore's staleness window
      // until then.
      ++misses_;
      ++pending_misses_;
    } else {
      // Refresh LRU position.
      lru_.splice(lru_.begin(), lru_, node->leaf->lru_it);
      ++hits_;
      ++pending_hits_;
      result = node->leaf->entry;
    }
    if (++pending_lookups_ >= kMetricsFlushStride) {
      metrics.lookups.Increment(pending_lookups_);
      metrics.hits.Increment(pending_hits_);
      metrics.misses.Increment(pending_misses_);
      pending_lookups_ = 0;
      pending_hits_ = 0;
      pending_misses_ = 0;
    }
  }
  if (timed) {
    (result != nullptr ? metrics.hit_latency : metrics.miss_latency)
        .Record(MonotonicNanos() - start_nanos);
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
  std::shared_ptr<const Entry> result;
  {
    util::MutexLock lock(mu_);
    ++lookups_;
    Node* node = Descend(user, state, /*create=*/false, counter);
    if (node != nullptr && node->leaf != nullptr &&
        node->leaf->version <= max_version &&
        node->leaf->version >= min_version &&
        node->leaf->entry->config == config) {
      lru_.splice(lru_.begin(), lru_, node->leaf->lru_it);
      ++hits_;
      ++pending_hits_;
      if (entry_version != nullptr) *entry_version = node->leaf->version;
      result = node->leaf->entry;
    } else {
      // Absent, outside the window or of other options: plain miss,
      // nothing dropped.
      ++misses_;
      ++pending_misses_;
    }
    if (++pending_lookups_ >= kMetricsFlushStride) {
      metrics.lookups.Increment(pending_lookups_);
      metrics.hits.Increment(pending_hits_);
      metrics.misses.Increment(pending_misses_);
      pending_lookups_ = 0;
      pending_hits_ = 0;
      pending_misses_ = 0;
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
  util::MutexLock lock(mu_);
  Node* node = Descend(user, state, /*create=*/true, nullptr);
  if (node->leaf != nullptr) {
    // Overwrite in place; readers holding the old snapshot keep it.
    node->leaf->entry = std::move(entry);
    node->leaf->version = profile_version;
    lru_.splice(lru_.begin(), lru_, node->leaf->lru_it);
    return;
  }
  lru_.push_front(EntryKey{user, state});
  node->leaf = std::make_unique<Leaf>();
  node->leaf->entry = std::move(entry);
  node->leaf->version = profile_version;
  node->leaf->lru_it = lru_.begin();
  ++size_;

  if (capacity_ > 0 && size_ > capacity_) {
    const EntryKey victim = lru_.back();
    lru_.pop_back();
    RemovePath(victim.user, victim.state);
    --size_;
    ++evictions_;
    metrics.evictions.Increment();
  }
}

size_t ContextQueryTree::InvalidateUser(const std::string& user) {
  CacheMetrics& metrics = CacheMetrics::Get();
  TraceSpan span("query_cache.invalidate_user");
  size_t dropped = 0;
  {
    util::MutexLock lock(mu_);
    auto root_it = roots_.find(user);
    if (root_it != roots_.end()) {
      // Dropping the user's whole trie frees every leaf at once; the
      // LRU list is then swept of the user's keys (each leaf owns
      // exactly one LRU node, so the sweep count equals the leaves
      // dropped).
      roots_.erase(root_it);
      for (auto it = lru_.begin(); it != lru_.end();) {
        if (it->user == user) {
          it = lru_.erase(it);
          ++dropped;
        } else {
          ++it;
        }
      }
      size_ -= dropped;
      invalidations_ += dropped;
    }
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
  {
    util::MutexLock lock(mu_);
    if (roots_.find(user) != roots_.end()) {
      // The LRU list is the only flat enumeration of a user's cached
      // states (trie leaves do not store their own path), so collect
      // the user's keys first, then check each leaf's version tag.
      std::vector<ContextState> states;
      for (const EntryKey& key : lru_) {
        if (key.user == user) states.push_back(key.state);
      }
      for (const ContextState& state : states) {
        Node* node = Descend(user, state, /*create=*/false, nullptr);
        if (node == nullptr || node->leaf == nullptr) continue;
        if (node->leaf->version >= version) continue;  // Inside the window.
        lru_.erase(node->leaf->lru_it);
        RemovePath(user, state);
        --size_;
        ++dropped;
      }
      invalidations_ += dropped;
    }
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
  util::MutexLock lock(mu_);
  roots_.clear();
  lru_.clear();
  size_ = 0;
}

CacheStats ContextQueryTree::Stats() const {
  util::MutexLock lock(mu_);
  CacheStats stats;
  stats.lookups = lookups_;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.evictions = evictions_;
  stats.invalidations = invalidations_;
  stats.size = size_;
  return stats;
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

/// Evaluates one query state: served from cache or recomputed (and
/// cached). A hit and a miss both return the entry the cache holds —
/// ranked tuples plus the resolution trace — by shared pointer, so a
/// hit costs one refcount bump, not a copy of its tuples or
/// candidates, and hits and misses are indistinguishable downstream.
StatusOr<std::shared_ptr<const ContextQueryTree::Entry>> EvaluateState(
    const db::Relation& relation, const ContextState& s,
    const FlatResolver& resolver, const std::string& user,
    uint64_t profile_version, ContextQueryTree& cache,
    const QueryOptions& options, AccessCounter* counter) {
  TraceSpan span("cached_rank_cs.state");
  // Cancellation point: at state entry, before any resolution work.
  // (A cache hit below is cheap enough that it is not worth a second
  // clock read to allow it through after expiry.)
  if (options.deadline.Expired()) {
    return Status::DeadlineExceeded("cached_rank_cs: deadline expired at state");
  }
  const CacheConfig config = CacheConfig::Of(options);
  std::shared_ptr<const ContextQueryTree::Entry> hit =
      cache.Lookup(user, s, profile_version, config, counter);
  if (hit != nullptr) return hit;
  // Compute this state's contribution with plain Rank_CS, then
  // populate the cache.
  std::vector<CandidatePath> best =
      resolver.ResolveBest(s, options.resolution, counter);
  // Cancellation point: resolution paid for, selections (the expensive
  // part) not yet.
  if (options.deadline.Expired()) {
    return Status::DeadlineExceeded(
        "cached_rank_cs: deadline expired before selections");
  }
  CandidateSetPtr candidates =
      std::make_shared<const std::vector<CandidatePath>>(std::move(best));
  std::vector<ScoredSource> sources;
  for (const CandidatePath& cand : *candidates) {
    for (const ProfileTree::LeafEntry& entry : cand.entries) {
      StatusOr<ScoredSource> source =
          ScoredSource::Clause(relation, entry.clause, entry.score);
      if (!source.ok()) return source.status();
      sources.push_back(*source);
    }
  }
  // The cached list is the state's whole ranking: no cut, and no
  // selections (a list is keyed by context state only).
  auto entry = std::make_shared<const ContextQueryTree::Entry>(
      ContextQueryTree::Entry{
          RankSources(relation, sources, {}, options.combine, /*top_k=*/0),
          std::move(candidates), config});
  cache.PutEntry(user, s, profile_version, entry);
  return entry;
}

}  // namespace

StatusOr<QueryResult> CachedRankCS(const db::Relation& relation,
                                   const ContextualQuery& query,
                                   const FlatResolver& resolver,
                                   const std::string& user,
                                   uint64_t profile_version,
                                   ContextQueryTree& cache,
                                   const QueryOptions& options,
                                   AccessCounter* counter) {
  CTXPREF_RETURN_IF_ERROR(CheckCacheableOptions(options));
  RankMetrics& metrics = RankMetrics::Get();
  TraceSpan span("cached_rank_cs");
  ScopedLatency latency(&metrics.latency);

  const ContextEnvironment& env = resolver.tree().env();
  std::vector<ContextState> states = query.context.EnumerateStates(env);
  if (states.empty()) states.push_back(ContextState::AllState(env));
  for (const ContextState& s : states) {
    CTXPREF_RETURN_IF_ERROR(s.Validate(env));
  }

  // Evaluate the states inline, in enumeration order. `entries` holds
  // each state's cache entry, so the merge below reads the lists in
  // place and copies no tuples.
  QueryResult result;
  result.traces.reserve(states.size());
  std::vector<std::shared_ptr<const ContextQueryTree::Entry>> entries;
  entries.reserve(states.size());
  std::vector<const std::vector<db::ScoredTuple>*> lists;
  lists.reserve(states.size());
  for (size_t i = 0; i < states.size(); ++i) {
    StatusOr<std::shared_ptr<const ContextQueryTree::Entry>> entry =
        EvaluateState(relation, states[i], resolver, user, profile_version,
                      cache, options, counter);
    if (!entry.ok()) {
      if (entry.status().IsDeadlineExceeded()) {
        // Partial-work accounting: states [0, i) completed.
        metrics.deadline_exceeded.Increment();
        metrics.states_abandoned.Increment(states.size() - i);
        return Status::DeadlineExceeded(
            "cached_rank_cs: deadline exceeded after " + std::to_string(i) +
            "/" + std::to_string(states.size()) + " states");
      }
      return entry.status();
    }
    result.traces.push_back(
        QueryResult::Trace{std::move(states[i]), (*entry)->candidates});
    lists.push_back(&(*entry)->tuples);
    entries.push_back(std::move(*entry));
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

}  // namespace ctxpref
