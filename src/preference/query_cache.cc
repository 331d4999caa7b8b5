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

ContextQueryTree::ContextQueryTree(size_t capacity) : capacity_(capacity) {}

ContextQueryTree::Leaf* ContextQueryTree::Find(const std::string& user,
                                               const ContextState& state) {
  auto user_it = users_.find(user);
  if (user_it == users_.end()) return nullptr;
  auto it = user_it->second.find(state);
  return it == user_it->second.end() ? nullptr : &it->second;
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
    if (counter != nullptr) counter->AddCell();
    Leaf* leaf = Find(user, state);
    if (leaf == nullptr || leaf->version != profile_version ||
        leaf->entry->config != config) {
      // Absent, at another version, or computed under other options:
      // the caller recomputes and its Put replaces the entry. A skewed
      // entry stays reachable for LookupAtOrBefore's staleness window
      // until then.
      ++misses_;
      ++pending_misses_;
    } else {
      // Refresh LRU position.
      lru_.splice(lru_.begin(), lru_, leaf->lru_it);
      ++hits_;
      ++pending_hits_;
      result = leaf->entry;
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
    if (counter != nullptr) counter->AddCell();
    Leaf* leaf = Find(user, state);
    if (leaf != nullptr && leaf->version <= max_version &&
        leaf->version >= min_version && leaf->entry->config == config) {
      lru_.splice(lru_.begin(), lru_, leaf->lru_it);
      ++hits_;
      ++pending_hits_;
      if (entry_version != nullptr) *entry_version = leaf->version;
      result = leaf->entry;
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
  auto [leaf_it, inserted] = users_[user].try_emplace(state);
  Leaf& leaf = leaf_it->second;
  leaf.entry = std::move(entry);
  leaf.version = profile_version;
  if (!inserted) {
    // Overwrite in place; readers holding the old snapshot keep it.
    lru_.splice(lru_.begin(), lru_, leaf.lru_it);
    return;
  }
  lru_.push_front(EntryKey{user, state});
  leaf.lru_it = lru_.begin();

  if (capacity_ > 0 && lru_.size() > capacity_) {
    // Evict from the victim's map, dropping the map once empty (so an
    // inactive user costs nothing).
    const EntryKey& victim = lru_.back();
    auto user_it = users_.find(victim.user);
    user_it->second.erase(victim.state);
    if (user_it->second.empty()) users_.erase(user_it);
    lru_.pop_back();
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
    auto user_it = users_.find(user);
    if (user_it != users_.end()) {
      // Each leaf owns exactly one LRU node: unlink them through the
      // stored iterators, then drop the user's whole map.
      for (const auto& [state, leaf] : user_it->second) lru_.erase(leaf.lru_it);
      dropped = user_it->second.size();
      users_.erase(user_it);
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
    auto user_it = users_.find(user);
    if (user_it != users_.end()) {
      UserMap& states = user_it->second;
      for (auto it = states.begin(); it != states.end();) {
        if (it->second.version >= version) {  // Inside the window.
          ++it;
          continue;
        }
        lru_.erase(it->second.lru_it);
        it = states.erase(it);
        ++dropped;
      }
      if (states.empty()) users_.erase(user_it);
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
  users_.clear();
  lru_.clear();
}

CacheStats ContextQueryTree::Stats() const {
  util::MutexLock lock(mu_);
  CacheStats stats;
  stats.lookups = lookups_;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.evictions = evictions_;
  stats.invalidations = invalidations_;
  stats.size = lru_.size();
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
