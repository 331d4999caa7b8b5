#include "preference/query_cache.h"

#include <cstdint>

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
  Counter& rescore_hits;
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
        reg.GetCounter("ctxpref_query_cache_rescore_hits_total",
                       "Lookup hits found at an older version under the "
                       "pinned arena's shape (also in hits_total)"),
        reg.GetCounter("ctxpref_query_cache_misses_total",
                       "ContextQueryTree lookup misses"),
        reg.GetCounter("ctxpref_query_cache_invalidations_total",
                       "Entries dropped by InvalidateUserBelow"),
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

ContextQueryTree::Hit ContextQueryTree::Probe(
    const std::string& user, const ContextState& state, uint64_t min_version,
    uint64_t max_version, uint64_t shape_id, const CacheConfig& config,
    uint64_t* entry_version, AccessCounter* counter) {
  Hit hit;
  util::MutexLock lock(mu_);
  ++lookups_;
  if (counter != nullptr) counter->AddCell();
  Leaf* leaf = Find(user, state);
  if (leaf != nullptr && leaf->entry->config == config) {
    if (leaf->version >= min_version && leaf->version <= max_version) {
      hit.entry = leaf->entry;
    } else if (shape_id != 0 && leaf->version < min_version &&
               leaf->entry->shape_id == shape_id) {
      // Older, but resolved over the pinned arena's shape: the same
      // winners, with scores the caller re-reads.
      hit.entry = leaf->entry;
      hit.rescore = true;
      ++rescore_hits_;
      ++pending_rescore_hits_;
    }
  }
  if (hit.entry != nullptr) {
    // Refresh LRU position.
    lru_.splice(lru_.begin(), lru_, leaf->lru_it);
    ++hits_;
    ++pending_hits_;
    if (entry_version != nullptr) *entry_version = leaf->version;
  } else {
    // Absent, outside the window, of another shape or computed under
    // other options: a plain miss, nothing dropped. The caller's
    // recompute Puts over a skewed entry; until then it stays
    // reachable for LookupAtOrBefore's staleness window.
    ++misses_;
    ++pending_misses_;
  }
  if (++pending_lookups_ >= kMetricsFlushStride) {
    CacheMetrics& metrics = CacheMetrics::Get();
    metrics.lookups.Increment(pending_lookups_);
    metrics.hits.Increment(pending_hits_);
    metrics.rescore_hits.Increment(pending_rescore_hits_);
    metrics.misses.Increment(pending_misses_);
    pending_lookups_ = 0;
    pending_hits_ = 0;
    pending_rescore_hits_ = 0;
    pending_misses_ = 0;
  }
  return hit;
}

std::shared_ptr<const ContextQueryTree::Entry> ContextQueryTree::Lookup(
    const std::string& user, const ContextState& state,
    uint64_t profile_version, const CacheConfig& config,
    AccessCounter* counter) {
  return LookupOrRescore(user, state, profile_version, /*shape_id=*/0, config,
                         counter)
      .entry;
}

ContextQueryTree::Hit ContextQueryTree::LookupOrRescore(
    const std::string& user, const ContextState& state,
    uint64_t profile_version, uint64_t shape_id, const CacheConfig& config,
    AccessCounter* counter) {
  TraceSpan span("query_cache.lookup");
  // One clock pair serves the outcome-dependent hit/miss histograms;
  // reads happen only while timing is enabled.
  const bool timed = MetricsRegistry::TimingEnabled();
  const uint64_t start_nanos = timed ? MonotonicNanos() : 0;
  Hit hit = Probe(user, state, profile_version, profile_version, shape_id,
                  config, /*entry_version=*/nullptr, counter);
  if (timed) {
    CacheMetrics& metrics = CacheMetrics::Get();
    (hit.entry != nullptr ? metrics.hit_latency : metrics.miss_latency)
        .Record(MonotonicNanos() - start_nanos);
  }
  if (span.active()) {
    span.Tag("outcome", hit.entry == nullptr ? "miss"
                        : hit.rescore        ? "rescore"
                                             : "hit");
  }
  return hit;
}

std::shared_ptr<const ContextQueryTree::Entry>
ContextQueryTree::LookupAtOrBefore(const std::string& user,
                                   const ContextState& state,
                                   uint64_t max_version, uint64_t min_version,
                                   const CacheConfig& config,
                                   uint64_t* entry_version,
                                   AccessCounter* counter) {
  TraceSpan span("query_cache.lookup_at_or_before");
  std::shared_ptr<const Entry> result =
      Probe(user, state, min_version, max_version, /*shape_id=*/0, config,
            entry_version, counter)
          .entry;
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

CacheStats ContextQueryTree::Stats() const {
  util::MutexLock lock(mu_);
  CacheStats stats;
  stats.lookups = lookups_;
  stats.hits = hits_;
  stats.rescore_hits = rescore_hits_;
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
        "cached RankCS requires an associative combine policy (max or min)");
  }
  return Status::OK();
}

}  // namespace ctxpref
