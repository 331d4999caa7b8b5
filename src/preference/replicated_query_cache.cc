#include "preference/replicated_query_cache.h"

#include <algorithm>
#include <limits>
#include <thread>
#include <utility>

#include "util/metrics.h"

namespace ctxpref {

namespace {

/// Global coherence metrics (docs/coherence.md "Metric catalog").
struct CoherenceMetrics {
  Counter& appended;
  Counter& consumed;
  Counter& stale_refuses;
  Gauge& log_depth;
  Gauge& invalidation_lag;

  static CoherenceMetrics& Get() {
    MetricsRegistry& reg = MetricsRegistry::Global();
    static CoherenceMetrics* m = new CoherenceMetrics{
        reg.GetCounter("ctxpref_coherence_records_appended_total",
                       "Invalidation records appended to coherence logs"),
        reg.GetCounter("ctxpref_coherence_records_consumed_total",
                       "Invalidation records applied by replica consume "
                       "steps (each record counts once per replica)"),
        reg.GetCounter("ctxpref_coherence_stale_refuses_total",
                       "Reads refused a cache hit because the replica's "
                       "clock trailed the pinned serving version"),
        reg.GetGauge("ctxpref_coherence_log_depth",
                     "Records retained in the coherence log (appended but "
                     "not yet consumed by the slowest replica)"),
        reg.GetGauge("ctxpref_coherence_invalidation_lag_versions",
                     "Serving versions the slowest replica's clock trails "
                     "the append watermark by (sampled at consume)"),
    };
    return *m;
  }
};

size_t HashThisThread() {
  return std::hash<std::thread::id>{}(std::this_thread::get_id());
}

}  // namespace

CoherenceLog::CoherenceLog(size_t num_consumers)
    : num_consumers_(num_consumers) {
  util::MutexLock lock(mu_);
  cursors_.assign(num_consumers_, 0);
}

void CoherenceLog::Append(const std::string& user, uint64_t version,
                          Kind kind) {
  CoherenceMetrics& metrics = CoherenceMetrics::Get();
  {
    util::MutexLock lock(mu_);
    records_.push_back(Record{user, version, kind});
  }
  AdvanceWatermark(version);
  depth_.fetch_add(1, std::memory_order_relaxed);
  metrics.appended.Increment();
  metrics.log_depth.Set(static_cast<int64_t>(depth()));
}

void CoherenceLog::AdvanceWatermark(uint64_t version) {
  // A release fetch-max: a consumer that observes version W with
  // acquire sees every record this writer appended up to (and
  // including) the one that published W.
  uint64_t seen = max_appended_.load(std::memory_order_relaxed);
  while (seen < version && !max_appended_.compare_exchange_weak(
                               seen, version, std::memory_order_release,
                               std::memory_order_relaxed)) {
  }
}

size_t CoherenceLog::Consume(size_t id,
                             const std::function<void(const Record&)>& apply) {
  CoherenceMetrics& metrics = CoherenceMetrics::Get();
  size_t truncated = 0;
  std::vector<Record> pending;
  {
    util::MutexLock lock(mu_);
    const uint64_t end = base_ + records_.size();
    uint64_t& cursor = cursors_[id];
    for (uint64_t i = std::max(cursor, base_); i < end; ++i) {
      pending.push_back(records_[i - base_]);
    }
    cursor = end;
    // Truncate the prefix every consumer has passed. Logical indices
    // keep the other consumers' cursors valid across the erase.
    const uint64_t min_cursor =
        *std::min_element(cursors_.begin(), cursors_.end());
    if (min_cursor > base_) {
      truncated = min_cursor - base_;
      records_.erase(records_.begin(), records_.begin() + truncated);
      base_ = min_cursor;
    }
  }
  // Apply outside the log lock: the callback takes the replica tree's
  // lock (kCacheShard > kCoherenceLog, but no reason to hold the log
  // against writers while trees are pruned).
  for (const Record& record : pending) {
    apply(record);
  }
  const size_t applied = pending.size();
  if (truncated > 0) {
    depth_.fetch_sub(truncated, std::memory_order_relaxed);
  }
  if (applied > 0) {
    metrics.consumed.Increment(applied);
  }
  metrics.log_depth.Set(static_cast<int64_t>(depth()));
  return applied;
}

ReplicatedQueryCache::ReplicatedQueryCache(EnvironmentPtr env, Ordering order)
    : ReplicatedQueryCache(std::move(env), std::move(order), Options()) {}

ReplicatedQueryCache::ReplicatedQueryCache(EnvironmentPtr, Ordering,
                                           Options options)
    : options_(options), log_(std::max<size_t>(options.num_replicas, 1)) {
  const size_t n = std::max<size_t>(options.num_replicas, 1);
  replicas_.reserve(n);
  for (size_t r = 0; r < n; ++r) {
    replicas_.push_back(
        std::make_unique<Replica>(options.capacity_per_replica));
  }
}

size_t ReplicatedQueryCache::ReplicaForThisThread() const {
  return HashThisThread() % replicas_.size();
}

size_t ReplicatedQueryCache::Consume(size_t r) {
  Replica& replica = *replicas_[r];
  util::MutexLock lock(replica.consume_mu);
  // Order matters: read the watermark *before* draining. Every record
  // at or below `target` whose append completed before this read is
  // then guaranteed drained below, so advancing the clock to `target`
  // afterwards never claims coverage of an unapplied record. (A record
  // whose append races this consume may also be drained — applying it
  // early is harmless, and the clock does not advance past `target`.)
  const uint64_t target = log_.max_appended();
  const uint64_t window = options_.staleness_window;
  const size_t applied =
      log_.Consume(r, [&replica, window](const CoherenceLog::Record& rec) {
        // A rescore keeps every entry (re-score hits read them); a
        // structural publish keeps the entries inside the staleness
        // window; a user removal drops every entry of the user.
        switch (rec.kind) {
          case CoherenceLog::Kind::kRescore:
            break;
          case CoherenceLog::Kind::kStructural:
            replica.tree.InvalidateUserBelow(
                rec.user, rec.version > window ? rec.version - window : 0);
            break;
          case CoherenceLog::Kind::kRemoval:
            replica.tree.InvalidateUserBelow(
                rec.user, std::numeric_limits<uint64_t>::max());
            break;
        }
      });
  uint64_t clock = replica.clock.load(std::memory_order_relaxed);
  if (clock < target) {
    replica.clock.store(target, std::memory_order_release);
  }
  CoherenceMetrics::Get().invalidation_lag.Set(
      static_cast<int64_t>(InvalidationLagVersions()));
  return applied;
}

size_t ReplicatedQueryCache::ConsumeAll() {
  size_t applied = 0;
  for (size_t r = 0; r < replicas_.size(); ++r) {
    applied += Consume(r);
  }
  return applied;
}

CacheStats ReplicatedQueryCache::Stats() const {
  CacheStats total;
  for (const std::unique_ptr<Replica>& replica : replicas_) {
    const CacheStats s = replica->tree.Stats();
    total.lookups += s.lookups;
    total.hits += s.hits;
    total.rescore_hits += s.rescore_hits;
    total.misses += s.misses;
    total.evictions += s.evictions;
    total.invalidations += s.invalidations;
    total.size += s.size;
  }
  return total;
}

uint64_t ReplicatedQueryCache::InvalidationLagVersions() const {
  const uint64_t watermark = log_.max_appended();
  uint64_t min_clock = watermark;
  for (const std::unique_ptr<Replica>& replica : replicas_) {
    min_clock =
        std::min(min_clock, replica->clock.load(std::memory_order_acquire));
  }
  return watermark - min_clock;
}

void ReplicatedQueryCache::RecordStaleRefuse() {
  CoherenceMetrics::Get().stale_refuses.Increment();
}

}  // namespace ctxpref
