#ifndef CTXPREF_PREFERENCE_REPLICATED_QUERY_CACHE_H_
#define CTXPREF_PREFERENCE_REPLICATED_QUERY_CACHE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "preference/ordering.h"
#include "preference/query_cache.h"
#include "util/mutex.h"

namespace ctxpref {

/// Log-based cache coherence — the one way a query cache hears about a
/// publish (docs/coherence.md). A writer appends one
/// `{user, serving_version}` invalidation record to the append-only
/// log (one mutex, no cache locks), and each replica *consumes* the
/// log on its own schedule — dropping dead entries from its private
/// tree and advancing a consumed-version clock. A replica may serve a
/// cache hit iff its clock covers the pinned snapshot's serving
/// version; otherwise the read falls through to the uncached miss
/// path. A single shared cache is a `ReplicatedQueryCache` with one
/// replica.
///
/// Correctness splits into two independent guarantees:
///
///   1. **Byte-identical fresh serving** needs no coherence at all:
///      cache entries are tagged with the store-wide monotone serving
///      version and a fresh hit requires an exact tag match, so a
///      replica that has consumed nothing can still never serve a
///      wrong answer — only a stale *entry* that misses.
///   2. **Bounded staleness of replica state**: once a replica's clock
///      is >= V, every invalidation record with version <= V whose
///      append completed before the consume began has been applied, so
///      no entry older than `staleness_window` versions behind its
///      user's publish at V survives in that replica.
///
/// The differential + chaos suites (tests/coherence_*_test.cc) pin
/// both properties.
class CoherenceLog {
 public:
  /// One invalidation record. `version` is the serving version the
  /// user's profile was published under (it doubles as the clock
  /// watermark); `drop_all` marks a user removal — every entry of the
  /// user dies regardless of any retention window.
  struct Record {
    std::string user;
    uint64_t version = 0;
    bool drop_all = false;
  };

  /// `num_consumers` cursors are tracked (one per replica); records
  /// are truncated once every consumer has passed them.
  explicit CoherenceLog(size_t num_consumers);

  CoherenceLog(const CoherenceLog&) = delete;
  CoherenceLog& operator=(const CoherenceLog&) = delete;

  /// Writer side: appends `{user, version}` to the log (records stay
  /// in global append order) and advances the append watermark. O(1)
  /// amortized; takes only the log's mutex — never a cache lock.
  void Append(const std::string& user, uint64_t version,
              bool drop_all = false);

  /// Consumer side: drains the log past consumer `id`'s cursor,
  /// invoking `apply` per record in append order, and truncates
  /// records every consumer has passed. Returns the number of records
  /// applied. `apply` runs with no log lock held (it takes a replica
  /// tree's lock). The caller must serialize calls per consumer id
  /// (`ReplicatedQueryCache` holds the replica's consume mutex).
  size_t Consume(size_t id, const std::function<void(const Record&)>& apply);

  /// Raises the append watermark to at least `version` without a
  /// record. `ProfileStore::AttachCoherenceLog` seeds it with the
  /// store's serving version: what was published before the log was
  /// attached has nothing to invalidate in caches that never saw it,
  /// and without the seed no replica clock could cover those snapshots
  /// until the next publish.
  void AdvanceWatermark(uint64_t version);

  /// The highest version whose append has completed (release order:
  /// reading W here means every record of the writer that published W
  /// is visible). The clock target a consume step may advance to.
  uint64_t max_appended() const {
    return max_appended_.load(std::memory_order_acquire);
  }

  /// Records currently retained (appended, not yet truncated — i.e.
  /// not yet consumed by the slowest consumer). The log-depth gauge.
  size_t depth() const { return depth_.load(std::memory_order_relaxed); }

  size_t num_consumers() const { return num_consumers_; }

 private:
  /// Release fetch-max of the watermark to `version`.
  void RaiseWatermark(uint64_t version);

  size_t num_consumers_;
  std::atomic<uint64_t> max_appended_{0};
  std::atomic<size_t> depth_{0};
  /// `base_` is the logical index of `records_[0]`; cursors are logical
  /// indices, so truncation (erasing a consumed prefix and advancing
  /// `base_`) never invalidates them.
  mutable util::Mutex mu_{util::LockRank::kCoherenceLog, "CoherenceLog.mu"};
  uint64_t base_ GUARDED_BY(mu_) = 0;
  std::vector<Record> records_ GUARDED_BY(mu_);
  std::vector<uint64_t> cursors_ GUARDED_BY(mu_);
};

/// N private `ContextQueryTree` replicas kept coherent through a
/// `CoherenceLog`: serving threads read their own replica with no
/// cross-thread cache contention, writers append one log record per
/// publish, and each replica's consume step applies the records and
/// advances its clock. `storage::ServeQuery` is the serving entry
/// point; the gate is `Covers(replica, pinned_version)`. Replica trees
/// never drop an entry on lookup: a version-skewed entry stays
/// (reachable by the ladder's stale rung) until a `Put` overwrites it,
/// the consume step reclaims it, or LRU evicts it.
class ReplicatedQueryCache {
 public:
  /// When the consume step runs. `kInlineAtLookup`: the serving entry
  /// point drains the log before every gate check, so the clock
  /// always covers the pinned version (the refuse path never fires) at
  /// the cost of a log-drain per query — the deterministic
  /// mode the harness and the differential tests use. `kBackground`:
  /// the owner schedules `Consume`/`ConsumeAll` (an interval consumer
  /// thread, say); lookups between consumes may find the clock behind
  /// the pinned version and refuse — the bounded-staleness path
  /// `bench_coherence` measures.
  enum class ConsumeMode { kInlineAtLookup, kBackground };

  struct Options {
    size_t num_replicas = 2;
    /// Per-replica `ContextQueryTree` capacity (0 = unbounded).
    size_t capacity_per_replica = 0;
    /// How many serving versions behind a record's version an entry
    /// may be and still survive the consume step, and how far behind
    /// the pinned version the degradation ladder's stale rung may reach
    /// (`LookupAtOrBefore`): one knob, so retention and reach agree.
    /// 0 = drop everything below the record's version (strictest
    /// hygiene; the stale rung then serves only entries at the pinned
    /// version).
    uint64_t staleness_window = 8;
    ConsumeMode mode = ConsumeMode::kInlineAtLookup;
  };

  /// The environment and ordering arguments are unused (a replica's
  /// tree is a per-user map keyed by whole states); they remain for
  /// callers that still pass them.
  ReplicatedQueryCache(EnvironmentPtr, Ordering, Options options);
  /// Default options (delegates; a defaulted `Options` argument would
  /// need the nested class's member initializers before the enclosing
  /// class is complete, which GCC rejects).
  ReplicatedQueryCache(EnvironmentPtr, Ordering);

  ReplicatedQueryCache(const ReplicatedQueryCache&) = delete;
  ReplicatedQueryCache& operator=(const ReplicatedQueryCache&) = delete;

  size_t num_replicas() const { return replicas_.size(); }
  const Options& options() const { return options_; }
  CoherenceLog& log() { return log_; }
  const CoherenceLog& log() const { return log_; }

  /// Replica `r`'s private tree. Callers serve through it exactly like
  /// a single shared cache (`RankCS` with a `StateCache`,
  /// `LookupAtOrBefore`); coherence is the wrapper's job, not the
  /// tree's.
  ContextQueryTree& replica(size_t r) { return replicas_[r]->tree; }
  const ContextQueryTree& replica(size_t r) const {
    return replicas_[r]->tree;
  }

  /// Stable thread -> replica mapping for callers that don't manage
  /// replica indices themselves.
  size_t ReplicaForThisThread() const;

  /// Replica `r`'s consumed-version clock.
  uint64_t clock(size_t r) const {
    return replicas_[r]->clock.load(std::memory_order_acquire);
  }

  /// The coherence gate: may replica `r` serve a hit for a snapshot
  /// pinned at `version`? True iff the replica's clock covers it.
  bool Covers(size_t r, uint64_t version) const {
    return clock(r) >= version;
  }

  /// Runs replica `r`'s consume step: reads the append watermark,
  /// drains the log, drops dead entries from the replica's tree
  /// (`InvalidateUserBelow` with the staleness window; removals drop
  /// everything), then advances the clock to the watermark. Serialized
  /// per replica; safe to call from any thread. Returns the number of
  /// records applied.
  size_t Consume(size_t r);

  /// `Consume` on every replica; returns total records applied.
  size_t ConsumeAll();

  /// Aggregated stats over all replica trees.
  CacheStats Stats() const;

  /// How far the slowest replica's clock trails the append watermark,
  /// in serving versions — the invalidation-lag figure
  /// `bench_coherence` plots against write rate.
  uint64_t InvalidationLagVersions() const;

  /// Ticks the stale-refuse counter; called by the serving layer when
  /// the gate fails and the read falls through to the miss path.
  static void RecordStaleRefuse();

 private:
  struct Replica {
    explicit Replica(size_t capacity) : tree(capacity) {}

    ContextQueryTree tree;           ///< Internally synchronized.
    std::atomic<uint64_t> clock{0};  ///< Consumed-version clock.
    /// Serializes this replica's consume step: watermark read, drain,
    /// apply, clock advance happen atomically with respect to other
    /// consumers of the same replica — the clock never claims coverage
    /// of records another in-flight consume has drained but not yet
    /// applied.
    util::Mutex consume_mu{util::LockRank::kCoherenceConsume,
                           "ReplicatedQueryCache.Replica.consume_mu"};
  };

  Options options_;
  CoherenceLog log_;
  std::vector<std::unique_ptr<Replica>> replicas_;
};

}  // namespace ctxpref

#endif  // CTXPREF_PREFERENCE_REPLICATED_QUERY_CACHE_H_
