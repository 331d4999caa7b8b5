#ifndef CTXPREF_PREFERENCE_QUERY_CACHE_H_
#define CTXPREF_PREFERENCE_QUERY_CACHE_H_

#include <atomic>
#include <list>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "db/ranker.h"
#include "preference/contextual_query.h"
#include "preference/ordering.h"
#include "util/counters.h"
#include "util/histogram.h"
#include "util/mutex.h"

namespace ctxpref {

/// Point-in-time counter snapshot of a `ContextQueryTree` (aggregated
/// over all shards). Taken shard-by-shard, so under concurrent traffic
/// the fields are each exact per shard but the total is not a single
/// linearization point — fine for benchmarks and monitoring.
struct CacheStats {
  /// Total `Lookup` calls; every lookup is exactly one hit or miss, so
  /// `lookups == hits + misses` holds per shard and in aggregate.
  uint64_t lookups = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  /// Version-skew drops: entries removed on touch because the profile
  /// moved past the version they were computed at (each such drop is
  /// also counted as a miss — the caller still has to recompute), plus
  /// entries dropped eagerly by `InvalidateUser` when a user's profile
  /// is swapped (those are not misses; no lookup happened).
  uint64_t invalidations = 0;
  size_t size = 0;

  friend bool operator==(const CacheStats&, const CacheStats&) = default;
};

/// The query options a cached per-state list depends on beyond its key
/// (user, state, version): the combine policy that merged the state's
/// clauses and the resolution options that picked its candidates.
struct CacheConfig {
  db::CombinePolicy combine = db::CombinePolicy::kMax;
  ResolutionOptions resolution;

  static CacheConfig Of(const QueryOptions& options) {
    return CacheConfig{options.combine, options.resolution};
  }
  friend bool operator==(const CacheConfig&, const CacheConfig&) = default;
};

/// The context query tree: the paper's second index structure,
/// announced in the contribution list ("caching the results of queries
/// based on their context", §1/§7; the dedicated section is elided in
/// the published text — this is our documented reconstruction, see
/// DESIGN.md).
///
/// Structure: `num_shards` collections of tries; within a shard every
/// *user* owns one trie isomorphic to the profile tree and keyed by
/// *query* context states. A `(user, state)` pair's shard is chosen by
/// hashing the user id with the state's component values, so concurrent
/// queries over different users/states mostly touch different locks
/// (striped-lock pattern). Each shard holds its own mutex, LRU list and
/// capacity slice; each leaf caches the ranked tuples and winning
/// resolution candidates previously computed for that `(user, state)`.
/// Entries are tagged with the profile version they were computed from
/// — for server-side multi-user serving that is the `ProfileStore`
/// *serving* version of the published `ProfileSnapshot`, which is
/// monotone across reloads and user re-creation (`Profile::version()`
/// restarts on reload and can collide; see docs/serving.md) — and carry
/// the `CacheConfig` they were computed under (a lookup under other
/// options misses). They are dropped on touch when the version moved,
/// or eagerly by `InvalidateUser` when a new profile version is
/// published. Beyond the shard capacity, entries are evicted LRU.
///
/// The single-user entry points (no user id) are sugar for the empty
/// user id "".
///
/// Thread safety: all public methods are safe to call concurrently.
/// `Lookup` returns a shared_ptr snapshot, so a reader may keep using
/// an entry after a concurrent `Put`/eviction/`InvalidateAll` has
/// removed it from the tree. See docs/concurrency.md.
class ContextQueryTree {
 public:
  static constexpr size_t kDefaultShards = 8;

  /// A shared immutable set of winning candidate paths. Entries hold
  /// the set behind one pointer so cache hits share it instead of
  /// deep-copying the candidate vectors (states + entries + clause
  /// strings) — the flat candidate sets of the arena-backed serving
  /// path are cached this way.
  using CandidateSetPtr = std::shared_ptr<const std::vector<CandidatePath>>;

  /// What a leaf caches for one context state: the ranked tuples plus
  /// the winning candidate paths that produced them, so cache hits can
  /// reconstruct the same resolution trace as the original miss.
  struct Entry {
    std::vector<db::ScoredTuple> tuples;
    /// Null means "no candidates recorded" (treated as empty).
    CandidateSetPtr candidates;
    /// The options `tuples` were computed under; a lookup under other
    /// options misses (and the recomputed entry replaces this one).
    CacheConfig config;
  };

  /// `capacity` = target number of cached states across all shards
  /// (0 = unbounded). It is split evenly over `num_shards` (rounded
  /// up, with `num_shards` clamped to `capacity` when the latter is
  /// smaller), so the effective global bound can exceed `capacity` by
  /// up to `num_shards - 1` entries, and the LRU order is exact per
  /// shard but only approximate globally. Pass `num_shards` = 1 for an
  /// exact bound and a single LRU domain.
  ContextQueryTree(EnvironmentPtr env, Ordering order, size_t capacity = 0,
                   size_t num_shards = kDefaultShards);

  const ContextEnvironment& env() const { return *env_; }
  size_t num_shards() const { return shards_.size(); }

  /// Aggregated counters; see the individual accessors below for the
  /// legacy one-at-a-time view.
  CacheStats Stats() const;

  /// Counters of one shard (index < `num_shards()`), exact under its
  /// lock — the per-shard view behind the aggregate `Stats()`.
  CacheStats ShardStats(size_t shard) const;

  /// Per-shard lookup-latency histogram (hits and misses together;
  /// the registry's global `ctxpref_query_cache_{hit,miss}_latency_ns`
  /// split by outcome instead). Populated only while
  /// `MetricsRegistry::TimingEnabled()`.
  HistogramSnapshot ShardLookupLatency(size_t shard) const;

  size_t size() const { return Stats().size; }
  uint64_t hits() const { return Stats().hits; }
  uint64_t misses() const { return Stats().misses; }
  uint64_t evictions() const { return Stats().evictions; }
  uint64_t invalidations() const { return Stats().invalidations; }

  /// Returns the cached entry for `user`'s `state` if present, computed
  /// at `profile_version` and under `config`; stale entries are dropped
  /// on touch (counted as both a miss and an invalidation), an entry of
  /// another config is a plain miss. Ticks `counter` per inspected cell
  /// (the cache costs cells too). The returned snapshot stays valid
  /// after concurrent mutations.
  std::shared_ptr<const Entry> Lookup(const std::string& user,
                                      const ContextState& state,
                                      uint64_t profile_version,
                                      const CacheConfig& config = {},
                                      AccessCounter* counter = nullptr);

  /// Single-user sugar: `Lookup("", state, ...)`.
  std::shared_ptr<const Entry> Lookup(const ContextState& state,
                                      uint64_t profile_version,
                                      AccessCounter* counter = nullptr) {
    return Lookup(std::string(), state, profile_version, CacheConfig{},
                  counter);
  }

  /// Bounded-staleness lookup for the degradation ladder: returns the
  /// cached entry for `user`'s `state` if its stored version lies in
  /// `[min_version, max_version]` and it was computed under `config`,
  /// writing the actual version to `*entry_version`. Unlike `Lookup` it
  /// never drops an entry — an out-of-window version is simply a miss
  /// (the entry may serve a different staleness window later). Requires
  /// retain-stale mode (or luck) for entries older than the current
  /// serving version to still be present. Counted as a lookup plus
  /// hit/miss in the shard stats.
  std::shared_ptr<const Entry> LookupAtOrBefore(
      const std::string& user, const ContextState& state,
      uint64_t max_version, uint64_t min_version,
      const CacheConfig& config = {}, uint64_t* entry_version = nullptr,
      AccessCounter* counter = nullptr);

  /// Caches `tuples` (and the resolution `candidates` that produced
  /// them) for `user`'s `state` at `profile_version`, under the default
  /// `CacheConfig`, evicting the shard's least-recently-used entry
  /// beyond the shard capacity.
  void Put(const std::string& user, const ContextState& state,
           uint64_t profile_version, std::vector<db::ScoredTuple> tuples,
           CandidateSetPtr candidates = nullptr);

  /// Caches an already-built `entry` — the miss path of `CachedRankCS`
  /// builds the entry once and shares the same pointer with its merge,
  /// so caching an answer copies no tuples.
  void PutEntry(const std::string& user, const ContextState& state,
                uint64_t profile_version, std::shared_ptr<const Entry> entry);

  /// Single-user sugar: `Put("", state, ...)`.
  void Put(const ContextState& state, uint64_t profile_version,
           std::vector<db::ScoredTuple> tuples,
           CandidateSetPtr candidates = nullptr) {
    Put(std::string(), state, profile_version, std::move(tuples),
        std::move(candidates));
  }

  /// Eagerly drops every cached entry of `user` — the invalidation hook
  /// `ProfileStore` fires when it publishes a new profile version for
  /// that user (stale entries would otherwise linger until touched,
  /// holding memory for results no published profile can produce).
  /// Returns the number of entries dropped; each is counted as an
  /// invalidation (but not a miss). Safe to call concurrently with
  /// lookups: readers holding entry snapshots keep them.
  size_t InvalidateUser(const std::string& user);

  /// Drops `user`'s cached entries whose version tag is strictly below
  /// `version`, leaving newer (and equal) entries in place — the
  /// bounded-staleness form of `InvalidateUser` the log-based coherence
  /// consumer applies: a record `{user, v}` with a retention window `w`
  /// becomes `InvalidateUserBelow(user, v - w)`, so entries inside the
  /// window survive for `LookupAtOrBefore` while everything older is
  /// reclaimed. Returns the number of entries dropped (each counted as
  /// an invalidation, not a miss).
  size_t InvalidateUserBelow(const std::string& user, uint64_t version);

  /// Drops every cached entry of every user (counters are kept).
  void InvalidateAll();

  /// Retain-stale mode, for serving stacks that use the degradation
  /// ladder (`storage::ServeQueryResilient`): when on, (a) `Lookup`
  /// still *misses* on a version-skewed entry but leaves it in place
  /// instead of dropping it (it remains reachable for
  /// `LookupAtOrBefore`), and (b) `ProfileStore::BuildAndPublish`
  /// skips its eager `InvalidateUser` — version tags alone keep fresh
  /// serving correct, LRU keeps memory bounded. `RemoveUser` still
  /// invalidates unconditionally: a deleted user's results must never
  /// be served at any staleness. Off by default (eager invalidation,
  /// the PR 5 behavior).
  void SetRetainStale(bool on) {
    retain_stale_.store(on, std::memory_order_relaxed);
  }
  bool retain_stale() const {
    return retain_stale_.load(std::memory_order_relaxed);
  }

 private:
  struct Node;
  /// LRU identity of one cached entry: which user's trie it lives in
  /// and under which state path.
  struct EntryKey {
    std::string user;
    ContextState state;
  };
  struct Leaf {
    std::shared_ptr<const Entry> entry;
    uint64_t version = 0;
    std::list<EntryKey>::iterator lru_it;
  };
  struct Node {
    struct Cell {
      ValueRef key;
      std::unique_ptr<Node> child;
    };
    std::vector<Cell> cells;
    std::unique_ptr<Leaf> leaf;  // Set on leaf nodes only.
  };

  /// One lock stripe: per-user tries + LRU + counters. The stripe
  /// mutex ranks `kCacheShard` — below the store locks (publish paths
  /// invalidate entries while holding the per-user write lock), above
  /// nothing this code takes (metric flushes under the lock are
  /// lock-free atomics). Stripes are independent: no operation holds
  /// two shard locks at once.
  struct Shard {
    mutable util::Mutex mu{util::LockRank::kCacheShard,
                           "ContextQueryTree.shard_mu"};
    /// One trie per user whose entries hashed into this shard; a
    /// user's trie is erased when its last entry goes (so an inactive
    /// user costs nothing).
    std::unordered_map<std::string, std::unique_ptr<Node>> roots
        GUARDED_BY(mu);
    /// Front = most recently used.
    std::list<EntryKey> lru GUARDED_BY(mu);
    size_t size GUARDED_BY(mu) = 0;
    uint64_t lookups GUARDED_BY(mu) = 0;
    uint64_t hits GUARDED_BY(mu) = 0;
    uint64_t misses GUARDED_BY(mu) = 0;
    uint64_t evictions GUARDED_BY(mu) = 0;
    uint64_t invalidations GUARDED_BY(mu) = 0;
    /// Deltas not yet flushed to the process-wide registry counters.
    /// Flushed together every kMetricsFlushStride lookups so the hot
    /// path pays plain increments under the already-held lock instead
    /// of global atomic RMWs; the registry may therefore lag the exact
    /// per-shard counters above by up to one stride per shard.
    uint64_t pending_lookups GUARDED_BY(mu) = 0;
    uint64_t pending_hits GUARDED_BY(mu) = 0;
    uint64_t pending_misses GUARDED_BY(mu) = 0;
    uint64_t pending_invalidations GUARDED_BY(mu) = 0;
    /// Lookup latency (hit + miss): internally atomic, deliberately
    /// not guarded — recorded outside the shard lock and only while
    /// timing is enabled.
    LatencyHistogram lookup_latency;  // lint:allow(unguarded) lock-free
  };

  Shard& ShardFor(const std::string& user, const ContextState& state);

  /// Shard-local trie walk within `user`'s trie.
  Node* Descend(Shard& shard, const std::string& user,
                const ContextState& state, bool create,
                AccessCounter* counter) REQUIRES(shard.mu);
  /// Removes the path for `state` from `user`'s trie, pruning empty
  /// nodes (and the trie itself once empty).
  void RemovePath(Shard& shard, const std::string& user,
                  const ContextState& state) REQUIRES(shard.mu);

  EnvironmentPtr env_;
  Ordering order_;
  size_t shard_capacity_;  ///< Per shard; 0 = unbounded.
  std::atomic<bool> retain_stale_{false};
  std::vector<std::unique_ptr<Shard>> shards_;
};

/// Whether `options` can be answered from per-state cached lists: the
/// combine policy must be associative (kMax or kMin), and the score
/// discount must be kNone — cached lists hold undiscounted scores and
/// their `CacheConfig` does not record a discount. InvalidArgument otherwise.
/// `CachedRankCS` returns this status up front; the serving ladder's
/// stale rung skips itself on it.
Status CheckCacheableOptions(const QueryOptions& options);

/// Merges per-state cached lists into one ranked answer: the combined
/// score of a row under `combine` (kMax or kMin), rows failing any of
/// `selections` dropped, cut to `top_k` with the k-th score's ties
/// kept (0 = all rows) — exactly `db::Ranker` over every listed tuple
/// followed by `TopK`/`Ranked`. Each list must be sorted by descending
/// score, then ascending row id, with each row at most once (what
/// `Ranker::Ranked` produces).
///
/// Under kMax this is a threshold merge (the no-random-access variant
/// of Fagin–Lotem–Naor's threshold algorithm): a k-way merge in ranking
/// order (the best list head found by a scan over the heads, one per
/// query state), where a row's first occurrence carries its final
/// score, so it is emitted at once (if it passes the selections, which
/// are evaluated only on rows the merge reaches). The merge stops once
/// `top_k` rows are out and the next head scores below the k-th; the
/// output comes out already in order. kMin keeps a dense `db::Ranker`
/// (a row's first occurrence is not its minimum there).
std::vector<db::ScoredTuple> MergeStateLists(
    const db::Relation& relation,
    std::span<const std::vector<db::ScoredTuple>* const> lists,
    const std::vector<db::Predicate>& selections, db::CombinePolicy combine,
    size_t top_k);

/// Rank_CS with per-state caching through a `ContextQueryTree`.
///
/// Each query state's ranked tuples are cached independently and the
/// final answer combines the per-state lists under `options.combine`.
/// Correctness therefore requires an *associative* combine policy —
/// kMax or kMin; kAvg/kWeighted return InvalidArgument, as does any
/// score discount other than kNone (see `CheckCacheableOptions`). The
/// lists are merged by `MergeStateLists`; a hit shares the cached
/// entry and copies no tuples.
///
/// With `options.num_threads` > 1 the states are evaluated on a worker
/// pool and merged in state-enumeration order, so the result (tuples
/// and traces) is bit-identical to the single-threaded run.
///
/// The multi-user serving layer (`storage::ServeQuery`) calls the
/// explicit-version overload with the user id and the *serving*
/// version of a pinned `ProfileSnapshot`, so cache entries are tagged
/// `{user, serving version}` and can never be confused across users or
/// across profile swaps. The `Profile&` overload is the single-tenant
/// form: it tags entries with `options.cache_user` (default "") and
/// the profile's own mutation counter `profile.version()` — fine while
/// the same `Profile` object serves and is edited in place, unsound
/// across wholesale profile replacement (see docs/serving.md).
StatusOr<QueryResult> CachedRankCS(const db::Relation& relation,
                                   const ContextualQuery& query,
                                   const TreeResolver& resolver,
                                   const std::string& cache_user,
                                   uint64_t profile_version,
                                   ContextQueryTree& cache,
                                   const QueryOptions& options = {},
                                   AccessCounter* counter = nullptr);

StatusOr<QueryResult> CachedRankCS(const db::Relation& relation,
                                   const ContextualQuery& query,
                                   const TreeResolver& resolver,
                                   const Profile& profile,
                                   ContextQueryTree& cache,
                                   const QueryOptions& options = {},
                                   AccessCounter* counter = nullptr);

/// CachedRankCS over the arena-flattened tree — the serving hot path
/// (`storage::ServeQuery` resolves against the snapshot's
/// `FlatProfileTree`). Identical semantics to the `TreeResolver`
/// overloads: same candidate sets, same traces, same cache entries.
StatusOr<QueryResult> CachedRankCS(const db::Relation& relation,
                                   const ContextualQuery& query,
                                   const FlatResolver& resolver,
                                   const std::string& cache_user,
                                   uint64_t profile_version,
                                   ContextQueryTree& cache,
                                   const QueryOptions& options = {},
                                   AccessCounter* counter = nullptr);

StatusOr<QueryResult> CachedRankCS(const db::Relation& relation,
                                   const ContextualQuery& query,
                                   const FlatResolver& resolver,
                                   const Profile& profile,
                                   ContextQueryTree& cache,
                                   const QueryOptions& options = {},
                                   AccessCounter* counter = nullptr);

}  // namespace ctxpref

#endif  // CTXPREF_PREFERENCE_QUERY_CACHE_H_
