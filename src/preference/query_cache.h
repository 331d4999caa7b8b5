#ifndef CTXPREF_PREFERENCE_QUERY_CACHE_H_
#define CTXPREF_PREFERENCE_QUERY_CACHE_H_

#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "db/ranker.h"
#include "preference/contextual_query.h"
#include "util/counters.h"
#include "util/mutex.h"

namespace ctxpref {

/// Point-in-time counter snapshot of a `ContextQueryTree`, taken under
/// its lock.
struct CacheStats {
  /// Total `Lookup` calls; every lookup is exactly one hit or miss, so
  /// `lookups == hits + misses` always holds.
  uint64_t lookups = 0;
  uint64_t hits = 0;
  /// The hits `LookupOrRescore` found at an older version under the
  /// pinned arena's shape (re-score hits); counted in `hits` too.
  uint64_t rescore_hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  /// Entries dropped by `InvalidateUserBelow` — the coherence consume
  /// step's reclamation on a structural or removal record
  /// (docs/coherence.md); a rescore record drops nothing. Lookups never
  /// drop entries: a version-skewed entry is a miss or a re-score hit.
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
/// Structure: every *user* owns one hash map from *query* context
/// state to a cached leaf, under one mutex and one LRU list spanning
/// every user; each leaf caches the ranked tuples and winning
/// resolution candidates previously computed for that `(user, state)`.
/// Every lookup is an exact match on the state, so a map is all the
/// structure the cache needs (no lookup searches by cover). A serving
/// thread reads its own tree (one `ReplicatedQueryCache` replica), so
/// the lock is uncontended on the serving path.
/// Entries are tagged with the profile version they were computed from
/// — for server-side multi-user serving that is the `ProfileStore`
/// *serving* version of the published `ProfileSnapshot`, which is
/// monotone across reloads and user re-creation (`Profile::version()`
/// restarts on reload and can collide; see docs/serving.md) — and carry
/// the `CacheConfig` they were computed under (a lookup under other
/// options misses). A lookup at another version is a plain miss that
/// leaves the entry in place — reachable for the degradation ladder's
/// `LookupAtOrBefore` — until the next `Put` for the same state
/// overwrites it, the coherence consume step reclaims it
/// (`InvalidateUserBelow`, docs/coherence.md), or LRU evicts it beyond
/// the capacity.
///
/// An entry also records the shape of the arena its candidates were
/// resolved over (`FlatProfileTree::shape_id()`). Context resolution
/// reads the shape only — cover and distance, never a score — so an
/// entry's candidates hold at any later version whose arena shares that
/// shape, and only their scores may have moved: `LookupOrRescore` calls
/// such an entry a *re-score hit*, and `RankCS` re-reads the winners'
/// scores from the pinned arena instead of resolving the state again
/// (docs/serving.md).
///
/// The single-user entry points (no user id) are sugar for the empty
/// user id "".
///
/// Thread safety: all public methods are safe to call concurrently.
/// `Lookup` returns a shared_ptr snapshot, so a reader may keep using
/// an entry after a concurrent `Put`/eviction/invalidation has
/// removed it from the tree. See docs/concurrency.md.
class ContextQueryTree {
 public:
  /// What a leaf caches for one context state: the ranked tuples plus
  /// the winning candidate paths that produced them, so cache hits can
  /// reconstruct the same resolution trace as the original miss.
  struct Entry {
    std::vector<db::ScoredTuple> tuples;
    /// Never null; a hit's trace shares it.
    CandidateSetPtr candidates;
    /// The options `tuples` were computed under; a lookup under other
    /// options misses (and the recomputed entry replaces this one).
    CacheConfig config;
    /// `FlatProfileTree::shape_id()` of the arena `candidates` were
    /// resolved over; 0 = none, never re-scored.
    uint64_t shape_id = 0;
  };

  /// What `LookupOrRescore` found.
  struct Hit {
    std::shared_ptr<const Entry> entry;  ///< Null on a miss.
    /// `entry` is from an older version under the lookup's shape: its
    /// candidates hold at the lookup's version, their scores may not.
    bool rescore = false;
  };

  /// `capacity` = number of cached states (0 = unbounded); the LRU
  /// order spans every user's map.
  explicit ContextQueryTree(size_t capacity = 0);

  /// The counters, read under the tree's lock.
  CacheStats Stats() const;

  size_t size() const { return Stats().size; }
  uint64_t hits() const { return Stats().hits; }
  uint64_t rescore_hits() const { return Stats().rescore_hits; }
  uint64_t misses() const { return Stats().misses; }
  uint64_t evictions() const { return Stats().evictions; }
  uint64_t invalidations() const { return Stats().invalidations; }

  /// Returns the cached entry for `user`'s `state` if present, computed
  /// at `profile_version` and under `config`. An entry at another
  /// version or of another config is a plain miss and stays in place
  /// (the caller's recompute `Put`s over it); no entry is a re-score
  /// hit (`LookupOrRescore`). Ticks `counter` once for
  /// the probe (the cache costs cells too). The returned snapshot
  /// stays valid after concurrent mutations.
  std::shared_ptr<const Entry> Lookup(const std::string& user,
                                      const ContextState& state,
                                      uint64_t profile_version,
                                      const CacheConfig& config = {},
                                      AccessCounter* counter = nullptr);

  /// `Lookup` under the pinned arena's `shape_id` (non-zero): the entry
  /// at `profile_version` is a plain hit; an entry at an older version,
  /// of `config`, whose `shape_id` is `shape_id` is a re-score hit,
  /// counted in `hits` and `rescore_hits` and refreshed in the LRU —
  /// the caller re-reads its winners' scores and `PutEntry`s the state
  /// at `profile_version`; anything else is a miss. `shape_id` 0 makes
  /// this `Lookup`.
  Hit LookupOrRescore(const std::string& user, const ContextState& state,
                      uint64_t profile_version, uint64_t shape_id,
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
  /// writing the actual version to `*entry_version`. An out-of-window
  /// version is simply a miss (the entry may serve a different
  /// staleness window later). Counted as a lookup plus hit/miss in
  /// `Stats()`.
  std::shared_ptr<const Entry> LookupAtOrBefore(
      const std::string& user, const ContextState& state,
      uint64_t max_version, uint64_t min_version,
      const CacheConfig& config = {}, uint64_t* entry_version = nullptr,
      AccessCounter* counter = nullptr);

  /// Caches `tuples` (and the resolution `candidates` that produced
  /// them; null = none) for `user`'s `state` at `profile_version`, under
  /// the default `CacheConfig`, evicting the least-recently-used entry
  /// beyond the capacity.
  void Put(const std::string& user, const ContextState& state,
           uint64_t profile_version, std::vector<db::ScoredTuple> tuples,
           CandidateSetPtr candidates = nullptr);

  /// Caches an already-built `entry` — `RankCS`'s miss path builds the
  /// entry once and shares the same pointer with its merge, so caching
  /// an answer copies no tuples. `entry->candidates` must not be null.
  void PutEntry(const std::string& user, const ContextState& state,
                uint64_t profile_version, std::shared_ptr<const Entry> entry);

  /// Single-user sugar: `Put("", state, ...)`.
  void Put(const ContextState& state, uint64_t profile_version,
           std::vector<db::ScoredTuple> tuples,
           CandidateSetPtr candidates = nullptr) {
    Put(std::string(), state, profile_version, std::move(tuples),
        std::move(candidates));
  }

  /// Drops `user`'s cached entries whose version tag is strictly below
  /// `version`, leaving newer (and equal) entries in place — the one
  /// drop call of the log-based coherence consumer: a structural record
  /// `{user, v}` with a retention window `w` becomes
  /// `InvalidateUserBelow(user, v - w)`, so entries inside the window
  /// survive for `LookupAtOrBefore` while everything older is
  /// reclaimed; a removal record passes the maximum version and drops
  /// them all; a rescore record calls nothing. Returns the number of entries dropped (each counted as
  /// an invalidation, not a miss). Safe to call concurrently with
  /// lookups: readers holding entry snapshots keep them.
  size_t InvalidateUserBelow(const std::string& user, uint64_t version);

 private:
  /// LRU identity of one cached entry: which user's map it lives in
  /// and under which state.
  struct EntryKey {
    std::string user;
    ContextState state;
  };
  struct Leaf {
    std::shared_ptr<const Entry> entry;
    uint64_t version = 0;
    std::list<EntryKey>::iterator lru_it;
  };
  using UserMap = std::unordered_map<ContextState, Leaf, ContextStateHash>;

  /// `user`'s leaf for `state`, or null.
  Leaf* Find(const std::string& user, const ContextState& state)
      REQUIRES(mu_);

  /// The locked probe behind every lookup: a hit is an entry whose
  /// version lies in `[min_version, max_version]` and whose config is
  /// `config`, or, with a non-zero `shape_id`, one below `min_version`
  /// of that shape and config (a re-score hit). A hit is refreshed in
  /// the LRU, its version written to `*entry_version` if set; anything
  /// else is a miss that drops nothing. Ticks the counters and flushes
  /// them to the registry every `kMetricsFlushStride` lookups.
  Hit Probe(const std::string& user, const ContextState& state,
            uint64_t min_version, uint64_t max_version, uint64_t shape_id,
            const CacheConfig& config, uint64_t* entry_version,
            AccessCounter* counter) EXCLUDES(mu_);

  size_t capacity_;  ///< 0 = unbounded.
  /// Ranks `kCacheShard` — below the coherence locks (a replica's
  /// consume step invalidates entries while holding its consume mutex),
  /// above nothing this code takes (metric flushes under the lock are
  /// lock-free atomics).
  mutable util::Mutex mu_{util::LockRank::kCacheShard,
                          "ContextQueryTree.mu"};
  /// One map per user with cached entries; a user's map is erased
  /// when its last entry goes.
  std::unordered_map<std::string, UserMap> users_ GUARDED_BY(mu_);
  /// Front = most recently used; one node per cached entry.
  std::list<EntryKey> lru_ GUARDED_BY(mu_);
  uint64_t lookups_ GUARDED_BY(mu_) = 0;
  uint64_t hits_ GUARDED_BY(mu_) = 0;
  uint64_t rescore_hits_ GUARDED_BY(mu_) = 0;
  uint64_t misses_ GUARDED_BY(mu_) = 0;
  uint64_t evictions_ GUARDED_BY(mu_) = 0;
  uint64_t invalidations_ GUARDED_BY(mu_) = 0;
  /// Deltas not yet flushed to the process-wide registry counters.
  /// Flushed together every kMetricsFlushStride lookups so the hot
  /// path pays plain increments under the already-held lock instead
  /// of global atomic RMWs; the registry may therefore lag the exact
  /// counters above by up to one stride.
  uint64_t pending_lookups_ GUARDED_BY(mu_) = 0;
  uint64_t pending_hits_ GUARDED_BY(mu_) = 0;
  uint64_t pending_rescore_hits_ GUARDED_BY(mu_) = 0;
  uint64_t pending_misses_ GUARDED_BY(mu_) = 0;
};

/// Whether `options` can be answered from per-state cached lists: the
/// combine policy must be associative (kMax or kMin). InvalidArgument
/// otherwise. `RankCS` with a `StateCache` returns this status up
/// front; the serving ladder's stale rung skips itself on it.
Status CheckCacheableOptions(const QueryOptions& options);

}  // namespace ctxpref

#endif  // CTXPREF_PREFERENCE_QUERY_CACHE_H_
