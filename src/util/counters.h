#ifndef CTXPREF_UTIL_COUNTERS_H_
#define CTXPREF_UTIL_COUNTERS_H_

#include <atomic>
#include <cstdint>

namespace ctxpref {

/// Counts index cell visits during context resolution.
///
/// The paper's performance metric (Fig. 7) is the number of *cells*
/// touched while locating the preferences relevant to a query, both for
/// the profile tree and for the sequential-scan baseline. Resolution
/// entry points accept an optional `AccessCounter*`; when non-null the
/// data structures tick it on every cell inspected, so the benchmark
/// measures the real traversal rather than estimating it.
///
/// The counters are relaxed atomics so one counter can be shared by
/// several serving threads; totals are exact, but reads concurrent with
/// ticks are only a snapshot.
class AccessCounter {
 public:
  AccessCounter() = default;

  AccessCounter(const AccessCounter&) = delete;
  AccessCounter& operator=(const AccessCounter&) = delete;

  void AddCell(uint64_t n = 1) {
    cells_.fetch_add(n, std::memory_order_relaxed);
  }

  uint64_t cells() const { return cells_.load(std::memory_order_relaxed); }

  void Reset() { cells_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> cells_{0};
};

/// Plain snapshot of `AcquisitionCounters` (safe to copy around).
struct AcquisitionStats {
  uint64_t reads = 0;             ///< Snapshot-level parameter reads.
  uint64_t attempts = 0;          ///< Backend read attempts (incl. retries).
  uint64_t fresh = 0;             ///< Served a first-attempt reading.
  uint64_t retried = 0;           ///< Served after >= 1 retry.
  uint64_t stale = 0;             ///< Served last-known-good within TTL.
  uint64_t stale_lifted = 0;      ///< Served last-known-good lifted >= 1 level.
  uint64_t lifted_levels = 0;     ///< Total staleness-ladder steps applied.
  uint64_t breaker_open = 0;      ///< Served without probing (breaker open).
  uint64_t absent = 0;            ///< No value at all: parameter took `all`.
  uint64_t errors = 0;            ///< Backend errors observed (any attempt).
};

/// Aggregate health counters for context acquisition (the resilience
/// layer of `src/context/resilient_source.h`). One instance typically
/// lives in `CurrentContext` and is ticked per parameter per snapshot,
/// so operators can see *why* served context states are coarse.
///
/// Relaxed atomics, same contract as `AccessCounter`: totals are exact,
/// concurrent reads are snapshots.
class AcquisitionCounters {
 public:
  AcquisitionCounters() = default;

  AcquisitionCounters(const AcquisitionCounters&) = delete;
  AcquisitionCounters& operator=(const AcquisitionCounters&) = delete;

  void AddReads(uint64_t n = 1) { Tick(reads_, n); }
  void AddAttempts(uint64_t n = 1) { Tick(attempts_, n); }
  void AddFresh(uint64_t n = 1) { Tick(fresh_, n); }
  void AddRetried(uint64_t n = 1) { Tick(retried_, n); }
  void AddStale(uint64_t n = 1) { Tick(stale_, n); }
  void AddStaleLifted(uint64_t n = 1) { Tick(stale_lifted_, n); }
  void AddLiftedLevels(uint64_t n) { Tick(lifted_levels_, n); }
  void AddBreakerOpen(uint64_t n = 1) { Tick(breaker_open_, n); }
  void AddAbsent(uint64_t n = 1) { Tick(absent_, n); }
  void AddErrors(uint64_t n = 1) { Tick(errors_, n); }

  AcquisitionStats Snapshot() const {
    AcquisitionStats s;
    s.reads = Load(reads_);
    s.attempts = Load(attempts_);
    s.fresh = Load(fresh_);
    s.retried = Load(retried_);
    s.stale = Load(stale_);
    s.stale_lifted = Load(stale_lifted_);
    s.lifted_levels = Load(lifted_levels_);
    s.breaker_open = Load(breaker_open_);
    s.absent = Load(absent_);
    s.errors = Load(errors_);
    return s;
  }

  void Reset() {
    for (std::atomic<uint64_t>* c :
         {&reads_, &attempts_, &fresh_, &retried_, &stale_, &stale_lifted_,
          &lifted_levels_, &breaker_open_, &absent_, &errors_}) {
      c->store(0, std::memory_order_relaxed);
    }
  }

 private:
  static void Tick(std::atomic<uint64_t>& c, uint64_t n) {
    c.fetch_add(n, std::memory_order_relaxed);
  }
  static uint64_t Load(const std::atomic<uint64_t>& c) {
    return c.load(std::memory_order_relaxed);
  }

  std::atomic<uint64_t> reads_{0};
  std::atomic<uint64_t> attempts_{0};
  std::atomic<uint64_t> fresh_{0};
  std::atomic<uint64_t> retried_{0};
  std::atomic<uint64_t> stale_{0};
  std::atomic<uint64_t> stale_lifted_{0};
  std::atomic<uint64_t> lifted_levels_{0};
  std::atomic<uint64_t> breaker_open_{0};
  std::atomic<uint64_t> absent_{0};
  std::atomic<uint64_t> errors_{0};
};

}  // namespace ctxpref

#endif  // CTXPREF_UTIL_COUNTERS_H_
