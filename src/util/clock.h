#ifndef CTXPREF_UTIL_CLOCK_H_
#define CTXPREF_UTIL_CLOCK_H_

#include <atomic>
#include <cstdint>

namespace ctxpref {
namespace util {

/// Monotonic microsecond clock, injectable so retries, cooldowns,
/// deadlines and staleness are deterministic under test (`FakeClock`).
/// Lives in util so that deadline plumbing (`util::Deadline`) can
/// depend on it without pulling in the context layer;
/// `context/resilient_source.h` re-exports the old names.
class Clock {
 public:
  virtual ~Clock() = default;
  virtual int64_t NowMicros() const = 0;
  virtual void SleepMicros(int64_t micros) = 0;
};

/// `std::chrono::steady_clock`-backed wall clock.
class SystemClock : public Clock {
 public:
  int64_t NowMicros() const override;
  void SleepMicros(int64_t micros) override;

  /// Shared process-wide instance (never deleted).
  static SystemClock* Instance();
};

/// Manually-advanced clock for tests and deterministic benches.
/// `SleepMicros` advances time instead of blocking, so scripted
/// backoff schedules run instantly. Thread-safe.
class FakeClock : public Clock {
 public:
  explicit FakeClock(int64_t start_micros = 0) : now_(start_micros) {}

  int64_t NowMicros() const override {
    return now_.load(std::memory_order_relaxed);
  }
  void SleepMicros(int64_t micros) override { Advance(micros); }
  void Advance(int64_t micros) {
    now_.fetch_add(micros, std::memory_order_relaxed);
  }

 private:
  std::atomic<int64_t> now_;
};

}  // namespace util
}  // namespace ctxpref

#endif  // CTXPREF_UTIL_CLOCK_H_
