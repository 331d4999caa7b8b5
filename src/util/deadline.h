#ifndef CTXPREF_UTIL_DEADLINE_H_
#define CTXPREF_UTIL_DEADLINE_H_

#include <cstdint>

#include "util/clock.h"

namespace ctxpref {
namespace util {

/// An absolute point on an injected `Clock` by which a query must
/// finish. Default-constructed deadlines are infinite and cost one
/// null check at cancellation points, so deadline-oblivious callers
/// pay (almost) nothing. Copyable and cheap: two words. The clock is
/// borrowed and must outlive the deadline (use
/// `SystemClock::Instance()` in production, a `FakeClock` in tests —
/// same injection idiom as `ResilientSource`).
class Deadline {
 public:
  /// Infinite: never expires.
  Deadline() = default;

  static Deadline Infinite() { return Deadline(); }

  /// Expires `micros` from `clock`'s current time. A non-positive
  /// budget produces an already-expired deadline.
  static Deadline AfterMicros(int64_t micros,
                              Clock* clock = SystemClock::Instance()) {
    return Deadline(clock, clock->NowMicros() + micros);
  }

  /// Expires at the absolute instant `at_micros` on `clock`.
  static Deadline AtMicros(int64_t at_micros, Clock* clock) {
    return Deadline(clock, at_micros);
  }

  bool infinite() const { return clock_ == nullptr; }

  /// The cheap cancellation-point check: one virtual clock read.
  bool Expired() const {
    return clock_ != nullptr && clock_->NowMicros() >= deadline_micros_;
  }

 private:
  Deadline(Clock* clock, int64_t deadline_micros)
      : clock_(clock), deadline_micros_(deadline_micros) {}

  Clock* clock_ = nullptr;  ///< nullptr = infinite.
  int64_t deadline_micros_ = 0;
};

}  // namespace util
}  // namespace ctxpref

#endif  // CTXPREF_UTIL_DEADLINE_H_
