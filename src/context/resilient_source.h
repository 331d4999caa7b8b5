#ifndef CTXPREF_CONTEXT_RESILIENT_SOURCE_H_
#define CTXPREF_CONTEXT_RESILIENT_SOURCE_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>

#include "context/source.h"
#include "util/clock.h"
#include "util/mutex.h"
#include "util/random.h"
#include "util/status.h"

namespace ctxpref {

/// Resilient context acquisition (the robustness layer under paper
/// §4.1): real sensors are slow, flaky, and occasionally wrong, but
/// §3.1 explicitly allows a parameter to "take a single value from a
/// higher level of the hierarchy" when it is only roughly known. The
/// decorator below exploits exactly that: when a backend cannot
/// produce a trustworthy reading right now, its last-known-good value
/// is served instead, and as that value ages it is *lifted* one
/// hierarchy level per staleness window via `Anc` — the paper-native
/// degradation ladder fresh → retried → stale → stale-lifted-k →
/// `all` — so query serving keeps answering, just more coarsely.

/// Per-source resilience policy. Defaults are tuned for an interactive
/// sensor (tens of milliseconds budget); see docs/robustness.md.
struct SourcePolicy {
  /// A backend read taking longer than this counts as a failure
  /// (DeadlineExceeded) even if it eventually returned a value.
  int64_t read_deadline_micros = 50'000;
  /// Total backend attempts per logical read (1 = no retries).
  uint32_t max_attempts = 3;
  /// Exponential backoff between attempts: initial, multiplier, cap.
  int64_t backoff_initial_micros = 1'000;
  double backoff_multiplier = 2.0;
  int64_t backoff_max_micros = 50'000;
  /// Uniform jitter fraction on each backoff sleep: the sleep is drawn
  /// from [backoff * (1 - jitter), backoff * (1 + jitter)].
  double backoff_jitter = 0.5;

  /// Circuit breaker: after this many *consecutive* failed logical
  /// reads the breaker opens and backend probes stop.
  uint32_t failure_threshold = 5;
  /// While open, reads are served degraded without touching the
  /// backend; after this cooldown the breaker goes half-open and lets
  /// a single probe through.
  int64_t open_cooldown_micros = 1'000'000;
  /// Successful half-open probes required to close the breaker again.
  uint32_t half_open_probes_to_close = 1;

  /// Last-known-good readings younger than this are served verbatim
  /// (provenance kStale).
  int64_t stale_ttl_micros = 5'000'000;
  /// Past the TTL, the reading is lifted one hierarchy level per
  /// elapsed window of this length, until it reaches `all`.
  int64_t lift_window_micros = 5'000'000;
};

enum class BreakerState { kClosed, kOpen, kHalfOpen };

const char* BreakerStateToString(BreakerState s);

/// Decorates any `ContextSource` with deadlines, bounded retries
/// (exponential backoff + jitter), a failure-threshold circuit
/// breaker, and hierarchy-based graceful degradation of the
/// last-known-good reading. Deterministic given a `FakeClock` and the
/// seed. Thread-safe: concurrent `ReadWithInfo` calls serialize on an
/// internal mutex (acquisition state is tiny; contention is not a
/// concern at sensor rates).
class ResilientSource : public ContextSource {
 public:
  /// `env` must outlive the source; `clock` is borrowed (use
  /// `util::SystemClock::Instance()` in production, a `util::FakeClock`
  /// in tests).
  ResilientSource(const ContextEnvironment& env,
                  std::unique_ptr<ContextSource> inner, SourcePolicy policy,
                  util::Clock* clock, uint64_t seed);

  size_t param_index() const override { return inner_->param_index(); }
  StatusOr<ValueRef> Read() override;
  StatusOr<ValueRef> ReadWithInfo(SourceReadInfo* info) override;

  BreakerState breaker_state() const;
  const SourcePolicy& policy() const { return policy_; }

  /// Seeds the last-known-good cache (e.g. from persisted state at
  /// startup). `at_micros` is the reading's acquisition time.
  void SeedLastKnownGood(ValueRef value, int64_t at_micros);

  /// Test hook: the wrapped source.
  ContextSource& inner() { return *inner_; }

 private:
  struct Attempted {
    StatusOr<ValueRef> reading;
    Status failure;  ///< OK = the attempt succeeded.
  };

  /// One guarded backend attempt: runs inner_->Read() under the
  /// deadline and domain checks. Called with mu_ held across the
  /// backend read — which is why `kResilientSource` ranks above
  /// (acquires before) the fault injector's script lock.
  Attempted AttemptOnce() REQUIRES(mu_);

  /// Serves the degraded value (stale / lifted / absent) for a read
  /// that could not reach the backend or exhausted its attempts.
  StatusOr<ValueRef> ServeDegraded(int64_t now, bool breaker_open,
                                   SourceReadInfo* info) REQUIRES(mu_);

  /// Records a failed logical read against the breaker.
  void RecordFailure(int64_t now) REQUIRES(mu_);
  /// Records a successful logical read.
  void RecordSuccess() REQUIRES(mu_);

  const ContextEnvironment* env_;
  /// Pointee guarded: the backend is only read under mu_ (the pointer
  /// itself is set once at construction).
  std::unique_ptr<ContextSource> inner_ PT_GUARDED_BY(mu_);
  SourcePolicy policy_;
  util::Clock* clock_;

  mutable util::Mutex mu_{util::LockRank::kResilientSource,
                          "ResilientSource.mu"};
  Rng rng_ GUARDED_BY(mu_);
  BreakerState breaker_ GUARDED_BY(mu_) = BreakerState::kClosed;
  uint32_t consecutive_failures_ GUARDED_BY(mu_) = 0;
  uint32_t half_open_successes_ GUARDED_BY(mu_) = 0;
  int64_t breaker_opened_at_ GUARDED_BY(mu_) = 0;
  std::optional<ValueRef> last_good_ GUARDED_BY(mu_);
  int64_t last_good_at_ GUARDED_BY(mu_) = 0;
  Status last_error_ GUARDED_BY(mu_);
};

/// A scripted source for chaos tests: each `Read` consumes the next
/// step of the script (fail, succeed, take this long, report garbage);
/// an exhausted script keeps succeeding with the configured value.
/// Latency steps advance the injected `FakeClock`, so deadline
/// handling is testable without real sleeps. Thread-safe.
class FaultInjectingSource : public ContextSource {
 public:
  FaultInjectingSource(size_t param_index, ValueRef value,
                       util::FakeClock* clock = nullptr)
      : param_index_(param_index), clock_(clock), value_(value) {}

  size_t param_index() const override { return param_index_; }
  StatusOr<ValueRef> Read() override;

  /// Script steps, consumed in push order (one per Read):
  void PushOk();                    ///< Succeed with the current value.
  void PushValue(ValueRef v);       ///< Succeed with `v` once.
  void PushNotFound();              ///< Fail with NotFound.
  void PushError(Status error);     ///< Fail with `error`.
  void PushLatency(int64_t micros); ///< Advance clock, then succeed.
  /// Succeed, after advancing the clock, with `v` — a slow but valid
  /// reading (deadline handling decides whether it is usable).
  void PushLatencyValue(int64_t micros, ValueRef v);
  void PushOutOfDomain();           ///< Succeed with a garbage ValueRef.
  void FailNext(size_t n);          ///< n NotFound steps.

  void set_value(ValueRef v);
  /// Total backend reads observed (attempts, not logical reads).
  size_t reads() const;

 private:
  struct Step {
    enum class Kind { kOk, kValue, kError, kLatency, kOutOfDomain };
    Kind kind = Kind::kOk;
    ValueRef value;
    Status error;
    int64_t latency_micros = 0;
    bool has_value = false;
  };

  size_t param_index_;
  util::FakeClock* clock_;  ///< Set at construction, never reseated.
  mutable util::Mutex mu_{util::LockRank::kFaultInjector,
                          "FaultInjectingSource.mu"};
  ValueRef value_ GUARDED_BY(mu_);
  std::deque<Step> script_ GUARDED_BY(mu_);
  size_t reads_ GUARDED_BY(mu_) = 0;
};

}  // namespace ctxpref

#endif  // CTXPREF_CONTEXT_RESILIENT_SOURCE_H_
