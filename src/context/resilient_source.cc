#include "context/resilient_source.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <thread>

#include "util/metrics.h"
#include "util/trace.h"

namespace ctxpref {

namespace {

/// End-to-end `ReadWithInfo` latency: includes retries, backoff sleeps
/// and degraded serving, so its tail is dominated by the retry policy
/// rather than the inner source.
LatencyHistogram& ReadLatency() {
  static LatencyHistogram* h = &MetricsRegistry::Global().GetHistogram(
      "ctxpref_source_read_latency_ns",
      "ResilientSource::ReadWithInfo latency incl. retries and backoff");
  return *h;
}

}  // namespace

const char* BreakerStateToString(BreakerState s) {
  switch (s) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half-open";
  }
  return "unknown";
}

ResilientSource::ResilientSource(const ContextEnvironment& env,
                                 std::unique_ptr<ContextSource> inner,
                                 SourcePolicy policy, util::Clock* clock,
                                 uint64_t seed)
    : env_(&env),
      inner_(std::move(inner)),
      policy_(policy),
      clock_(clock),
      rng_(seed) {}

BreakerState ResilientSource::breaker_state() const {
  util::MutexLock lock(mu_);
  return breaker_;
}

void ResilientSource::SeedLastKnownGood(ValueRef value, int64_t at_micros) {
  util::MutexLock lock(mu_);
  last_good_ = value;
  last_good_at_ = at_micros;
}

StatusOr<ValueRef> ResilientSource::Read() { return ReadWithInfo(nullptr); }

ResilientSource::Attempted ResilientSource::AttemptOnce() {
  const int64_t t0 = clock_->NowMicros();
  Attempted a{inner_->Read(), Status::OK()};
  const int64_t elapsed = clock_->NowMicros() - t0;
  if (!a.reading.ok()) {
    a.failure = a.reading.status();
  } else if (policy_.read_deadline_micros > 0 &&
             elapsed > policy_.read_deadline_micros) {
    a.failure = Status::DeadlineExceeded(
        "read of parameter '" + env_->parameter(param_index()).name() +
        "' took " + std::to_string(elapsed) + "us (deadline " +
        std::to_string(policy_.read_deadline_micros) + "us)");
  } else if (!env_->parameter(param_index()).hierarchy().Contains(*a.reading)) {
    a.failure = Status::InvalidArgument(
        "source for parameter '" + env_->parameter(param_index()).name() +
        "' produced a value outside its extended domain");
  }
  return a;
}

void ResilientSource::RecordSuccess() {
  consecutive_failures_ = 0;
  if (breaker_ == BreakerState::kHalfOpen) {
    if (++half_open_successes_ >= policy_.half_open_probes_to_close) {
      breaker_ = BreakerState::kClosed;
      half_open_successes_ = 0;
    }
  }
}

void ResilientSource::RecordFailure(int64_t now) {
  if (breaker_ == BreakerState::kHalfOpen) {
    // The probe failed: re-open and restart the cooldown.
    breaker_ = BreakerState::kOpen;
    breaker_opened_at_ = now;
    half_open_successes_ = 0;
    return;
  }
  ++consecutive_failures_;
  if (policy_.failure_threshold > 0 &&
      consecutive_failures_ >= policy_.failure_threshold) {
    breaker_ = BreakerState::kOpen;
    breaker_opened_at_ = now;
    consecutive_failures_ = 0;
  }
}

StatusOr<ValueRef> ResilientSource::ServeDegraded(int64_t now,
                                                 bool breaker_open,
                                                 SourceReadInfo* info) {
  const Hierarchy& h = env_->parameter(param_index()).hierarchy();
  if (breaker_open && info->error.ok()) {
    info->error = Status::Unavailable(
        "breaker open for parameter '" + env_->parameter(param_index()).name() +
        "'" + (last_error_.ok() ? "" : " (last error: " +
                                           last_error_.ToString() + ")"));
  }
  if (!last_good_.has_value()) {
    info->provenance =
        breaker_open ? ReadProvenance::kBreakerOpen : ReadProvenance::kAbsent;
    if (info->error.ok()) {
      info->error = last_error_.ok()
                        ? Status::NotFound(
                              "no reading for parameter '" +
                              env_->parameter(param_index()).name() + "'")
                        : last_error_;
    }
    return info->error;
  }

  const int64_t age = now - last_good_at_;
  info->age_micros = age;
  LevelIndex lift = 0;
  if (age > policy_.stale_ttl_micros) {
    const int64_t extra = age - policy_.stale_ttl_micros;
    const int64_t windows =
        policy_.lift_window_micros > 0
            ? extra / policy_.lift_window_micros + 1
            : static_cast<int64_t>(h.all_level());
    lift = static_cast<LevelIndex>(
        std::min<int64_t>(windows, h.all_level()));
  }
  const LevelIndex target = static_cast<LevelIndex>(
      std::min<uint32_t>(static_cast<uint32_t>(last_good_->level) + lift,
                         h.all_level()));
  const ValueRef served = h.Anc(*last_good_, target);
  info->lifted_levels = static_cast<LevelIndex>(target - last_good_->level);
  if (breaker_open) {
    info->provenance = ReadProvenance::kBreakerOpen;
  } else {
    info->provenance = info->lifted_levels > 0 ? ReadProvenance::kStaleLifted
                                               : ReadProvenance::kStale;
  }
  return served;
}

StatusOr<ValueRef> ResilientSource::ReadWithInfo(SourceReadInfo* info) {
  TraceSpan span("source.read");
  ScopedLatency latency(&ReadLatency());
  SourceReadInfo local;
  util::MutexLock lock(mu_);
  int64_t now = clock_->NowMicros();

  if (breaker_ == BreakerState::kOpen) {
    if (now - breaker_opened_at_ >= policy_.open_cooldown_micros) {
      breaker_ = BreakerState::kHalfOpen;
      half_open_successes_ = 0;
    } else {
      local.attempts = 0;
      StatusOr<ValueRef> served = ServeDegraded(now, /*breaker_open=*/true,
                                                &local);
      if (info != nullptr) *info = local;
      if (span.active()) {
        span.Tag("provenance", ReadProvenanceToString(local.provenance));
      }
      return served;
    }
  }

  // Half-open lets exactly one probe through per logical read; closed
  // reads get the full retry budget.
  const uint32_t allowed = breaker_ == BreakerState::kHalfOpen
                               ? 1
                               : std::max<uint32_t>(1, policy_.max_attempts);
  int64_t backoff = policy_.backoff_initial_micros;
  for (uint32_t attempt = 1; attempt <= allowed; ++attempt) {
    local.attempts = attempt;
    Attempted a = AttemptOnce();
    if (a.failure.ok()) {
      last_good_ = *a.reading;
      last_good_at_ = clock_->NowMicros();
      last_error_ = Status::OK();
      RecordSuccess();
      local.provenance = attempt > 1 ? ReadProvenance::kRetried
                                     : ReadProvenance::kFresh;
      if (info != nullptr) *info = local;
      if (span.active()) {
        span.Tag("provenance", ReadProvenanceToString(local.provenance));
        span.Tag("attempts", static_cast<uint64_t>(local.attempts));
      }
      return *a.reading;
    }
    last_error_ = a.failure;
    local.error = a.failure;
    if (attempt < allowed) {
      int64_t sleep = backoff;
      if (policy_.backoff_jitter > 0.0) {
        const double j = std::min(policy_.backoff_jitter, 1.0);
        sleep = static_cast<int64_t>(
            static_cast<double>(backoff) *
            (1.0 - j + 2.0 * j * rng_.NextDouble()));
      }
      clock_->SleepMicros(std::max<int64_t>(sleep, 0));
      backoff = std::min(
          static_cast<int64_t>(static_cast<double>(backoff) *
                               policy_.backoff_multiplier),
          policy_.backoff_max_micros);
    }
  }

  now = clock_->NowMicros();
  RecordFailure(now);
  StatusOr<ValueRef> served = ServeDegraded(now, /*breaker_open=*/false,
                                            &local);
  if (info != nullptr) *info = local;
  if (span.active()) {
    span.Tag("provenance", ReadProvenanceToString(local.provenance));
    span.Tag("attempts", static_cast<uint64_t>(local.attempts));
  }
  return served;
}

// ---------------------------------------------------------------------
// FaultInjectingSource

StatusOr<ValueRef> FaultInjectingSource::Read() {
  Step step;
  {
    util::MutexLock lock(mu_);
    ++reads_;
    if (script_.empty()) {
      step.kind = Step::Kind::kOk;
    } else {
      step = script_.front();
      script_.pop_front();
    }
    if (!step.has_value) step.value = value_;
  }
  switch (step.kind) {
    case Step::Kind::kOk:
    case Step::Kind::kValue:
      return step.value;
    case Step::Kind::kError:
      return step.error;
    case Step::Kind::kLatency:
      if (clock_ != nullptr) clock_->Advance(step.latency_micros);
      return step.value;
    case Step::Kind::kOutOfDomain:
      return ValueRef{std::numeric_limits<LevelIndex>::max(),
                      std::numeric_limits<ValueId>::max()};
  }
  return Status::Internal("unreachable fault script step");
}

void FaultInjectingSource::PushOk() {
  util::MutexLock lock(mu_);
  script_.push_back(Step{});
}

void FaultInjectingSource::PushValue(ValueRef v) {
  util::MutexLock lock(mu_);
  Step s;
  s.kind = Step::Kind::kValue;
  s.value = v;
  s.has_value = true;
  script_.push_back(s);
}

void FaultInjectingSource::PushNotFound() {
  PushError(Status::NotFound("injected: sensor unavailable"));
}

void FaultInjectingSource::PushError(Status error) {
  util::MutexLock lock(mu_);
  Step s;
  s.kind = Step::Kind::kError;
  s.error = std::move(error);
  script_.push_back(s);
}

void FaultInjectingSource::PushLatency(int64_t micros) {
  util::MutexLock lock(mu_);
  Step s;
  s.kind = Step::Kind::kLatency;
  s.latency_micros = micros;
  script_.push_back(s);
}

void FaultInjectingSource::PushLatencyValue(int64_t micros, ValueRef v) {
  util::MutexLock lock(mu_);
  Step s;
  s.kind = Step::Kind::kLatency;
  s.latency_micros = micros;
  s.value = v;
  s.has_value = true;
  script_.push_back(s);
}

void FaultInjectingSource::PushOutOfDomain() {
  util::MutexLock lock(mu_);
  Step s;
  s.kind = Step::Kind::kOutOfDomain;
  script_.push_back(s);
}

void FaultInjectingSource::FailNext(size_t n) {
  for (size_t i = 0; i < n; ++i) PushNotFound();
}

void FaultInjectingSource::set_value(ValueRef v) {
  util::MutexLock lock(mu_);
  value_ = v;
}

size_t FaultInjectingSource::reads() const {
  util::MutexLock lock(mu_);
  return reads_;
}

}  // namespace ctxpref
