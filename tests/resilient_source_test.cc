// Deterministic chaos tests for the resilient context-acquisition
// layer: scripted FaultInjectingSource + FakeClock, fixed seeds. Every
// breaker transition (closed -> open -> half-open -> closed, plus the
// half-open -> open reopen) and every staleness-lift step of the
// degradation ladder is covered, and a threaded stress section keeps
// the TSan build honest.

#include "context/resilient_source.h"

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "tests/test_util.h"

namespace ctxpref {
namespace {

using ::ctxpref::testing::PaperEnv;
using ::ctxpref::testing::State;

class ResilientSourceTest : public ::testing::Test {
 protected:
  EnvironmentPtr env_ = PaperEnv();
  util::FakeClock clock_;

  ValueRef Loc(const char* name) {
    return *env_->parameter(0).hierarchy().FindAnyLevel(name);
  }
  const Hierarchy& LocH() { return env_->parameter(0).hierarchy(); }

  /// A resilient wrapper over a scripted source for parameter 0.
  /// Returns (resilient, raw pointer to the fault injector).
  std::pair<std::unique_ptr<ResilientSource>, FaultInjectingSource*>
  MakeRig(SourcePolicy policy, ValueRef value) {
    auto fault = std::make_unique<FaultInjectingSource>(0, value, &clock_);
    FaultInjectingSource* raw = fault.get();
    auto src = std::make_unique<ResilientSource>(
        *env_, std::move(fault), policy, &clock_, /*seed=*/42);
    return {std::move(src), raw};
  }
};

/// A policy with round numbers that make the ladder arithmetic obvious.
SourcePolicy TestPolicy() {
  SourcePolicy p;
  p.read_deadline_micros = 10'000;       // 10ms
  p.max_attempts = 3;
  p.backoff_initial_micros = 1'000;
  p.backoff_multiplier = 2.0;
  p.backoff_max_micros = 4'000;
  p.backoff_jitter = 0.5;
  p.failure_threshold = 2;
  p.open_cooldown_micros = 100'000;      // 100ms
  p.half_open_probes_to_close = 1;
  p.stale_ttl_micros = 1'000'000;        // 1s fresh-enough window
  p.lift_window_micros = 1'000'000;      // +1 level per second past TTL
  return p;
}

TEST_F(ResilientSourceTest, FreshReadPassesThrough) {
  auto [src, fault] = MakeRig(TestPolicy(), Loc("Plaka"));
  SourceReadInfo info;
  StatusOr<ValueRef> v = src->ReadWithInfo(&info);
  ASSERT_OK(v.status());
  EXPECT_EQ(*v, Loc("Plaka"));
  EXPECT_EQ(info.provenance, ReadProvenance::kFresh);
  EXPECT_EQ(info.attempts, 1u);
  EXPECT_OK(info.error);
  EXPECT_EQ(src->breaker_state(), BreakerState::kClosed);
}

TEST_F(ResilientSourceTest, RetriesWithBackoffThenSucceeds) {
  auto [src, fault] = MakeRig(TestPolicy(), Loc("Plaka"));
  fault->FailNext(2);  // Two NotFound, then the script default succeeds.
  const int64_t before = clock_.NowMicros();
  SourceReadInfo info;
  StatusOr<ValueRef> v = src->ReadWithInfo(&info);
  ASSERT_OK(v.status());
  EXPECT_EQ(*v, Loc("Plaka"));
  EXPECT_EQ(info.provenance, ReadProvenance::kRetried);
  EXPECT_EQ(info.attempts, 3u);
  EXPECT_TRUE(info.error.IsNotFound());  // Last failure overcome.
  EXPECT_EQ(fault->reads(), 3u);
  // Two backoff sleeps advanced the fake clock; with jitter in
  // [0.5, 1.5] of (1ms, 2ms) the total lies in [1.5ms, 4.5ms].
  const int64_t slept = clock_.NowMicros() - before;
  EXPECT_GE(slept, 1'500);
  EXPECT_LE(slept, 4'500);
  EXPECT_EQ(src->breaker_state(), BreakerState::kClosed);
}

TEST_F(ResilientSourceTest, DeadlineExceededCountsAsFailure) {
  auto [src, fault] = MakeRig(TestPolicy(), Loc("Plaka"));
  // First attempt is valid but takes 50ms >> the 10ms deadline; the
  // retry answers instantly.
  fault->PushLatency(50'000);
  SourceReadInfo info;
  StatusOr<ValueRef> v = src->ReadWithInfo(&info);
  ASSERT_OK(v.status());
  EXPECT_EQ(info.provenance, ReadProvenance::kRetried);
  EXPECT_EQ(info.attempts, 2u);
  EXPECT_TRUE(info.error.IsDeadlineExceeded());
}

TEST_F(ResilientSourceTest, OutOfDomainReadingIsRejectedAndRetried) {
  auto [src, fault] = MakeRig(TestPolicy(), Loc("Plaka"));
  fault->PushOutOfDomain();
  SourceReadInfo info;
  StatusOr<ValueRef> v = src->ReadWithInfo(&info);
  ASSERT_OK(v.status());
  EXPECT_EQ(*v, Loc("Plaka"));
  EXPECT_EQ(info.provenance, ReadProvenance::kRetried);
  EXPECT_TRUE(info.error.IsInvalidArgument());
}

TEST_F(ResilientSourceTest, ServesStaleWithinTtl) {
  auto [src, fault] = MakeRig(TestPolicy(), Loc("Plaka"));
  ASSERT_OK(src->Read().status());  // Prime last-known-good.
  clock_.Advance(500'000);          // 0.5s < 1s TTL.
  fault->FailNext(3);               // Exhaust the whole retry budget.
  SourceReadInfo info;
  StatusOr<ValueRef> v = src->ReadWithInfo(&info);
  ASSERT_OK(v.status());
  EXPECT_EQ(*v, Loc("Plaka"));
  EXPECT_EQ(info.provenance, ReadProvenance::kStale);
  EXPECT_EQ(info.lifted_levels, 0);
  EXPECT_GE(info.age_micros, 500'000);
  EXPECT_TRUE(info.error.IsNotFound());
}

TEST_F(ResilientSourceTest, StalenessLiftsOneLevelPerWindowUntilAll) {
  // Ladder: Plaka (Region, level 0) -> Athens (City) -> Greece
  // (Country) -> all. TTL 1s, window 1s: lift k = ceil((age-ttl)/win).
  SourcePolicy policy = TestPolicy();
  policy.failure_threshold = 1'000'000;  // Keep the breaker out of this test.
  auto [src, fault] = MakeRig(policy, Loc("Plaka"));
  ASSERT_OK(src->Read().status());

  struct Expect {
    int64_t advance_to_age;  // Absolute age of the last-known-good value.
    const char* value;
    LevelIndex lifted;
    ReadProvenance provenance;
  };
  const Expect ladder[] = {
      {1'500'000, "Athens", 1, ReadProvenance::kStaleLifted},
      {2'500'000, "Greece", 2, ReadProvenance::kStaleLifted},
      {3'500'000, "all", 3, ReadProvenance::kStaleLifted},
      {9'000'000, "all", 3, ReadProvenance::kStaleLifted},  // Clamped at all.
  };
  int64_t aged = 0;
  for (const Expect& e : ladder) {
    clock_.Advance(e.advance_to_age - aged);
    aged = e.advance_to_age;
    fault->FailNext(3);
    SourceReadInfo info;
    StatusOr<ValueRef> v = src->ReadWithInfo(&info);
    ASSERT_OK(v.status()) << e.value;
    EXPECT_EQ(LocH().value_name(*v), e.value);
    EXPECT_EQ(info.provenance, e.provenance) << e.value;
    EXPECT_EQ(info.lifted_levels, e.lifted) << e.value;
  }
}

TEST_F(ResilientSourceTest, NoLastKnownGoodDegradesToAbsent) {
  auto [src, fault] = MakeRig(TestPolicy(), Loc("Plaka"));
  fault->FailNext(3);
  SourceReadInfo info;
  StatusOr<ValueRef> v = src->ReadWithInfo(&info);
  EXPECT_TRUE(v.status().IsNotFound());
  EXPECT_EQ(info.provenance, ReadProvenance::kAbsent);
}

TEST_F(ResilientSourceTest, SeededLastKnownGoodServesBeforeFirstSuccess) {
  auto [src, fault] = MakeRig(TestPolicy(), Loc("Plaka"));
  src->SeedLastKnownGood(Loc("Kifisia"), clock_.NowMicros());
  fault->FailNext(3);
  SourceReadInfo info;
  StatusOr<ValueRef> v = src->ReadWithInfo(&info);
  ASSERT_OK(v.status());
  EXPECT_EQ(*v, Loc("Kifisia"));
  EXPECT_EQ(info.provenance, ReadProvenance::kStale);
}

TEST_F(ResilientSourceTest, BreakerFullCycle) {
  // closed -> open: two consecutive failed logical reads (threshold 2).
  auto [src, fault] = MakeRig(TestPolicy(), Loc("Plaka"));
  ASSERT_OK(src->Read().status());  // Prime last-known-good; closed.
  ASSERT_EQ(src->breaker_state(), BreakerState::kClosed);

  fault->FailNext(6);  // Two logical reads x 3 attempts.
  ASSERT_OK(src->Read().status());  // Failure 1 (serves stale).
  EXPECT_EQ(src->breaker_state(), BreakerState::kClosed);
  ASSERT_OK(src->Read().status());  // Failure 2: trips the breaker.
  EXPECT_EQ(src->breaker_state(), BreakerState::kOpen);
  const size_t reads_when_opened = fault->reads();

  // open: short-circuits (no backend probe), serves last-known-good
  // with breaker-open provenance.
  SourceReadInfo info;
  StatusOr<ValueRef> v = src->ReadWithInfo(&info);
  ASSERT_OK(v.status());
  EXPECT_EQ(*v, Loc("Plaka"));
  EXPECT_EQ(info.provenance, ReadProvenance::kBreakerOpen);
  EXPECT_EQ(info.attempts, 0u);
  EXPECT_TRUE(info.error.IsUnavailable());
  EXPECT_EQ(fault->reads(), reads_when_opened);

  // open -> half-open -> open again: the cooldown elapses, the single
  // probe fails, the breaker reopens and restarts its cooldown.
  clock_.Advance(100'000);
  fault->FailNext(1);
  ASSERT_OK(src->Read().status());  // Probe consumed exactly one read.
  EXPECT_EQ(src->breaker_state(), BreakerState::kOpen);
  EXPECT_EQ(fault->reads(), reads_when_opened + 1);

  // Still open within the restarted cooldown.
  clock_.Advance(50'000);
  StatusOr<ValueRef> blocked = src->ReadWithInfo(&info);
  ASSERT_OK(blocked.status());
  EXPECT_EQ(info.provenance, ReadProvenance::kBreakerOpen);
  EXPECT_EQ(fault->reads(), reads_when_opened + 1);

  // open -> half-open -> closed: cooldown elapses, probe succeeds.
  clock_.Advance(50'000);
  SourceReadInfo probe_info;
  StatusOr<ValueRef> probe = src->ReadWithInfo(&probe_info);
  ASSERT_OK(probe.status());
  EXPECT_EQ(probe_info.provenance, ReadProvenance::kFresh);
  EXPECT_EQ(src->breaker_state(), BreakerState::kClosed);

  // Closed again: full retry budget restored.
  fault->FailNext(2);
  SourceReadInfo again;
  StatusOr<ValueRef> ok = src->ReadWithInfo(&again);
  ASSERT_OK(ok.status());
  EXPECT_EQ(again.provenance, ReadProvenance::kRetried);
  EXPECT_EQ(again.attempts, 3u);
}

TEST_F(ResilientSourceTest, HalfOpenRequiresConfiguredProbeCount) {
  SourcePolicy policy = TestPolicy();
  policy.half_open_probes_to_close = 2;
  auto [src, fault] = MakeRig(policy, Loc("Plaka"));
  ASSERT_OK(src->Read().status());  // Prime last-known-good.
  fault->FailNext(6);
  ASSERT_OK(src->Read().status());  // Failure 1 (stale).
  (void)src->Read();  // Failure 2: trips at threshold 2.
  ASSERT_EQ(src->breaker_state(), BreakerState::kOpen);
  clock_.Advance(100'000);
  ASSERT_OK(src->Read().status());  // Probe 1 of 2 succeeds.
  EXPECT_EQ(src->breaker_state(), BreakerState::kHalfOpen);
  ASSERT_OK(src->Read().status());  // Probe 2 of 2 closes.
  EXPECT_EQ(src->breaker_state(), BreakerState::kClosed);
}

TEST_F(ResilientSourceTest, BreakerOpenAppliesStalenessLadder) {
  auto [src, fault] = MakeRig(TestPolicy(), Loc("Plaka"));
  ASSERT_OK(src->Read().status());
  fault->FailNext(6);
  (void)src->Read();
  (void)src->Read();
  ASSERT_EQ(src->breaker_state(), BreakerState::kOpen);
  // Age the value past TTL + 1 window while the breaker stays open
  // (cooldown is shorter, so re-enter open by failing the probes).
  SourcePolicy p = src->policy();
  ASSERT_LT(p.open_cooldown_micros, p.stale_ttl_micros);
  clock_.Advance(90'000);  // Still within cooldown: no probe.
  SourceReadInfo info;
  StatusOr<ValueRef> v = src->ReadWithInfo(&info);
  ASSERT_OK(v.status());
  EXPECT_EQ(info.provenance, ReadProvenance::kBreakerOpen);
  EXPECT_EQ(info.lifted_levels, 0);

  // Fail the half-open probes to keep it open while the value ages
  // past TTL + one window: the served value lifts even under an open
  // breaker.
  fault->FailNext(100);
  for (int i = 0; i < 25; ++i) {
    clock_.Advance(100'000);
    (void)src->Read();
  }
  ASSERT_EQ(src->breaker_state(), BreakerState::kOpen);
  clock_.Advance(10'000);
  StatusOr<ValueRef> lifted = src->ReadWithInfo(&info);
  ASSERT_OK(lifted.status());
  EXPECT_EQ(info.provenance, ReadProvenance::kBreakerOpen);
  EXPECT_GE(info.lifted_levels, 1);
  EXPECT_TRUE(LocH().IsAncestorOrSelf(*lifted, Loc("Plaka")));
}

TEST_F(ResilientSourceTest, DeterministicUnderFixedSeed) {
  auto run = [&](util::FakeClock& clock) {
    auto fault = std::make_unique<FaultInjectingSource>(0, Loc("Plaka"),
                                                        &clock);
    FaultInjectingSource* raw = fault.get();
    ResilientSource src(*env_, std::move(fault), TestPolicy(), &clock,
                        /*seed=*/7);
    raw->FailNext(2);
    std::vector<int64_t> times;
    for (int i = 0; i < 5; ++i) {
      (void)src.Read();
      times.push_back(clock.NowMicros());
      clock.Advance(10'000);
    }
    return times;
  };
  util::FakeClock c1, c2;
  EXPECT_EQ(run(c1), run(c2));  // Identical backoff/jitter schedules.
}

// ---------------------------------------------------------------------
// CurrentContext integration: the availability guarantee.

TEST_F(ResilientSourceTest, SnapshotSurvivesAllSourcesFailing) {
  CurrentContext ctx(env_);
  std::vector<FaultInjectingSource*> faults;
  for (size_t param = 0; param < env_->size(); ++param) {
    auto fault = std::make_unique<FaultInjectingSource>(
        param, env_->parameter(param).hierarchy().AllValue(), &clock_);
    faults.push_back(fault.get());
    ASSERT_OK(ctx.AddSource(std::make_unique<ResilientSource>(
        *env_, std::move(fault), TestPolicy(), &clock_, /*seed=*/param)));
  }
  for (FaultInjectingSource* f : faults) f->FailNext(1000);

  SnapshotReport report = ctx.SnapshotWithReport();
  // Worst case: the all-`all` state, never an error.
  EXPECT_EQ(report.state, ContextState::AllState(*env_));
  ASSERT_EQ(report.params.size(), env_->size());
  EXPECT_EQ(report.degraded_count(), env_->size());
  for (const ParameterAcquisition& p : report.params) {
    EXPECT_TRUE(p.has_source);
    EXPECT_EQ(p.info.provenance, ReadProvenance::kAbsent);
    EXPECT_FALSE(p.info.error.ok());
  }
  // The legacy entry point agrees.
  StatusOr<ContextState> state = ctx.Snapshot();
  ASSERT_OK(state.status());
  EXPECT_EQ(*state, ContextState::AllState(*env_));

  const AcquisitionStats stats = ctx.counters().Snapshot();
  EXPECT_EQ(stats.reads, 2 * env_->size());
  EXPECT_EQ(stats.absent, 2 * env_->size());
  EXPECT_GT(stats.errors, 0u);
}

TEST_F(ResilientSourceTest, SnapshotReportNamesDegradedParameters) {
  CurrentContext ctx(env_);
  // Parameter 0: healthy. Parameter 1: serving stale. Parameter 2: no
  // source at all.
  auto healthy = std::make_unique<FaultInjectingSource>(0, Loc("Plaka"),
                                                        &clock_);
  ASSERT_OK(ctx.AddSource(std::make_unique<ResilientSource>(
      *env_, std::move(healthy), TestPolicy(), &clock_, 1)));

  const Hierarchy& weather = env_->parameter(1).hierarchy();
  auto flaky = std::make_unique<FaultInjectingSource>(
      1, *weather.FindAnyLevel("warm"), &clock_);
  FaultInjectingSource* flaky_raw = flaky.get();
  ASSERT_OK(ctx.AddSource(std::make_unique<ResilientSource>(
      *env_, std::move(flaky), TestPolicy(), &clock_, 2)));

  (void)ctx.Snapshot();  // Prime both last-known-goods.
  flaky_raw->FailNext(3);
  SnapshotReport report = ctx.SnapshotWithReport();

  EXPECT_EQ(report.state, State(*env_, {"Plaka", "warm", "all"}));
  EXPECT_EQ(report.degraded_count(), 1u);
  EXPECT_FALSE(report.fully_fresh());
  EXPECT_EQ(report.params[0].info.provenance, ReadProvenance::kFresh);
  EXPECT_EQ(report.params[1].info.provenance, ReadProvenance::kStale);
  EXPECT_FALSE(report.params[1].info.error.ok());
  EXPECT_FALSE(report.params[2].has_source);
  EXPECT_EQ(report.params[2].info.provenance, ReadProvenance::kAbsent);

  const std::string text = report.ToString(*env_);
  EXPECT_NE(text.find("stale"), std::string::npos);
  EXPECT_NE(text.find("no source"), std::string::npos);
}

// ---------------------------------------------------------------------
// Thread-safety: hammer one resilient source and one CurrentContext
// from several threads. Run under TSan (CTXPREF_SANITIZE=thread) to
// check real interleavings; assertions here are liveness-level.

TEST_F(ResilientSourceTest, ConcurrentReadsAreSafe) {
  SourcePolicy policy = TestPolicy();
  policy.backoff_initial_micros = 0;  // Don't advance the shared clock much.
  policy.backoff_max_micros = 0;
  auto fault = std::make_unique<FaultInjectingSource>(0, Loc("Plaka"),
                                                      &clock_);
  FaultInjectingSource* raw = fault.get();
  ResilientSource src(*env_, std::move(fault), policy, &clock_, 99);
  // A messy script: failures, latency spikes, garbage, successes.
  for (int i = 0; i < 50; ++i) {
    raw->PushNotFound();
    raw->PushOk();
    raw->PushLatency(20'000);
    raw->PushOutOfDomain();
    raw->PushOk();
  }
  constexpr size_t kThreads = 4;
  constexpr size_t kReadsPerThread = 200;
  std::vector<std::jthread> workers;
  for (size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (size_t i = 0; i < kReadsPerThread; ++i) {
        SourceReadInfo info;
        StatusOr<ValueRef> v = src.ReadWithInfo(&info);
        if (v.ok()) {
          EXPECT_TRUE(LocH().IsAncestorOrSelf(*v, Loc("Plaka")));
        }
      }
    });
  }
  workers.clear();  // Join.
  // Liveness only (the breaker may legitimately short-circuit runs of
  // reads under adversarial interleavings); races are TSan's job.
  EXPECT_GT(raw->reads(), 0u);
}

TEST_F(ResilientSourceTest, ConcurrentSnapshotsAreSafe) {
  CurrentContext ctx(env_);
  std::vector<FaultInjectingSource*> faults;
  for (size_t param = 0; param < env_->size(); ++param) {
    auto fault = std::make_unique<FaultInjectingSource>(
        param, env_->parameter(param).hierarchy().AllValue(), &clock_);
    for (int i = 0; i < 100; ++i) {
      if (i % 3 == 0) fault->PushNotFound();
      else fault->PushOk();
    }
    faults.push_back(fault.get());
    SourcePolicy policy = TestPolicy();
    policy.backoff_initial_micros = 0;
    policy.backoff_max_micros = 0;
    ASSERT_OK(ctx.AddSource(std::make_unique<ResilientSource>(
        *env_, std::move(fault), policy, &clock_, param)));
  }
  constexpr size_t kThreads = 4;
  std::vector<std::jthread> workers;
  for (size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (size_t i = 0; i < 100; ++i) {
        SnapshotReport report = ctx.SnapshotWithReport();
        EXPECT_OK(report.state.Validate(*env_));
      }
    });
  }
  workers.clear();  // Join.
  const AcquisitionStats stats = ctx.counters().Snapshot();
  EXPECT_EQ(stats.reads, kThreads * 100 * env_->size());
}

}  // namespace
}  // namespace ctxpref
