// util::ThreadPool under the overload features of ISSUE 8: bounded-
// queue TrySubmit outcomes, deadline-expired task dropping at dequeue,
// FIFO vs LIFO dequeue order, and the reset-able per-window stats
// behind the `ctxpref_thread_pool_queue_highwater` gauge. Runs in the
// CI TSan job (suite name matches scripts/check.sh's tsan filter).

#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "util/clock.h"
#include "util/deadline.h"
#include "util/metrics.h"

namespace ctxpref {
namespace {

/// Busy-wait gate: lets a test park the pool's only worker inside a
/// task until the interesting queue state is set up.
class Gate {
 public:
  void Open() { open_.store(true, std::memory_order_release); }
  void Await() const {
    while (!open_.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  }

 private:
  std::atomic<bool> open_{false};
};

TEST(ThreadPoolTest, SubmitResultToStringCoversAllOutcomes) {
  EXPECT_STREQ(SubmitResultToString(SubmitResult::kAccepted), "accepted");
  EXPECT_STREQ(SubmitResultToString(SubmitResult::kRejectedFull),
               "rejected-full");
  EXPECT_STREQ(SubmitResultToString(SubmitResult::kRejectedShutdown),
               "rejected-shutdown");
}

TEST(ThreadPoolTest, TrySubmitRejectsWhenQueueFull) {
  ThreadPool pool(/*num_threads=*/1, /*queue_capacity=*/2);
  Gate gate;
  std::atomic<int> ran{0};
  Gate worker_parked;
  // Park the worker, then fill the queue to capacity.
  pool.Submit([&] {
    worker_parked.Open();
    gate.Await();
    ran.fetch_add(1);
  });
  worker_parked.Await();
  EXPECT_EQ(pool.TrySubmit([&] { ran.fetch_add(1); }),
            SubmitResult::kAccepted);
  EXPECT_EQ(pool.TrySubmit([&] { ran.fetch_add(1); }),
            SubmitResult::kAccepted);
  // Queue now holds 2 of 2; further admission is refused, and the
  // refused task never runs.
  EXPECT_EQ(pool.TrySubmit([&] { ran.fetch_add(100); }),
            SubmitResult::kRejectedFull);
  gate.Open();
  pool.Wait();
  EXPECT_EQ(ran.load(), 3);

  const ThreadPool::WindowStats stats = pool.GetWindowStats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.executed, 3u);
  EXPECT_EQ(stats.rejected_full, 1u);
  EXPECT_EQ(stats.expired_dropped, 0u);
  EXPECT_EQ(stats.queue_highwater, 2u);
}

TEST(ThreadPoolTest, UnboundedQueueNeverRejectsFull) {
  // An open-loop producer must never be turned away (or, through
  // `Submit`, held back) by an unbounded pool, however far the backlog
  // runs ahead of the workers.
  ThreadPool pool(/*num_threads=*/1, ThreadPool::kUnbounded);
  EXPECT_EQ(pool.queue_capacity(), ThreadPool::kUnbounded);
  Gate gate;
  Gate worker_parked;
  std::atomic<int> ran{0};
  pool.Submit([&] {
    worker_parked.Open();
    gate.Await();
  });
  worker_parked.Await();
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(pool.TrySubmit([&] { ran.fetch_add(1); }),
              SubmitResult::kAccepted)
        << i;
  }
  gate.Open();
  pool.Wait();
  EXPECT_EQ(ran.load(), 64);

  const ThreadPool::WindowStats stats = pool.GetWindowStats();
  EXPECT_EQ(stats.rejected_full, 0u);
  EXPECT_EQ(stats.queue_highwater, 64u);
}

TEST(ThreadPoolTest, ExpiredQueuedTaskIsDroppedNotRun) {
  util::FakeClock clock;
  ThreadPool pool(/*num_threads=*/1, /*queue_capacity=*/4);
  Gate gate;
  Gate worker_parked;
  std::atomic<int> body_ran{0};
  std::atomic<int> expired_ran{0};
  pool.Submit([&] {
    worker_parked.Open();
    gate.Await();
  });
  worker_parked.Await();
  // Deadline 100us out on the fake clock; it will pass while the task
  // sits behind the parked worker.
  pool.Submit([&] { body_ran.fetch_add(1); },
              util::Deadline::AfterMicros(100, &clock),
              /*on_expired=*/[&] { expired_ran.fetch_add(1); });
  // A second task whose deadline stays alive must still run.
  pool.Submit([&] { body_ran.fetch_add(10); },
              util::Deadline::AfterMicros(1'000'000, &clock));
  clock.Advance(500);
  gate.Open();
  pool.Wait();

  EXPECT_EQ(body_ran.load(), 10) << "expired task body must not run";
  EXPECT_EQ(expired_ran.load(), 1);
  const ThreadPool::WindowStats stats = pool.GetWindowStats();
  EXPECT_EQ(stats.expired_dropped, 1u);
  EXPECT_EQ(stats.executed, 2u);  // The parked task + the alive one.
}

TEST(ThreadPoolTest, LifoServesNewestFirstUnderBacklog) {
  for (DequeueOrder order : {DequeueOrder::kFifo, DequeueOrder::kLifo}) {
    ThreadPool pool(/*num_threads=*/1, /*queue_capacity=*/8, order);
    Gate gate;
    Gate worker_parked;
    std::vector<int> executed;
    std::atomic<int> done{0};
    pool.Submit([&] {
      worker_parked.Open();
      gate.Await();
    });
    worker_parked.Await();
    for (int i = 0; i < 3; ++i) {
      // Single worker: bodies run one at a time, so `executed` needs
      // no lock of its own.
      pool.Submit([&executed, &done, i] {
        executed.push_back(i);
        done.fetch_add(1);
      });
    }
    gate.Open();
    pool.Wait();
    ASSERT_EQ(done.load(), 3);
    if (order == DequeueOrder::kLifo) {
      EXPECT_EQ(executed, (std::vector<int>{2, 1, 0}));
    } else {
      EXPECT_EQ(executed, (std::vector<int>{0, 1, 2}));
    }
  }
}

TEST(ThreadPoolTest, WindowStatsResetKeepsCurrentDepthAsHighwater) {
  ThreadPool pool(/*num_threads=*/2, /*queue_capacity=*/16);
  for (int i = 0; i < 8; ++i) {
    pool.Submit([] {});
  }
  pool.Wait();
  const ThreadPool::WindowStats before = pool.GetWindowStats();
  EXPECT_EQ(before.submitted, 8u);
  EXPECT_EQ(before.executed, 8u);

  pool.ResetWindowStats();
  const ThreadPool::WindowStats after = pool.GetWindowStats();
  EXPECT_EQ(after.submitted, 0u);
  EXPECT_EQ(after.executed, 0u);
  EXPECT_EQ(after.queue_highwater, 0u) << "idle pool resets to empty depth";

  // The window is live again after the reset.
  pool.Submit([] {});
  pool.Wait();
  EXPECT_EQ(pool.GetWindowStats().submitted, 1u);
}

TEST(ThreadPoolTest, HighwaterGaugeTracksQueueDepth) {
  Gauge& gauge = MetricsRegistry::Global().GetGauge(
      "ctxpref_thread_pool_queue_highwater",
      "Max observed queued-task count, any pool "
      "(approximate; monotone until registry reset)");
  gauge.Reset();
  ThreadPool pool(/*num_threads=*/1, /*queue_capacity=*/8);
  Gate gate;
  Gate worker_parked;
  pool.Submit([&] {
    worker_parked.Open();
    gate.Await();
  });
  worker_parked.Await();
  for (int i = 0; i < 5; ++i) {
    pool.Submit([] {});
  }
  gate.Open();
  pool.Wait();
  EXPECT_GE(gauge.value(), 5);
  EXPECT_EQ(pool.GetWindowStats().queue_highwater, 5u);
}

TEST(ThreadPoolTest, BlockingSubmitHonorsDeadlineDropAtDequeueToo) {
  // The blocking Submit overload carries deadlines the same way
  // TrySubmit does.
  util::FakeClock clock;
  ThreadPool pool(/*num_threads=*/1, /*queue_capacity=*/2);
  Gate gate;
  Gate worker_parked;
  std::atomic<int> outcome{0};
  pool.Submit([&] {
    worker_parked.Open();
    gate.Await();
  });
  worker_parked.Await();
  pool.Submit([&] { outcome.store(1); },
              util::Deadline::AfterMicros(10, &clock),
              [&] { outcome.store(2); });
  clock.Advance(11);
  gate.Open();
  pool.Wait();
  EXPECT_EQ(outcome.load(), 2);
}

}  // namespace
}  // namespace ctxpref
