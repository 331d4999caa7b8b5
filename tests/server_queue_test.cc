// bench::ServerQueue, bench_overload's worker pool: every accepted task
// runs once, a full shed queue refuses, a task whose deadline passed
// while queued is dropped at dequeue, LIFO vs FIFO order, the queue
// high-water, exception containment and drain on destruction. The
// suite is named ThreadPoolTest so scripts/check.sh's TSan filter
// selects it.

#include "bench/server_queue.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/clock.h"
#include "util/deadline.h"

namespace ctxpref::bench {
namespace {

/// Busy-wait gate: lets a test park the queue's only worker inside a
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

/// Parks `queue`'s only worker in a task that returns once `release`
/// opens; returns after the worker has taken it off the queue.
void ParkWorker(ServerQueue& queue, Gate& release) {
  Gate parked;
  ASSERT_TRUE(queue.TrySubmit([&] {
    parked.Open();
    release.Await();
  }));
  parked.Await();
}

TEST(ThreadPoolTest, TrySubmitRejectsWhenQueueFull) {
  ServerQueue queue(/*threads=*/1, /*shed=*/true);  // Holds 2.
  Gate gate;
  std::atomic<int> ran{0};
  ParkWorker(queue, gate);
  EXPECT_TRUE(queue.TrySubmit([&] { ran.fetch_add(1); }));
  EXPECT_TRUE(queue.TrySubmit([&] { ran.fetch_add(1); }));
  // The queue now holds 2 of 2; further admission is refused, and the
  // refused task never runs.
  EXPECT_FALSE(queue.TrySubmit([&] { ran.fetch_add(100); }));
  gate.Open();
  queue.Drain();
  EXPECT_EQ(ran.load(), 2);
  EXPECT_EQ(queue.highwater(), 2u);
}

TEST(ThreadPoolTest, UnboundedQueueNeverRejectsFull) {
  // An open-loop producer must never be turned away by a noshed
  // queue, however far the backlog runs ahead of the workers.
  ServerQueue queue(/*threads=*/1, /*shed=*/false);
  Gate gate;
  std::atomic<int> ran{0};
  ParkWorker(queue, gate);
  for (int i = 0; i < 64; ++i) {
    EXPECT_TRUE(queue.TrySubmit([&] { ran.fetch_add(1); })) << i;
  }
  gate.Open();
  queue.Drain();
  EXPECT_EQ(ran.load(), 64);
  EXPECT_EQ(queue.highwater(), 64u);
}

TEST(ThreadPoolTest, HighwaterIsTheDeepestBacklogSinceConstruction) {
  ServerQueue queue(/*threads=*/1, /*shed=*/false);
  EXPECT_EQ(queue.highwater(), 0u);
  Gate gate;
  ParkWorker(queue, gate);
  EXPECT_EQ(queue.highwater(), 1u) << "the parked task was queued once";
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(queue.TrySubmit([] {}));
  gate.Open();
  queue.Drain();
  EXPECT_EQ(queue.highwater(), 5u);
  // A shallower backlog later leaves the mark where it was.
  ASSERT_TRUE(queue.TrySubmit([] {}));
  queue.Drain();
  EXPECT_EQ(queue.highwater(), 5u);
}

TEST(ThreadPoolTest, ExpiredQueuedTaskIsDroppedNotRun) {
  util::FakeClock clock;
  ServerQueue queue(/*threads=*/1, /*shed=*/true);
  Gate gate;
  std::atomic<int> body_ran{0};
  std::atomic<int> expired_ran{0};
  ParkWorker(queue, gate);
  // Deadline 100us out on the fake clock; it will pass while the task
  // sits behind the parked worker.
  ASSERT_TRUE(queue.TrySubmit(
      [&] { body_ran.fetch_add(1); }, util::Deadline::AfterMicros(100, &clock),
      /*on_expired=*/[&] { expired_ran.fetch_add(1); }));
  // A second task whose deadline stays alive must still run.
  ASSERT_TRUE(queue.TrySubmit([&] { body_ran.fetch_add(10); },
                              util::Deadline::AfterMicros(1'000'000, &clock)));
  clock.Advance(500);
  gate.Open();
  queue.Drain();

  EXPECT_EQ(body_ran.load(), 10) << "expired task body must not run";
  EXPECT_EQ(expired_ran.load(), 1);
}

TEST(ThreadPoolTest, LifoServesNewestFirstUnderBacklog) {
  for (const bool shed : {false, true}) {
    ServerQueue queue(/*threads=*/1, shed);
    Gate gate;
    std::vector<int> executed;
    ParkWorker(queue, gate);
    for (int i = 0; i < 2; ++i) {
      // Single worker: bodies run one at a time, so `executed` needs
      // no lock of its own.
      ASSERT_TRUE(queue.TrySubmit([&executed, i] { executed.push_back(i); }));
    }
    gate.Open();
    queue.Drain();
    if (shed) {
      EXPECT_EQ(executed, (std::vector<int>{1, 0}));
    } else {
      EXPECT_EQ(executed, (std::vector<int>{0, 1}));
    }
  }
}

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  // Small shed queue (8 for 4 workers): a refused task is offered
  // again, so every task still runs exactly once.
  ServerQueue queue(/*threads=*/4, /*shed=*/true);
  std::atomic<int> sum{0};
  for (int i = 1; i <= 100; ++i) {
    while (!queue.TrySubmit(
        [&sum, i] { sum.fetch_add(i, std::memory_order_relaxed); })) {
      std::this_thread::yield();
    }
  }
  queue.Drain();
  EXPECT_EQ(sum.load(), 5050);
}

TEST(ThreadPoolTest, WaitIsReusableAcrossBatches) {
  ServerQueue queue(/*threads=*/2, /*shed=*/false);
  std::atomic<int> count{0};
  for (int batch = 0; batch < 3; ++batch) {
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(queue.TrySubmit(
          [&count] { count.fetch_add(1, std::memory_order_relaxed); }));
    }
    queue.Drain();
    EXPECT_EQ(count.load(), (batch + 1) * 10);
  }
}

TEST(ThreadPoolTest, TaskExceptionIsContained) {
  // A throw escaping a task must not terminate the process or corrupt
  // the queue's running-task bookkeeping (Drain would hang otherwise).
  ServerQueue queue(/*threads=*/2, /*shed=*/false);
  std::atomic<int> count{0};
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(queue.TrySubmit([&count, i] {
      if (i % 2 == 0) throw std::runtime_error("task failure");
      count.fetch_add(1, std::memory_order_relaxed);
    }));
  }
  queue.Drain();
  EXPECT_EQ(count.load(), 10);
  // The queue still serves after the throws.
  ASSERT_TRUE(queue.TrySubmit(
      [&count] { count.fetch_add(1, std::memory_order_relaxed); }));
  queue.Drain();
  EXPECT_EQ(count.load(), 11);
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> count{0};
  {
    ServerQueue queue(/*threads=*/1, /*shed=*/false);
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(queue.TrySubmit(
          [&count] { count.fetch_add(1, std::memory_order_relaxed); }));
    }
  }
  EXPECT_EQ(count.load(), 50);
}

}  // namespace
}  // namespace ctxpref::bench
