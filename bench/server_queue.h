#ifndef CTXPREF_BENCH_SERVER_QUEUE_H_
#define CTXPREF_BENCH_SERVER_QUEUE_H_

// bench_overload's modeled server: a fixed set of worker threads over
// one task queue, in one of the two shapes the overload study compares.
//
//   shed     bounded (bench_overload sizes it from the request deadline;
//            2 x threads by default), served newest-first (LIFO): under
//            a backlog the workers spend themselves on requests whose
//            deadlines are still alive instead of on stale ones
//   noshed   unbounded, served oldest-first (FIFO): work is never
//            refused, only delayed
//
// A task whose deadline passes while it is queued is dropped at
// dequeue: the worker runs its `on_expired` callback (if any) instead
// of the body, so completion counters stay balanced. An exception
// escaping a task is caught and discarded. Destruction drains the
// queue before the workers join. The queue lock is never held while a
// task body or `on_expired` runs, so tasks may take any lock.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "util/deadline.h"
#include "util/mutex.h"

namespace ctxpref {
namespace bench {

class ServerQueue {
 public:
  /// Starts `threads` (>= 1) workers over a shed or a noshed queue. A
  /// shed queue holds `shed_depth` tasks (0 = 2 x threads).
  ServerQueue(size_t threads, bool shed, size_t shed_depth = 0)
      : capacity_(!shed            ? SIZE_MAX
                  : shed_depth > 0 ? shed_depth
                                   : 2 * threads),
        lifo_(shed) {
    try {
      for (size_t i = 0; i < threads; ++i) {
        workers_.emplace_back([this] { WorkerLoop(); });
      }
    } catch (...) {
      StopAndJoin();  // The workers already started must not outlive us.
      throw;
    }
  }

  ~ServerQueue() { StopAndJoin(); }

  ServerQueue(const ServerQueue&) = delete;
  ServerQueue& operator=(const ServerQueue&) = delete;

  /// Enqueues `task` without blocking, or refuses it when the queue is
  /// full (only a shed queue ever is). A refused task is not run, nor
  /// its `on_expired`: the caller owns the fallback.
  bool TrySubmit(std::function<void()> task, util::Deadline deadline = {},
                 std::function<void()> on_expired = nullptr) EXCLUDES(mu_) {
    {
      util::MutexLock lock(mu_);
      if (queue_.size() >= capacity_) return false;
      queue_.push_back(Task{std::move(task), deadline, std::move(on_expired)});
      highwater_ = std::max(highwater_, queue_.size());
    }
    not_empty_.NotifyOne();
    return true;
  }

  /// Blocks until the queue is empty and no task is running.
  void Drain() EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    idle_.Wait(mu_, [this]() REQUIRES(mu_) {
      return queue_.empty() && running_ == 0;
    });
  }

  /// The deepest the queue has been since construction.
  size_t highwater() const EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return highwater_;
  }

 private:
  struct Task {
    std::function<void()> fn;
    util::Deadline deadline;  ///< Infinite by default.
    std::function<void()> on_expired;
  };

  void StopAndJoin() EXCLUDES(mu_) {
    {
      util::MutexLock lock(mu_);
      stopping_ = true;
    }
    not_empty_.NotifyAll();
    // Each worker drains the queue before it honours the stop flag.
    for (std::thread& w : workers_) w.join();
  }

  void WorkerLoop() EXCLUDES(mu_) {
    for (;;) {
      Task task;
      bool expired;
      {
        util::MutexLock lock(mu_);
        not_empty_.Wait(mu_, [this]() REQUIRES(mu_) {
          return stopping_ || !queue_.empty();
        });
        if (queue_.empty()) return;  // Stopping, and the queue is drained.
        if (lifo_) {
          task = std::move(queue_.back());
          queue_.pop_back();
        } else {
          task = std::move(queue_.front());
          queue_.pop_front();
        }
        expired = task.deadline.Expired();
        ++running_;
      }
      try {
        if (!expired) {
          task.fn();
        } else if (task.on_expired) {
          task.on_expired();
        }
      } catch (...) {
        // An exception leaving a thread body would std::terminate the
        // process and skip the bookkeeping below; tasks report failure
        // through their own channels.
      }
      util::MutexLock lock(mu_);
      --running_;
      if (queue_.empty() && running_ == 0) idle_.NotifyAll();
    }
  }

  const size_t capacity_;
  const bool lifo_;

  mutable util::Mutex mu_;
  util::CondVar not_empty_;  ///< Queue gained a task, or stopping.
  util::CondVar idle_;       ///< Queue drained, nothing running.
  std::deque<Task> queue_ GUARDED_BY(mu_);
  size_t running_ GUARDED_BY(mu_) = 0;
  size_t highwater_ GUARDED_BY(mu_) = 0;
  bool stopping_ GUARDED_BY(mu_) = false;
  /// Filled by the constructor and joined by StopAndJoin; the workers
  /// never touch the vector itself. Declared last, after everything
  /// the workers use.
  std::vector<std::thread> workers_;  // lint:allow(unguarded) owner only
};

}  // namespace bench
}  // namespace ctxpref

#endif  // CTXPREF_BENCH_SERVER_QUEUE_H_
