#ifndef CTXPREF_UTIL_THREAD_POOL_H_
#define CTXPREF_UTIL_THREAD_POOL_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "util/deadline.h"
#include "util/mutex.h"

namespace ctxpref {

/// Outcome of a `TrySubmit` (and, via exception, of `Submit`). Shedding
/// callers branch on this instead of queueing behind a full pool.
enum class SubmitResult {
  kAccepted,          ///< Task enqueued (or already running).
  kRejectedFull,      ///< Bounded queue at capacity; task not enqueued.
  kRejectedShutdown,  ///< Pool is stopping; task not enqueued.
};

const char* SubmitResultToString(SubmitResult r);

/// Queue discipline. FIFO is fair; LIFO-under-overload serves the
/// *newest* work first, which under saturation spends the machine on
/// requests whose deadlines are still alive instead of on stale ones
/// that will be dropped at dequeue anyway (the classic adaptive-LIFO
/// overload pattern).
enum class DequeueOrder { kFifo, kLifo };

/// A small fixed-size worker pool over a task queue of a stated
/// capacity, bounded or `kUnbounded`.
///
/// On a bounded pool `Submit` blocks when the queue is full
/// (backpressure instead of unbounded memory growth) and `TrySubmit`
/// refuses instead of blocking and reports why, which is what
/// admission-controlled serving paths use. An unbounded pool never
/// blocks or refuses a submit while it runs. `Wait` blocks until every
/// accepted task has finished or been expired. Destruction drains the
/// queue: tasks already submitted run to completion before the
/// `std::jthread`s join.
///
/// Deadlines: a task may carry a `util::Deadline`; if it expires while
/// the task is still queued, the worker *drops* the task at dequeue —
/// running its `on_expired` callback (if any) instead of the task body
/// — so a saturated pool stops wasting cycles on work nobody is
/// waiting for. `on_expired` is how completion latches stay balanced.
///
/// Used by `bench_overload` to run requests on worker threads; tasks
/// must not depend on execution order.
///
/// Locking: one queue mutex (`LockRank::kPoolQueue` — it is never held
/// while a task body or `on_expired` runs, so tasks may take any other
/// lock in the tree).
class ThreadPool {
 public:
  /// Reset-able per-pool saturation statistics (the "window"), distinct
  /// from the process-wide `ctxpref_thread_pool_*` metrics which
  /// aggregate across pools and never reset.
  struct WindowStats {
    uint64_t submitted = 0;          ///< Accepted by Submit/TrySubmit.
    uint64_t rejected_full = 0;      ///< TrySubmit refusals (queue full).
    uint64_t rejected_shutdown = 0;  ///< Refusals during shutdown.
    uint64_t executed = 0;           ///< Task bodies actually run.
    uint64_t expired_dropped = 0;    ///< Dropped at dequeue (deadline).
    size_t queue_highwater = 0;      ///< Max queue depth since reset.
  };

  /// A `queue_capacity` no submit ever reaches.
  static constexpr size_t kUnbounded = SIZE_MAX;

  /// `num_threads` and `queue_capacity` are each clamped to at least 1.
  ThreadPool(size_t num_threads, size_t queue_capacity,
             DequeueOrder order = DequeueOrder::kFifo);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }
  size_t queue_capacity() const { return queue_capacity_; }
  DequeueOrder dequeue_order() const { return order_; }

  /// Enqueues `task`; blocks while the queue is at capacity. Throws
  /// `std::runtime_error` once destruction has begun instead of
  /// enqueuing a task that would never run. Exceptions escaping `task`
  /// itself are caught and discarded by the worker, so tasks must
  /// report failure through their own channels (e.g. a captured
  /// Status).
  void Submit(std::function<void()> task) EXCLUDES(mu_);

  /// Like `Submit`, but the task is dropped (and `on_expired` run in
  /// its place, on a worker thread) if `deadline` passes before a
  /// worker dequeues it.
  void Submit(std::function<void()> task, util::Deadline deadline,
              std::function<void()> on_expired = nullptr) EXCLUDES(mu_);

  /// Non-blocking admission: refuses instead of waiting when the queue
  /// is full or the pool is shutting down. On any rejection the task is
  /// NOT enqueued and `on_expired` is NOT run — the caller owns the
  /// fallback.
  SubmitResult TrySubmit(std::function<void()> task,
                         util::Deadline deadline = {},
                         std::function<void()> on_expired = nullptr)
      EXCLUDES(mu_);

  /// Blocks until the queue is empty and no task is running.
  void Wait() EXCLUDES(mu_);

  /// Snapshot of the stats window (since construction or the last
  /// `ResetWindowStats`).
  WindowStats GetWindowStats() const EXCLUDES(mu_);
  void ResetWindowStats() EXCLUDES(mu_);

 private:
  /// A queued task plus its enqueue timestamp for the
  /// `ctxpref_thread_pool_task_wait_ns` histogram; 0 when
  /// `MetricsRegistry::TimingEnabled()` was off at submit time.
  struct Item {
    std::function<void()> fn;
    uint64_t enqueue_nanos = 0;
    util::Deadline deadline;            ///< Infinite by default.
    std::function<void()> on_expired;   ///< May be empty.
  };

  void WorkerLoop(std::stop_token stop) EXCLUDES(mu_);
  /// Queue push + stats under the lock; caller already checked
  /// capacity/stopping.
  void EnqueueLocked(Item item) REQUIRES(mu_);

  // Unguarded members first (repo convention: everything below a mutex
  // is that mutex's guarded state — scripts/lint.py enforces it).
  size_t queue_capacity_;  ///< Set once in the constructor.
  DequeueOrder order_;     ///< Set once in the constructor.

  mutable util::Mutex mu_{util::LockRank::kPoolQueue, "ThreadPool.mu"};
  util::CondVar not_empty_;  ///< Queue gained a task.
  util::CondVar not_full_;   ///< Queue gained a slot.
  util::CondVar idle_;       ///< Queue drained, nothing running.
  std::deque<Item> queue_ GUARDED_BY(mu_);
  size_t running_ GUARDED_BY(mu_) = 0;  ///< Tasks currently executing.
  /// Set by the destructor; Submit fails fast.
  bool stopping_ GUARDED_BY(mu_) = false;
  WindowStats window_ GUARDED_BY(mu_);
  /// Written only by the constructor; worker threads never touch the
  /// vector itself. Declared LAST deliberately: the jthread destructors
  /// must join the workers while mu_, the condition variables, and the
  /// queue are all still alive.
  std::vector<std::jthread> workers_;  // lint:allow(unguarded) dtor order
};

}  // namespace ctxpref

#endif  // CTXPREF_UTIL_THREAD_POOL_H_
