#include "util/thread_pool.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/metrics.h"

namespace ctxpref {

namespace {

/// Pool metrics, shared by every `ThreadPool` instance. The depth gauge
/// tracks the global queued-task count; the highwater gauge is a
/// monotone max over every pool's observed depth (approximate under
/// concurrency — two pools racing the read-modify-write may lose an
/// update — which is fine for a saturation signal). Per-pool exact
/// numbers live in `ThreadPool::GetWindowStats`.
struct PoolMetrics {
  Counter& tasks;
  Counter& rejected;
  Counter& expired_drops;
  Gauge& queue_depth;
  Gauge& queue_highwater;
  LatencyHistogram& task_wait;

  static PoolMetrics& Get() {
    MetricsRegistry& reg = MetricsRegistry::Global();
    static PoolMetrics* m = new PoolMetrics{
        reg.GetCounter("ctxpref_thread_pool_tasks_total",
                       "Tasks submitted across all thread pools"),
        reg.GetCounter("ctxpref_thread_pool_rejected_total",
                       "TrySubmit rejections (queue full or shutdown)"),
        reg.GetCounter("ctxpref_thread_pool_expired_drops_total",
                       "Tasks dropped at dequeue because their deadline "
                       "passed while queued"),
        reg.GetGauge("ctxpref_thread_pool_queue_depth",
                     "Tasks currently queued (not yet running), all pools"),
        reg.GetGauge("ctxpref_thread_pool_queue_highwater",
                     "Max observed queued-task count, any pool "
                     "(approximate; monotone until registry reset)"),
        reg.GetHistogram("ctxpref_thread_pool_task_wait_ns",
                         "Queue wait from Submit to execution start"),
    };
    return *m;
  }

  void RecordDepth(size_t depth) {
    if (static_cast<int64_t>(depth) > queue_highwater.value()) {
      queue_highwater.Set(static_cast<int64_t>(depth));
    }
  }
};

}  // namespace

const char* SubmitResultToString(SubmitResult r) {
  switch (r) {
    case SubmitResult::kAccepted:
      return "accepted";
    case SubmitResult::kRejectedFull:
      return "rejected-full";
    case SubmitResult::kRejectedShutdown:
      return "rejected-shutdown";
  }
  return "unknown";
}

ThreadPool::ThreadPool(size_t num_threads, size_t queue_capacity,
                       DequeueOrder order)
    : queue_capacity_(std::max<size_t>(queue_capacity, 1)), order_(order) {
  if (num_threads == 0) num_threads = 1;
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back(
        [this](std::stop_token stop) { WorkerLoop(std::move(stop)); });
  }
}

ThreadPool::~ThreadPool() {
  {
    util::MutexLock lock(mu_);
    stopping_ = true;
  }
  for (std::jthread& w : workers_) w.request_stop();
  not_empty_.NotifyAll();
  // Wake any Submit blocked on a full queue so it fails fast instead
  // of hanging once the workers stop signaling free slots.
  not_full_.NotifyAll();
  // jthread joins on destruction; WorkerLoop drains the queue first.
}

void ThreadPool::EnqueueLocked(Item item) {
  queue_.push_back(std::move(item));
  ++window_.submitted;
  if (queue_.size() > window_.queue_highwater) {
    window_.queue_highwater = queue_.size();
  }
  PoolMetrics::Get().RecordDepth(queue_.size());
}

void ThreadPool::Submit(std::function<void()> task) {
  Submit(std::move(task), util::Deadline(), nullptr);
}

void ThreadPool::Submit(std::function<void()> task, util::Deadline deadline,
                        std::function<void()> on_expired) {
  PoolMetrics& metrics = PoolMetrics::Get();
  Item item{std::move(task),
            MetricsRegistry::TimingEnabled() ? MonotonicNanos() : 0, deadline,
            std::move(on_expired)};
  {
    util::MutexLock lock(mu_);
    not_full_.Wait(mu_, [this]() REQUIRES(mu_) {
      return stopping_ || queue_.size() < queue_capacity_;
    });
    if (stopping_) {
      ++window_.rejected_shutdown;
      throw std::runtime_error("ThreadPool::Submit called during shutdown");
    }
    EnqueueLocked(std::move(item));
  }
  metrics.tasks.Increment();
  metrics.queue_depth.Add(1);
  not_empty_.NotifyOne();
}

SubmitResult ThreadPool::TrySubmit(std::function<void()> task,
                                   util::Deadline deadline,
                                   std::function<void()> on_expired) {
  PoolMetrics& metrics = PoolMetrics::Get();
  Item item{std::move(task),
            MetricsRegistry::TimingEnabled() ? MonotonicNanos() : 0, deadline,
            std::move(on_expired)};
  {
    util::MutexLock lock(mu_);
    if (stopping_) {
      ++window_.rejected_shutdown;
      metrics.rejected.Increment();
      return SubmitResult::kRejectedShutdown;
    }
    if (queue_.size() >= queue_capacity_) {
      ++window_.rejected_full;
      metrics.rejected.Increment();
      return SubmitResult::kRejectedFull;
    }
    EnqueueLocked(std::move(item));
  }
  metrics.tasks.Increment();
  metrics.queue_depth.Add(1);
  not_empty_.NotifyOne();
  return SubmitResult::kAccepted;
}

void ThreadPool::Wait() {
  util::MutexLock lock(mu_);
  idle_.Wait(mu_, [this]() REQUIRES(mu_) {
    return queue_.empty() && running_ == 0;
  });
}

ThreadPool::WindowStats ThreadPool::GetWindowStats() const {
  util::MutexLock lock(mu_);
  return window_;
}

void ThreadPool::ResetWindowStats() {
  util::MutexLock lock(mu_);
  window_ = WindowStats{};
  // Re-seed the highwater with the current depth so a busy window
  // never reports a highwater below what is queued right now.
  window_.queue_highwater = queue_.size();
}

void ThreadPool::WorkerLoop(std::stop_token stop) {
  PoolMetrics& metrics = PoolMetrics::Get();
  for (;;) {
    Item item;
    bool expired;
    {
      util::MutexLock lock(mu_);
      not_empty_.Wait(mu_, stop,
                      [this]() REQUIRES(mu_) { return !queue_.empty(); });
      if (queue_.empty()) return;  // Stop requested and queue drained.
      if (order_ == DequeueOrder::kLifo) {
        item = std::move(queue_.back());
        queue_.pop_back();
      } else {
        item = std::move(queue_.front());
        queue_.pop_front();
      }
      // The deadline check reads the (injected, possibly fake) clock;
      // it is cheap enough to sit under the queue lock and must be
      // decided before `running_` bookkeeping picks a branch.
      expired = item.deadline.Expired();
      ++running_;
      if (expired) {
        ++window_.expired_dropped;
      } else {
        ++window_.executed;
      }
    }
    metrics.queue_depth.Add(-1);
    if (item.enqueue_nanos != 0) {
      metrics.task_wait.Record(MonotonicNanos() - item.enqueue_nanos);
    }
    not_full_.NotifyOne();
    try {
      if (expired) {
        metrics.expired_drops.Increment();
        // Run the expiry path instead of the task body so completion
        // latches still count down.
        if (item.on_expired) item.on_expired();
      } else {
        item.fn();
      }
    } catch (...) {
      // An exception leaving a jthread body would std::terminate the
      // process (and skip the bookkeeping below). Tasks are expected
      // to report failure through their own channels, e.g. a captured
      // Status; anything escaping anyway is dropped here.
    }
    {
      util::MutexLock lock(mu_);
      --running_;
      if (queue_.empty() && running_ == 0) idle_.NotifyAll();
    }
  }
}

}  // namespace ctxpref
