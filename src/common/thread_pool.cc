// Copyright 2026 The claks Authors.

#include "common/thread_pool.h"

#include <chrono>
#include <utility>

#include "common/macros.h"
#include "observability/metrics.h"

namespace claks {

namespace {

// Pool health metrics, aggregated over every pool in the process (the
// service admission pool and the snapshot loader's pool).
// The queue-depth gauge tracks enqueue/dequeue exactly while recording
// is on; toggling recording mid-flight (the bench's A/B switch) can
// skew its level until the queues next drain.
CLAKS_METRIC_GAUGE(g_pool_queue_depth, "claks_pool_queue_depth",
                   "Tasks currently queued across all pools");
CLAKS_METRIC_COUNTER(g_pool_tasks, "claks_pool_tasks_total",
                     "Tasks accepted by Submit/TrySubmit");
CLAKS_METRIC_COUNTER(g_pool_backpressure_waits,
                     "claks_pool_backpressure_waits_total",
                     "Submit calls that blocked on a full queue");
CLAKS_METRIC_HISTOGRAM(g_pool_backpressure_us,
                       "claks_pool_backpressure_wait_us",
                       "Time Submit spent blocked on a full queue");

}  // namespace

ThreadPool::ThreadPool(size_t num_threads, size_t queue_capacity)
    : capacity_(queue_capacity == 0 ? 1 : queue_capacity) {
  if (num_threads == 0) num_threads = 1;
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mutex_);
    stopping_ = true;
  }
  not_empty_.notify_all();
  not_full_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  CLAKS_CHECK(task != nullptr);
  {
    MutexLock lock(&mutex_);
    if (queue_.size() >= capacity_ && !stopping_) {
      // Backpressure: the bounded queue is full, the caller blocks. The
      // wait is already a slow path, so the metric's clock reads cost
      // nothing measurable.
      g_pool_backpressure_waits.Inc();
      auto wait_start = std::chrono::steady_clock::now();
      while (queue_.size() >= capacity_ && !stopping_) {
        not_full_.wait(lock.native());
      }
      g_pool_backpressure_us.Observe(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - wait_start)
              .count()));
    }
    CLAKS_CHECK(!stopping_);  // submitting to a destructing pool
    queue_.push_back(std::move(task));
    g_pool_tasks.Inc();
    g_pool_queue_depth.Add(1);
  }
  not_empty_.notify_one();
}

bool ThreadPool::TrySubmit(std::function<void()>& task) {
  CLAKS_CHECK(task != nullptr);
  {
    MutexLock lock(&mutex_);
    CLAKS_CHECK(!stopping_);
    if (queue_.size() >= capacity_) return false;
    queue_.push_back(std::move(task));
    g_pool_tasks.Inc();
    g_pool_queue_depth.Add(1);
  }
  not_empty_.notify_one();
  return true;
}

void ThreadPool::Drain() {
  MutexLock lock(&mutex_);
  while (!queue_.empty() || executing_ != 0) {
    all_idle_.wait(lock.native());
  }
}

size_t ThreadPool::pending() const {
  MutexLock lock(&mutex_);
  return queue_.size();
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      MutexLock lock(&mutex_);
      while (queue_.empty() && !stopping_) {
        not_empty_.wait(lock.native());
      }
      // Drain-before-exit: shutdown completes queued work, it never
      // cancels it (Submit callers hold futures on these tasks).
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      g_pool_queue_depth.Add(-1);
      ++executing_;
    }
    not_full_.notify_one();
    task();
    {
      MutexLock lock(&mutex_);
      --executing_;
      if (queue_.empty() && executing_ == 0) all_idle_.notify_all();
    }
  }
}

}  // namespace claks
