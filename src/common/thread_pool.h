// Copyright 2026 The claks Authors.
//
// Fixed-size worker thread pool with a bounded submission queue. Two
// consumers share it: the concurrent query service uses one as its
// admission-control front (service/search_service.h), and the snapshot
// loader decodes table sections on one (storage/snapshot.cc).
// Submit blocks (never drops) once `queue_capacity` tasks are waiting, so
// a burst of work exerts backpressure on the producer instead of growing
// memory without bound; the worker count bounds CPU concurrency the same
// way.

#ifndef CLAKS_COMMON_THREAD_POOL_H_
#define CLAKS_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace claks {

/// A fixed set of worker threads draining one bounded FIFO task queue.
///
/// Thread-safety: Submit and the accessors may be called from any thread.
/// The destructor completes every task already submitted (it does not
/// cancel), then joins the workers; submitting from a task is allowed but
/// may deadlock when the queue is full, and submitting after destruction
/// has begun is a programming error.
class ThreadPool {
 public:
  /// Starts `num_threads` workers (>= 1 enforced) over a queue holding at
  /// most `queue_capacity` waiting tasks (>= 1 enforced).
  ThreadPool(size_t num_threads, size_t queue_capacity);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues one task. Blocks while the queue is at capacity — bounded
  /// admission: callers feel backpressure, tasks are never dropped.
  void Submit(std::function<void()> task) CLAKS_EXCLUDES(mutex_);

  /// Non-blocking Submit: false (task untouched) when the queue is full.
  bool TrySubmit(std::function<void()>& task) CLAKS_EXCLUDES(mutex_);

  /// Blocks until every task submitted so far has finished executing.
  void Drain() CLAKS_EXCLUDES(mutex_);

  size_t num_threads() const { return workers_.size(); }
  size_t queue_capacity() const { return capacity_; }

  /// Tasks waiting in the queue (excludes tasks currently executing).
  size_t pending() const CLAKS_EXCLUDES(mutex_);

 private:
  void WorkerLoop() CLAKS_EXCLUDES(mutex_);

  const size_t capacity_;
  mutable Mutex mutex_;
  std::condition_variable not_empty_;   // signalled on enqueue
  std::condition_variable not_full_;    // signalled on dequeue
  std::condition_variable all_idle_;    // signalled when work may be done
  std::deque<std::function<void()>> queue_ CLAKS_GUARDED_BY(mutex_);
  size_t executing_ CLAKS_GUARDED_BY(mutex_) = 0;  ///< popped, unfinished
  bool stopping_ CLAKS_GUARDED_BY(mutex_) = false;
  /// Started in the constructor, joined in the destructor; the vector
  /// itself is immutable in between (num_threads reads its size).
  std::vector<std::thread> workers_;
};

}  // namespace claks

#endif  // CLAKS_COMMON_THREAD_POOL_H_
