#pragma once

/// \file thread_pool.hpp
/// A fixed-size worker pool and a TaskGroup batch waiter.
///
/// The pool runs the serving layer's request and sweep workers and, as
/// ThreadPool::global(), the chunks of exec::parallel_for — the one
/// data-parallel loop behind every forest, boosting, kernel, CV, search,
/// campaign and sweep fan-out.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ccpred {

/// RAII thread pool; joins all workers on destruction.
class ThreadPool {
 public:
  /// Creates `num_threads` workers; 0 means std::thread::hardware_concurrency
  /// (at least 1).
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  std::size_t size() const { return workers_.size(); }

  /// Fire-and-forget enqueue: there is nobody to receive an exception, so
  /// the task must not throw. Waiters that need exception propagation use
  /// TaskGroup, whose run() wraps the task accordingly.
  void post(std::function<void()> task);

  /// Bounded-admission post: enqueues only if fewer than `max_queue` tasks
  /// are waiting (tasks already running do not count), otherwise rejects
  /// and returns false without consuming resources. This is the load-
  /// shedding primitive for callers that must not build an unbounded
  /// backlog (the serving layer's admission control).
  bool try_post(std::function<void()> task, std::size_t max_queue);

  /// Tasks enqueued but not yet picked up by a worker.
  std::size_t queue_size() const;

  /// Process-wide shared pool (lazily constructed). Its size honors the
  /// CCPRED_THREADS environment variable when set to a positive integer,
  /// otherwise hardware concurrency.
  static ThreadPool& global();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// Submits a batch of tasks to a pool and waits for them as one unit.
/// Unlike raw post(), a task exception is not lost: the first one is
/// captured as a std::exception_ptr and rethrown from wait(), so the waiter
/// observes failures exactly as it would with per-task futures but without
/// a future allocation per task.
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool& pool = ThreadPool::global());

  /// Waits for outstanding tasks; a still-pending exception is dropped
  /// (destructors must not throw) — call wait() to observe it.
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Enqueues one task on the pool as part of this group.
  void run(std::function<void()> task);

  /// Blocks until every task run() so far has finished, then rethrows the
  /// first captured task exception (if any). The group is reusable after
  /// wait() returns or throws.
  void wait();

 private:
  ThreadPool& pool_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::size_t pending_ = 0;
  std::exception_ptr error_;
};

}  // namespace ccpred
