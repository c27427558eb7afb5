#include "ccpred/common/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <string>
#include <utility>

namespace ccpred {

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::post(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

bool ThreadPool::try_post(std::function<void()> task, std::size_t max_queue) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (queue_.size() >= max_queue) return false;
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
  return true;
}

std::size_t ThreadPool::queue_size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

namespace {

std::size_t global_pool_size_from_env() {
  const char* v = std::getenv("CCPRED_THREADS");
  if (v == nullptr || *v == '\0') return 0;
  char* end = nullptr;
  const long parsed = std::strtol(v, &end, 10);
  if (end == v || *end != '\0' || parsed <= 0) return 0;
  return static_cast<std::size_t>(parsed);
}

}  // namespace

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(global_pool_size_from_env());
  return pool;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();  // post()'s contract: the enqueued thunk does not throw
  }
}

TaskGroup::TaskGroup(ThreadPool& pool) : pool_(pool) {}

TaskGroup::~TaskGroup() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [this] { return pending_ == 0; });
}

void TaskGroup::run(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++pending_;
  }
  pool_.post([this, task = std::move(task)] {
    std::exception_ptr err;
    try {
      task();
    } catch (...) {
      err = std::current_exception();
    }
    std::lock_guard<std::mutex> lock(mutex_);
    if (err && !error_) error_ = err;
    if (--pending_ == 0) cv_.notify_all();
  });
}

void TaskGroup::wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [this] { return pending_ == 0; });
  if (error_) {
    std::exception_ptr err = std::exchange(error_, nullptr);
    std::rethrow_exception(err);
  }
}

}  // namespace ccpred
