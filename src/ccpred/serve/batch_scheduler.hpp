#pragma once

/// \file batch_scheduler.hpp
/// Deadline-aware dynamic micro-batching across connections.
///
/// The event loop already batches records that share a binary frame, but
/// independent clients send single-record traffic, so under bursty load
/// per-request dispatch overhead (pool hand-off, model-handle stat(), cache
/// probe) dominated, paid once per record instead of once per group. The
/// BatchScheduler sits between Server::submit_with and the worker pool and
/// coalesces concurrent requests — whatever connection or protocol they
/// arrived on — into micro-batches that Server::handle_batch dispatches
/// as a group.
///
/// Policy, in order of precedence:
///
///  * bypass — a request arriving at an idle scheduler (empty queue,
///    nothing in flight) is dispatched alone immediately: zero added
///    latency at low load. While any dispatch is in flight, arrivals
///    coalesce instead — a free slot alone must not bypass, or a
///    closed-loop client stream degenerates into size-1 dispatches;
///  * completion pump — whenever a dispatch finishes and frees a slot, the
///    queue is flushed at once (work-conserving: batch size adapts to the
///    arrival rate during service time, the classic continuous-batching
///    shape);
///  * bounded hold — no request waits in the queue past `max_hold_us`; the
///    flusher thread force-flushes even when every slot is busy (the pool
///    queues the batch), so hold time is a hard bound, not advisory;
///  * earliest-deadline-first — a request carrying `deadline_ms` is never
///    held past `deadline - max_hold`; when a flush is size-capped the
///    tightest deadlines board first. A deadline can still expire under
///    true overload, but never because of batch hold.
///
/// Answers are bit-identical to per-request dispatch: every dispatch, a
/// lone request included, goes through Server::handle_batch, which groups
/// by (machine, kind), acquires one model handle per group and dedups
/// identical (O, V) keys into one single-flight sweep.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "ccpred/serve/protocol.hpp"

namespace ccpred::serve {

class Server;

/// Scheduler knobs (ServeOptions::batch). Disabled by default: the
/// unbatched path's exact shed/counter semantics stay the baseline, and
/// serverd / benches opt in explicitly.
struct BatchOptions {
  bool enabled = false;
  /// Flush size cap per dispatch; 1 to 65,535, because the stats wire
  /// record indexes dispatch sizes with a u16.
  std::size_t max_batch = 64;
  std::uint32_t max_hold_us = 200;  ///< hard bound on queue hold time
  /// Concurrent dispatches targeted by bypass and the completion pump;
  /// 0 = the worker pool size. Hold/deadline flushes may exceed it (the
  /// pool queues), so it shapes batching, it does not gate liveness.
  std::size_t max_inflight = 0;
};

/// See file comment. Owned by Server (the last member, so it drains first
/// while the pools are still alive); thread-safe.
class BatchScheduler {
 public:
  BatchScheduler(Server& server, BatchOptions options);

  /// Flushes anything still queued and waits for in-flight dispatches; the
  /// Server contract (drain outstanding submits before destruction) makes
  /// this a no-op in practice.
  ~BatchScheduler();

  BatchScheduler(const BatchScheduler&) = delete;
  BatchScheduler& operator=(const BatchScheduler&) = delete;

  /// Queues one request for batched dispatch; `done` runs on a worker
  /// thread (or synchronously when the request is shed). The deadline
  /// clock starts here, so hold time counts against it.
  void submit(Request request, std::function<void(Response)> done);

  /// Writes the dispatch-size histogram into `s`, and the batch counters
  /// it determines: size-1 dispatches are bypasses, larger ones flushes.
  void fill(ServerStats* s) const;

 private:
  using Clock = std::chrono::steady_clock;

  struct Pending {
    Request request;
    std::function<void(Response)> done;
    Clock::time_point deadline;  ///< absolute; max() when none
    Clock::time_point enqueued;
  };

  void flusher_loop();

  /// Latest instant this request may sit in the queue: its hold window,
  /// cut short so a deadline-carrying request keeps at least one hold
  /// window of compute time (the EDF rule).
  Clock::time_point trigger_for(const Pending& p) const;

  /// Pops the next flush (EDF-capped at max_batch), counts it, marks it
  /// in flight and posts it to the server's worker pool. Caller holds
  /// mutex_ with pending_ non-empty.
  void flush_locked();

  void dispatch(std::deque<Pending> batch);  ///< size >= 2
  void dispatch_one(Pending p);              ///< bypass / one-deep flush
  void on_batch_done();
  void record_dispatch(std::size_t size);

  Server& server_;
  const BatchOptions options_;
  const std::size_t max_inflight_;
  const std::chrono::microseconds hold_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Pending> pending_;
  /// Queued requests carrying a deadline. When zero — the common case —
  /// a size-capped flush takes the FIFO head in O(max_batch) instead of
  /// EDF-sorting the whole queue under the lock.
  std::size_t deadline_count_ = 0;
  std::size_t inflight_ = 0;
  bool stop_ = false;
  /// Instant the flusher is currently sleeping until (max() = waiting
  /// indefinitely on an empty queue). submit() only pays a cv wake when a
  /// new trigger lands earlier; written under mutex_, and the flusher
  /// holds mutex_ except while actually waiting, so readers never see a
  /// stale earlier value that would lose a wake.
  Clock::time_point armed_ = Clock::time_point::max();

  /// Dispatch-size histogram: slot s counts dispatches of exactly s
  /// requests (s in [1, max_batch]).
  std::unique_ptr<std::atomic<std::uint64_t>[]> size_hist_;

  std::thread flusher_;  ///< last member: joined before anything else dies
};

}  // namespace ccpred::serve
