#pragma once

/// \file server.hpp
/// The recommendation server: a thread-safe request handler over a model
/// registry, a sharded sweep cache, and a worker pool. Every request is
/// answered through one path, handle_batch(): handle() is a batch of one,
/// the worker pool and the BatchScheduler hand it whole batches, and
/// answer_group() is the only code that derives STQ/BQ/budget answers.
/// Four properties matter for a guidance service and are tested
/// explicitly:
///
///  * determinism — any interleaving of requests produces the same answers
///    as serial execution against the same artifacts (sweeps are pure
///    functions of (machine, model-version, O, V));
///  * single-flight sweeps — concurrent requests for the same uncached
///    (machine, O, V) run ONE enumerate+predict sweep; the rest join the
///    flight the sweep cache keeps for it (`coalesced` counts them);
///  * cheap repeats — a cached sweep answers STQ, BQ and budget questions
///    without touching the model at all;
///  * graceful failure — a request with `deadline_ms` gets a structured
///    `code="deadline"` answer instead of an open-ended wait (the sweep
///    still completes on the sweep pool and warms the cache), submit()
///    sheds with `code="overloaded"` once `max_queue_depth` saturates,
///    and a failed model hot-reload degrades to stale answers rather
///    than errors.
///
/// Sweeps run on a dedicated sweep pool, not the request worker pool, so
/// a request thread can abandon a slow sweep at its deadline without
/// orphaning the computation — and waiting requests can never deadlock
/// the workers that would run their sweep.
///
/// The daemon serves through one Server per process: its stdin loop and
/// the EventLoopServer's sockets hand requests to submit_with() and
/// submit_batch_with(), which go through the BatchScheduler (when
/// enabled) to the worker pool.
///
/// Outstanding submit() futures must be drained before the server is
/// destroyed.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "ccpred/common/latency_histogram.hpp"
#include "ccpred/common/stopwatch.hpp"
#include "ccpred/common/thread_pool.hpp"
#include "ccpred/serve/batch_scheduler.hpp"
#include "ccpred/serve/fault_injector.hpp"
#include "ccpred/serve/model_registry.hpp"
#include "ccpred/serve/online/online_trainer.hpp"
#include "ccpred/serve/protocol.hpp"
#include "ccpred/serve/stats.hpp"
#include "ccpred/serve/sweep_cache.hpp"

namespace ccpred::serve {

/// Server construction knobs.
struct ServeOptions {
  std::size_t threads = 0;        ///< worker pool size; 0 = hardware
  std::size_t cache_capacity = 256;  ///< sweeps kept across all shards
  std::size_t max_queue_depth = 0;  ///< submit() sheds beyond this; 0 = off
  std::string default_machine = "aurora";  ///< when a request omits it
  std::string default_model = "gb";        ///< when a request omits it
  FaultInjector* fault_injector = nullptr;  ///< optional; must outlive server
  /// Online learning loop (report verb). Disabled by default — a report
  /// against a disabled loop answers code="bad_request".
  online::OnlineOptions online;
  /// Dynamic micro-batching across connections (see batch_scheduler.hpp).
  /// When enabled, submit()/submit_with()/submit_batch_with() route
  /// through the BatchScheduler, which coalesces requests into larger
  /// batches; handle() is always a batch of one. Answers are bit-identical
  /// either way.
  BatchOptions batch;
};

/// See file comment. The registry must outlive the server.
class Server {
 public:
  explicit Server(ModelRegistry& registry, ServeOptions options = {});
  /// Pool tasks and listeners hold its address.
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Handles one request synchronously as a batch of one. Thread-safe;
  /// never throws — failures come back as ok=false responses.
  Response handle(const Request& request);

  /// Enqueues a request onto the worker pool. When `max_queue_depth` is
  /// set and the pool's backlog is full, the future resolves immediately
  /// to ok=false, code="overloaded" (load shedding). The request's
  /// deadline clock starts here, so time spent queued counts against it.
  std::future<Response> submit(Request request);

  /// submit() for callers that already sit on an event loop: instead of a
  /// future, `done` is invoked with the response — from a worker thread on
  /// the normal path, or synchronously from this call when the request is
  /// shed. `done` must be safe to run on either.
  void submit_with(Request request, std::function<void(Response)> done);

  /// One pool task for a whole wire frame: the batch is admitted (or shed)
  /// as a unit and its records are handled one after another on one
  /// worker, so a 16-request frame pays the queue hand-off once instead of
  /// 16 times. Deadlines still apply per request.
  void submit_batch_with(
      std::vector<Request> batch,
      std::function<void(std::vector<Response>)> done);

  /// Handles a whole batch synchronously as one group: members are grouped
  /// by (machine, kind), each group acquires its model handle once and
  /// dedups identical (O, V) keys into one sweep-cache claim. Answers are bit-identical to calling
  /// handle() per request. Deadline clocks start here.
  std::vector<Response> dispatch_batch(const std::vector<Request>& batch);

  /// Point-in-time statistics snapshot.
  ServerStats stats() const;

  /// The daemon reports its event loop's overflow-closed connections
  /// through this callback so `stats` can surface them beside the server
  /// counters. Install before serving traffic; the callback must stay
  /// valid for the server's lifetime.
  void set_overflow_source(std::function<std::uint64_t()> source);

  const ServeOptions& options() const { return options_; }
  const SweepCache& cache() const { return cache_; }

  /// The online learning loop, or nullptr when disabled (test hook:
  /// wait_idle() between reporting and asserting on promotions).
  online::OnlineTrainer* online() { return online_.get(); }

 private:
  /// The scheduler reaches into the pools, admission counters and
  /// handle_batch; it is a serve-layer sibling, not an external client.
  friend class BatchScheduler;

  using Clock = std::chrono::steady_clock;

  /// Answers the verbs that need no sweep: stats, report and job.
  Response dispatch(const Request& request);

  /// The one answer path, with per-request absolute deadlines
  /// (Clock::time_point::max() = none). A request whose deadline already
  /// passed is answered code="deadline" without doing its work; the sweep
  /// verbs go to answer_group(), the rest to dispatch().
  std::vector<Response> handle_batch(
      std::span<const Request> batch,
      std::span<const Clock::time_point> deadlines);

  /// Answers one (machine, kind) group of STQ/BQ/budget members inside a
  /// batch: one model handle, one sweep-cache claim per unique (O, V) key,
  /// one recommend per key the group leads (all of them on one sweep-pool
  /// task).
  void answer_group(const std::string& machine, const std::string& kind,
                    const std::vector<std::size_t>& members,
                    std::span<const Request> batch,
                    std::span<const Clock::time_point> deadlines,
                    const Stopwatch& timer, std::vector<Response>* out);

  /// Counts every record of a frame that admission control turned away
  /// and answers each code="overloaded".
  std::vector<Response> shed(std::span<const Request> frame);

  /// Absolute deadline for a request whose clock starts now.
  static Clock::time_point deadline_for(const Request& request) {
    return request.deadline_ms > 0
               ? Clock::now() + std::chrono::milliseconds(request.deadline_ms)
               : Clock::time_point::max();
  }

  /// Lazily-built simulator per machine (stable address for Advisor refs).
  const sim::CcsdSimulator& simulator(const std::string& machine);

  ModelRegistry& registry_;
  ServeOptions options_;
  FaultInjector* fault_;  ///< == options_.fault_injector
  SweepCache cache_;
  /// Per-verb handler latency, indexed by Op; overall latency is their sum.
  LatencyHistogram op_latency_[kNumOps];

  /// Constructed only when options_.online.enabled. Declared after cache_
  /// (its refits invalidate cache shards) and before the pools, so its own
  /// refit worker drains while everything it touches is still alive.
  std::unique_ptr<online::OnlineTrainer> online_;

  std::mutex simulators_mutex_;
  std::map<std::string, sim::CcsdSimulator> simulators_;

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> sweeps_computed_{0};
  std::atomic<std::uint64_t> coalesced_{0};
  std::atomic<std::uint64_t> deadline_exceeded_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> stale_served_{0};
  std::atomic<std::size_t> queue_depth_{0};

  mutable std::mutex overflow_mutex_;
  std::function<std::uint64_t()> overflow_source_;  ///< may be empty

  // The pools are among the last members so their destructors run first:
  // they drain and join while every field their tasks touch is still
  // alive. pool_ follows sweep_pool_, so it drains first: a request still
  // queued at teardown posts its sweep and blocks on the future, which
  // only a live sweep pool resolves.
  ThreadPool sweep_pool_;
  ThreadPool pool_;

  /// Very last member: destroyed FIRST, so the scheduler stops its flusher
  /// and drains its queue while the pools it posts to are still alive.
  /// Null unless options_.batch.enabled.
  std::unique_ptr<BatchScheduler> batcher_;
};

}  // namespace ccpred::serve
