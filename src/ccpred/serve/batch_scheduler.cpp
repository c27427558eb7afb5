#include "ccpred/serve/batch_scheduler.hpp"

#include <algorithm>
#include <utility>

#include "ccpred/common/error.hpp"
#include "ccpred/serve/server.hpp"
#include "ccpred/serve/wire.hpp"

namespace ccpred::serve {
namespace {

/// `options`, checked before the flusher thread starts: every dispatch
/// size must be an index the stats wire record can carry.
BatchOptions checked(BatchOptions options) {
  CCPRED_CHECK_MSG(options.max_batch < wire::kMaxHistogramEntries,
                   "batch: max_batch " << options.max_batch
                                       << " exceeds "
                                       << wire::kMaxHistogramEntries - 1);
  return options;
}

}  // namespace

BatchScheduler::BatchScheduler(Server& server, BatchOptions options)
    : server_(server),
      options_(checked(options)),
      max_inflight_(options.max_inflight > 0 ? options.max_inflight
                                             : server.pool_.size()),
      hold_(std::chrono::microseconds(options.max_hold_us)),
      size_hist_(std::make_unique<std::atomic<std::uint64_t>[]>(
          options_.max_batch + 1)),
      flusher_([this] { flusher_loop(); }) {}

BatchScheduler::~BatchScheduler() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    stop_ = true;
    while (!pending_.empty()) flush_locked();
    while (inflight_ > 0) cv_.wait(lock);
  }
  cv_.notify_all();
  flusher_.join();
}

BatchScheduler::Clock::time_point BatchScheduler::trigger_for(
    const Pending& p) const {
  const Clock::time_point held = p.enqueued + hold_;
  if (p.deadline == Clock::time_point::max()) return held;
  return std::min(held, p.deadline - hold_);
}

void BatchScheduler::submit(Request request,
                            std::function<void(Response)> done) {
  const Clock::time_point deadline = Server::deadline_for(request);
  const Clock::time_point now = Clock::now();
  // Construct outside the lock: the mutex is the whole scheduler's
  // serialization point, so only the queue ops belong inside it.
  Pending p{std::move(request), std::move(done), deadline, now};

  std::unique_lock<std::mutex> lock(mutex_);
  if (pending_.empty() && inflight_ == 0) {
    // Idle server: dispatch alone, zero added latency. Anything stricter
    // than "truly idle" here (e.g. any free slot) lets a closed-loop
    // client stream degenerate into size-1 dispatches — while work is in
    // flight, arrivals coalesce and the completion pump or the hold
    // window flushes them as one batch.
    server_.queue_depth_.fetch_add(1, std::memory_order_relaxed);
    record_dispatch(1);
    ++inflight_;
    lock.unlock();
    dispatch_one(std::move(p));
    return;
  }
  if (server_.options_.max_queue_depth > 0 &&
      pending_.size() >= server_.options_.max_queue_depth) {
    // Same admission bound the unbatched path enforces through try_post.
    lock.unlock();
    p.done(std::move(server_.shed({&p.request, 1}).front()));
    return;
  }
  server_.queue_depth_.fetch_add(1, std::memory_order_relaxed);
  if (deadline != Clock::time_point::max()) ++deadline_count_;
  pending_.push_back(std::move(p));
  if (pending_.size() >= options_.max_batch && inflight_ < max_inflight_) {
    flush_locked();
    return;
  }
  // Wake the flusher only when this request's trigger lands before the
  // instant it is already sleeping until — unconditional notifies cost a
  // futex wake per enqueue under load.
  if (trigger_for(pending_.back()) < armed_) cv_.notify_all();
}

void BatchScheduler::flusher_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stop_) {
    if (pending_.empty()) {
      armed_ = Clock::time_point::max();
      cv_.wait(lock);
      continue;
    }
    Clock::time_point earliest = trigger_for(pending_.front());
    for (const Pending& p : pending_) {
      earliest = std::min(earliest, trigger_for(p));
    }
    if (Clock::now() >= earliest) {
      // Hold (or a deadline's EDF cut) expired: flush even when every
      // slot is busy — the pool queues the batch, keeping hold time a
      // hard bound rather than a hint.
      flush_locked();
      continue;
    }
    armed_ = earliest;
    cv_.wait_until(lock, earliest);
  }
}

void BatchScheduler::flush_locked() {
  std::deque<Pending> batch;
  if (pending_.size() <= options_.max_batch) {
    batch.swap(pending_);  // full drain: O(1), no per-element moves
    deadline_count_ = 0;
  } else if (deadline_count_ == 0) {
    // Nothing queued carries a deadline, so EDF reduces to FIFO: take the
    // head and leave the (possibly deep) tail untouched instead of
    // sorting the whole queue under the lock.
    for (std::size_t i = 0; i < options_.max_batch; ++i) {
      batch.push_back(std::move(pending_.front()));
      pending_.pop_front();
    }
  } else {
    // Size-capped flush: the tightest deadlines board first (EDF), the
    // rest keep their relative order for the next flush.
    std::vector<Pending> all;
    all.reserve(pending_.size());
    for (Pending& p : pending_) all.push_back(std::move(p));
    pending_.clear();
    std::stable_sort(all.begin(), all.end(),
                     [](const Pending& a, const Pending& b) {
                       return a.deadline < b.deadline;
                     });
    deadline_count_ = 0;
    for (std::size_t i = 0; i < all.size(); ++i) {
      if (i < options_.max_batch) {
        batch.push_back(std::move(all[i]));
      } else {
        if (all[i].deadline != Clock::time_point::max()) ++deadline_count_;
        pending_.push_back(std::move(all[i]));
      }
    }
  }
  record_dispatch(batch.size());
  ++inflight_;
  if (batch.size() == 1) {
    dispatch_one(std::move(batch.front()));
  } else {
    dispatch(std::move(batch));
  }
}

void BatchScheduler::dispatch_one(Pending p) {
  // Size-1 dispatch (bypass or a one-deep flush): post the request
  // directly — no batch deque, no shared_ptr — and hand it to
  // handle_batch as a batch of one, in place. Same `this`-lifetime rule as
  // dispatch(): nothing after on_batch_done touches the scheduler.
  Server* srv = &server_;
  server_.pool_.post([this, srv, p = std::move(p)]() mutable {
    if (srv->fault_ != nullptr) {
      srv->fault_->maybe_delay(FaultPoint::kWorkerStall);
    }
    Response r = std::move(
        srv->handle_batch({&p.request, 1}, {&p.deadline, 1}).front());
    on_batch_done();
    p.done(std::move(r));
    srv->queue_depth_.fetch_sub(1, std::memory_order_relaxed);
  });
}

void BatchScheduler::dispatch(std::deque<Pending> batch) {
  // ONE pool hand-off for the whole flush — the per-request hand-off this
  // layer exists to amortize.
  //
  // The slot is freed (on_batch_done) as soon as the answers are computed,
  // BEFORE completions are delivered: a closed-loop client's next request
  // can race the delivery loop, and seeing a phantom in-flight slot would
  // queue it behind a hold window instead of bypassing. on_batch_done is
  // the last touch of `this` — once the slot count hits zero the
  // destructor may run — so everything after it goes through `srv`, whose
  // pool joins this task before the Server's own fields die.
  auto shared = std::make_shared<std::deque<Pending>>(std::move(batch));
  Server* srv = &server_;
  server_.pool_.post([this, srv, shared] {
    if (srv->fault_ != nullptr) {
      srv->fault_->maybe_delay(FaultPoint::kWorkerStall);
    }
    std::vector<Request> requests;
    std::vector<Clock::time_point> deadlines;
    requests.reserve(shared->size());
    deadlines.reserve(shared->size());
    for (Pending& p : *shared) {
      requests.push_back(std::move(p.request));
      deadlines.push_back(p.deadline);
    }
    std::vector<Response> out = srv->handle_batch(requests, deadlines);
    on_batch_done();
    for (std::size_t i = 0; i < shared->size(); ++i) {
      (*shared)[i].done(std::move(out[i]));
      srv->queue_depth_.fetch_sub(1, std::memory_order_relaxed);
    }
  });
}

void BatchScheduler::on_batch_done() {
  std::unique_lock<std::mutex> lock(mutex_);
  --inflight_;
  // Work-conserving pump: a freed slot immediately flushes whatever
  // queued while the last batch ran.
  while (!pending_.empty() && inflight_ < max_inflight_) flush_locked();
  // Only the destructor waits on inflight_; don't pay a futex wake on
  // every completed dispatch during normal operation.
  if (stop_) cv_.notify_all();
}

void BatchScheduler::record_dispatch(std::size_t size) {
  const std::size_t slot = std::min(size, options_.max_batch);
  size_hist_[slot].fetch_add(1, std::memory_order_relaxed);
}

void BatchScheduler::fill(ServerStats* s) const {
  s->batch_sizes.clear();
  for (std::size_t size = 1; size <= options_.max_batch; ++size) {
    const std::uint64_t n = size_hist_[size].load(std::memory_order_relaxed);
    if (n == 0) continue;
    s->batch_sizes.resize(size + 1);
    s->batch_sizes[size] = n;
    if (size == 1) {
      s->batch_bypass = n;
    } else {
      s->batch_flushes += n;
      s->batched_requests += size * n;
    }
  }
}

}  // namespace ccpred::serve
