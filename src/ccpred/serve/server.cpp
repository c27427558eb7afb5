#include "ccpred/serve/server.hpp"

#include <algorithm>
#include <array>
#include <deque>
#include <tuple>
#include <utility>

#include "ccpred/common/error.hpp"
#include "ccpred/common/stopwatch.hpp"
#include "ccpred/sim/solver.hpp"

namespace ccpred::serve {
namespace {

/// Decrements a gauge on every exit path (exception-safe queue_depth
/// accounting: a faulted or deadline-exceeded request must still return
/// the depth to zero).
struct GaugeGuard {
  std::atomic<std::size_t>& gauge;
  ~GaugeGuard() { gauge.fetch_sub(1, std::memory_order_relaxed); }
};

}  // namespace

Server::Server(ModelRegistry& registry, ServeOptions options)
    : registry_(registry),
      options_(std::move(options)),
      fault_(options_.fault_injector),
      cache_(options_.cache_capacity, options_.cache_shards),
      sweep_pool_(options_.threads),
      pool_(options_.threads) {
  cache_.set_fault_injector(fault_);
  if (options_.online.enabled) {
    online_ = std::make_unique<online::OnlineTrainer>(
        registry_, &cache_, options_.online, fault_);
  }
  if (options_.batch.enabled) {
    batcher_ = std::make_unique<BatchScheduler>(*this, options_.batch);
  }
}

void Server::set_overflow_source(std::function<std::uint64_t()> source) {
  const std::lock_guard<std::mutex> lock(overflow_mutex_);
  overflow_source_ = std::move(source);
}

const sim::CcsdSimulator& Server::simulator(const std::string& machine) {
  const std::lock_guard<std::mutex> lock(simulators_mutex_);
  auto it = simulators_.find(machine);
  if (it == simulators_.end()) {
    it = simulators_.emplace(machine, simulator_for(machine)).first;
  }
  return it->second;
}

Response Server::dispatch(const Request& req) {
  Response r;
  r.op = op_name(req.op);
  r.id = req.id;

  if (req.op == Op::kStats) {
    r.ok = true;
    r.has_stats = true;
    r.stats = stats();
    return r;
  }

  const std::string machine =
      req.machine.empty() ? options_.default_machine : req.machine;

  if (req.op == Op::kReport) {
    if (online_ == nullptr) {
      return error_response("online learning is disabled on this server",
                            r.op, r.id, "bad_request");
    }
    const std::string kind =
        req.model.empty() ? options_.default_model : req.model;
    const sim::RunConfig cfg{
        .o = req.o, .v = req.v, .nodes = req.nodes, .tile = req.tile};
    const online::ReportOutcome outcome =
        online_->ingest(machine, kind, cfg, req.wall_times);
    r.ok = true;
    r.has_report = true;
    r.accepted = outcome.accepted;
    r.duplicates = outcome.duplicates;
    r.buffered = outcome.buffered;
    r.rolling_mape = outcome.rolling_mape;
    r.drifting = outcome.drifting;
    r.refit_scheduled = outcome.refit_scheduled;
    r.model_version = outcome.model_version;
    return r;
  }

  if (req.op != Op::kJob) throw Error("unhandled op");  // unreachable
  const sim::RunConfig cfg{
      .o = req.o, .v = req.v, .nodes = req.nodes, .tile = req.tile};
  const auto job = sim::estimate_job(simulator(machine), cfg);
  r.ok = true;
  r.has_job = true;
  r.iterations = job.iterations;
  r.setup_s = job.setup_s;
  r.iteration_s = job.iteration_s;
  r.total_s = job.total_s;
  r.node_hours = job.node_hours;
  return r;
}

Response Server::handle(const Request& req) {
  const Clock::time_point deadline = deadline_for(req);
  return std::move(handle_batch({&req, 1}, {&deadline, 1}).front());
}

std::vector<Response> Server::dispatch_batch(
    const std::vector<Request>& batch) {
  std::vector<Clock::time_point> deadlines;
  deadlines.reserve(batch.size());
  for (const Request& req : batch) deadlines.push_back(deadline_for(req));
  return handle_batch(batch, deadlines);
}

std::vector<Response> Server::handle_batch(
    std::span<const Request> batch,
    std::span<const Clock::time_point> deadlines) {
  const Stopwatch timer;
  std::vector<Response> out(batch.size());
  // Group sweep-shaped members by (machine, kind); the other verbs have no
  // cross-request work to share and are answered on the spot. std::map
  // keeps group order deterministic.
  std::map<std::pair<std::string, std::string>, std::vector<std::size_t>>
      groups;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Request& req = batch[i];
    const bool expired = deadlines[i] != Clock::time_point::max() &&
                         Clock::now() >= deadlines[i];
    if (!expired &&
        (req.op == Op::kStq || req.op == Op::kBq || req.op == Op::kBudget)) {
      groups[{req.machine.empty() ? options_.default_machine : req.machine,
              req.model.empty() ? options_.default_model : req.model}]
          .push_back(i);
      continue;
    }
    const Stopwatch own;
    requests_.fetch_add(1, std::memory_order_relaxed);
    Response& r = out[i];
    if (expired) {
      // Expired while queued: answer without doing the work.
      deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
      r = error_response("deadline of " + std::to_string(req.deadline_ms) +
                             " ms exceeded before dispatch",
                         op_name(req.op), req.id, "deadline");
    } else {
      try {
        r = dispatch(req);
      } catch (const std::exception& e) {
        r = error_response(e.what(), op_name(req.op), req.id, "internal");
      }
    }
    if (!r.ok) errors_.fetch_add(1, std::memory_order_relaxed);
    const double elapsed_s = own.elapsed_s();
    latency_.record(elapsed_s);
    op_latency_[static_cast<std::size_t>(req.op)].record(elapsed_s);
  }
  for (const auto& [mk, members] : groups) {
    answer_group(mk.first, mk.second, members, batch, deadlines, timer, &out);
  }
  return out;
}

void Server::answer_group(const std::string& machine, const std::string& kind,
                          const std::vector<std::size_t>& members,
                          std::span<const Request> batch,
                          std::span<const Clock::time_point> deadlines,
                          const Stopwatch& timer, std::vector<Response>* out) {
  // One model-handle acquisition per group, however many members share it.
  ModelHandle handle;
  std::string handle_error;
  try {
    handle = registry_.get(machine, kind);
  } catch (const std::exception& e) {
    handle_error = e.what();
  }

  // Dedup members onto unique (O, V) keys and batch-probe the cache once
  // per key.
  std::vector<SweepKey> keys;
  std::map<std::pair<int, int>, std::size_t> key_index;
  std::vector<std::size_t> member_key(members.size(), 0);
  if (handle_error.empty()) {
    for (std::size_t m = 0; m < members.size(); ++m) {
      const Request& req = batch[members[m]];
      const auto [it, inserted] =
          key_index.try_emplace(std::pair<int, int>{req.o, req.v},
                                keys.size());
      if (inserted) {
        keys.push_back(SweepKey{machine, kind, handle.version, req.o, req.v});
      }
      member_key[m] = it->second;
    }
  }
  std::vector<SweepPtr> cached;
  cache_.get_batch(keys, &cached);

  // Single-flight: the first requester of a cold key becomes its leader;
  // everyone (leader included) waits on the key's shared future. Keys this
  // group leads are computed in ONE batched recommend on the sweep pool;
  // keys already in flight elsewhere are joined. Running sweeps off the
  // request thread lets a deadline abandon the wait while the computation
  // still completes and populates the cache.
  std::vector<std::shared_future<SweepResult>> futures(keys.size());
  std::vector<std::shared_ptr<std::promise<SweepResult>>> promises(
      keys.size());
  std::vector<std::size_t> leaders;
  {
    const std::lock_guard<std::mutex> lock(inflight_mutex_);
    for (std::size_t k = 0; k < keys.size(); ++k) {
      if (cached[k] != nullptr) continue;
      const auto it = inflight_.find(keys[k]);
      if (it == inflight_.end()) {
        promises[k] = std::make_shared<std::promise<SweepResult>>();
        futures[k] = promises[k]->get_future().share();
        inflight_[keys[k]] = futures[k];
        leaders.push_back(k);
      } else {
        futures[k] = it->second;
      }
    }
  }
  if (!leaders.empty()) {
    std::vector<SweepKey> lead_keys;
    std::vector<std::shared_ptr<std::promise<SweepResult>>> lead_promises;
    lead_keys.reserve(leaders.size());
    lead_promises.reserve(leaders.size());
    for (const std::size_t k : leaders) {
      lead_keys.push_back(keys[k]);
      lead_promises.push_back(promises[k]);
    }
    // One sweep-pool task computes every cold key the group leads with a
    // single concatenated predict (recommend_batch), so the SIMD batch
    // kernels see cross-request batches. If the batched compute fails —
    // e.g. one infeasible problem — fall back to per-key sweeps so the
    // innocent keys keep their own answers. A failed sweep resolves the
    // shared future with an error STRING, not an exception_ptr — see
    // SweepResult for why.
    sweep_pool_.post([this, handle, lead_keys = std::move(lead_keys),
                      lead_promises = std::move(lead_promises)] {
      if (fault_ != nullptr) fault_->maybe_delay(FaultPoint::kSweepCompute);
      std::vector<SweepResult> results(lead_keys.size());
      bool batched_ok = true;
      try {
        const guide::Advisor advisor(*handle.model,
                                     simulator(lead_keys.front().machine));
        std::vector<std::pair<int, int>> problems;
        problems.reserve(lead_keys.size());
        for (const SweepKey& key : lead_keys) {
          problems.emplace_back(key.o, key.v);
        }
        std::vector<guide::Recommendation> recs = advisor.recommend_batch(
            problems, guide::Objective::kShortestTime);
        for (std::size_t k = 0; k < lead_keys.size(); ++k) {
          results[k].sweep = std::make_shared<const guide::Recommendation>(
              std::move(recs[k]));
        }
      } catch (...) {
        batched_ok = false;
      }
      if (!batched_ok) {
        for (std::size_t k = 0; k < lead_keys.size(); ++k) {
          try {
            const guide::Advisor advisor(
                *handle.model, simulator(lead_keys[k].machine));
            results[k].sweep = std::make_shared<const guide::Recommendation>(
                advisor.recommend(lead_keys[k].o, lead_keys[k].v,
                                  guide::Objective::kShortestTime));
          } catch (const std::exception& e) {
            results[k].error = e.what();
          } catch (...) {
            results[k].error = "sweep failed with a non-standard exception";
          }
        }
      }
      for (std::size_t k = 0; k < lead_keys.size(); ++k) {
        if (results[k].sweep != nullptr) {
          sweeps_computed_.fetch_add(1, std::memory_order_relaxed);
          cache_.put(lead_keys[k], results[k].sweep);
        }
        {
          const std::lock_guard<std::mutex> lock(inflight_mutex_);
          inflight_.erase(lead_keys[k]);
        }
        lead_promises[k]->set_value(std::move(results[k]));
      }
    });
  }

  // Answer every member. The first member of a led key is the sweep's
  // "miss"; every further member of that key — and every member of an
  // externally in-flight key — coalesced onto an existing flight.
  //
  // BQ/budget answers scan the whole swept grid; members sharing a sweep
  // key, verb, and budget get bit-identical answers by construction (the
  // pick_* scans are pure), so each distinct derivation runs once per
  // batch and its winning point fans out.
  std::vector<std::tuple<std::size_t, Op, double>> derived_keys;
  std::vector<guide::SweepPoint> derived_points;
  std::vector<bool> key_claimed(keys.size(), false);
  std::array<std::uint64_t, kNumOps> op_counts{};
  requests_.fetch_add(members.size(), std::memory_order_relaxed);
  for (std::size_t m = 0; m < members.size(); ++m) {
    const std::size_t i = members[m];
    const Request& req = batch[i];
    ++op_counts[static_cast<std::size_t>(req.op)];
    Response r;
    try {
      if (!handle_error.empty()) throw Error(handle_error);
      const std::size_t k = member_key[m];
      const bool cache_hit = cached[k] != nullptr;
      SweepPtr sweep = cached[k];
      if (sweep == nullptr) {
        if (promises[k] != nullptr && !key_claimed[k]) {
          key_claimed[k] = true;
        } else {
          coalesced_.fetch_add(1, std::memory_order_relaxed);
        }
        if (deadlines[i] == Clock::time_point::max() ||
            futures[k].wait_until(deadlines[i]) !=
                std::future_status::timeout) {
          const SweepResult& result = futures[k].get();
          if (result.sweep == nullptr) throw Error(result.error);
          sweep = result.sweep;
        }
      }
      if (sweep == nullptr) {
        deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
        r = error_response(
            "deadline of " + std::to_string(req.deadline_ms) +
                " ms exceeded; the sweep continues in the background",
            op_name(req.op), req.id, "deadline");
      } else {
        guide::SweepPoint pt;
        if (req.op == Op::kStq) {
          // The cached sweep IS the shortest-time answer.
          pt.config = sweep->config;
          pt.predicted_time_s = sweep->predicted_time_s;
          pt.predicted_node_hours = sweep->predicted_node_hours;
        } else {
          const double budget =
              req.op == Op::kBudget ? req.max_node_hours : 0.0;
          bool memoized = false;
          for (std::size_t d = 0; d < derived_keys.size(); ++d) {
            const auto& [dk, dop, dbudget] = derived_keys[d];
            if (dk == k && dop == req.op && dbudget == budget) {
              pt = derived_points[d];
              memoized = true;
              break;
            }
          }
          if (!memoized) {
            pt = req.op == Op::kBq
                     ? guide::Advisor::pick_best(sweep->sweep,
                                                 guide::Objective::kNodeHours)
                     : guide::Advisor::pick_within_budget(*sweep, budget);
            derived_keys.emplace_back(k, req.op, budget);
            derived_points.push_back(pt);
          }
        }
        r.op = op_name(req.op);
        r.id = req.id;
        r.ok = true;
        r.stale = handle.stale;
        if (handle.stale) {
          stale_served_.fetch_add(1, std::memory_order_relaxed);
        }
        r.has_recommendation = true;
        r.nodes = pt.config.nodes;
        r.tile = pt.config.tile;
        r.time_s = pt.predicted_time_s;
        r.node_hours = pt.predicted_node_hours;
        r.model_version = handle.version;
        r.sweep_size = sweep->sweep.size();
        r.cache_hit = cache_hit;
      }
    } catch (const std::exception& e) {
      r = error_response(e.what(), op_name(req.op), req.id, "internal");
    }
    if (!r.ok) errors_.fetch_add(1, std::memory_order_relaxed);
    (*out)[i] = std::move(r);
  }
  // Every member of the batch completes when the batch completes, so one
  // timestamp and one bulk record per verb replaces 2 histogram updates
  // per member.
  const double elapsed_s = timer.elapsed_s();
  latency_.record_n(elapsed_s, members.size());
  for (std::size_t op = 0; op < kNumOps; ++op) {
    op_latency_[op].record_n(elapsed_s, op_counts[op]);
  }
}

std::vector<Response> Server::shed(std::span<const Request> frame) {
  shed_.fetch_add(frame.size(), std::memory_order_relaxed);
  return frame_error(frame,
                     "server overloaded: queue depth limit " +
                         std::to_string(options_.max_queue_depth) + " reached",
                     "overloaded");
}

std::future<Response> Server::submit(Request request) {
  auto promise = std::make_shared<std::promise<Response>>();
  std::future<Response> future = promise->get_future();
  submit_with(std::move(request),
              [promise](Response r) { promise->set_value(std::move(r)); });
  return future;
}

void Server::submit_with(Request request, std::function<void(Response)> done) {
  if (batcher_ != nullptr) {
    batcher_->submit(std::move(request), std::move(done));
    return;
  }
  std::vector<Request> frame;
  frame.push_back(std::move(request));
  submit_batch_with(std::move(frame),
                    [done = std::move(done)](std::vector<Response> out) {
                      done(std::move(out.front()));
                    });
}

void Server::submit_batch_with(std::vector<Request> batch,
                               std::function<void(std::vector<Response>)> done) {
  if (batcher_ != nullptr) {
    // Per-record routing through the scheduler: records from one wire
    // frame coalesce with every other connection's traffic; the frame's
    // responses reassemble in order once the last record answers.
    if (batch.empty()) {
      done({});
      return;
    }
    struct FanIn {
      std::vector<Response> out;
      std::atomic<std::size_t> remaining{0};
      std::function<void(std::vector<Response>)> done;
    };
    auto fan = std::make_shared<FanIn>();
    fan->out.resize(batch.size());
    fan->remaining.store(batch.size(), std::memory_order_relaxed);
    fan->done = std::move(done);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      batcher_->submit(std::move(batch[i]), [fan, i](Response r) {
        fan->out[i] = std::move(r);
        if (fan->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
          fan->done(std::move(fan->out));
        }
      });
    }
    return;
  }
  // Deadline clocks start at submission (time queued counts), captured per
  // request before the frame is enqueued. The frame is shared so the shed
  // path can still echo its records after a rejected try_post consumed the
  // task.
  std::vector<Clock::time_point> deadlines;
  deadlines.reserve(batch.size());
  for (const Request& req : batch) deadlines.push_back(deadline_for(req));
  const auto frame =
      std::make_shared<const std::vector<Request>>(std::move(batch));

  queue_depth_.fetch_add(1, std::memory_order_relaxed);
  auto task = [this, done, frame, deadlines = std::move(deadlines)]() {
    const GaugeGuard guard{queue_depth_};
    if (fault_ != nullptr) fault_->maybe_delay(FaultPoint::kWorkerStall);
    // Record by record, not as one group: an unbatched frame answers
    // exactly as if its records had arrived one at a time, cache_hit flags
    // included.
    std::vector<Response> out;
    out.reserve(frame->size());
    for (std::size_t i = 0; i < frame->size(); ++i) {
      out.push_back(std::move(
          handle_batch({&(*frame)[i], 1}, {&deadlines[i], 1}).front()));
    }
    done(std::move(out));
  };
  bool admitted = true;
  if (options_.max_queue_depth == 0) {
    pool_.post(std::move(task));
  } else {
    admitted = pool_.try_post(std::move(task), options_.max_queue_depth);
  }
  if (!admitted) {
    // A shed frame answers every record: frames are admitted as a unit.
    queue_depth_.fetch_sub(1, std::memory_order_relaxed);
    done(shed(*frame));
  }
}

ServerStats Server::stats() const {
  ServerStats s;
  s.requests = requests_.load(std::memory_order_relaxed);
  s.errors = errors_.load(std::memory_order_relaxed);
  s.sweeps_computed = sweeps_computed_.load(std::memory_order_relaxed);
  s.coalesced = coalesced_.load(std::memory_order_relaxed);
  const CacheCounters cc = cache_.counters();
  s.cache_hits = cc.hits;
  s.cache_misses = cc.misses;
  s.cache_evictions = cc.evictions;
  s.cache_hit_rate = cc.hit_rate();
  s.cache_size = cache_.size();
  s.queue_depth = queue_depth_.load(std::memory_order_relaxed);
  s.deadline_exceeded = deadline_exceeded_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  s.stale_served = stale_served_.load(std::memory_order_relaxed);
  s.reload_failures = registry_.reload_failures();
  s.retries = retries_.load(std::memory_order_relaxed);
  s.models_loaded = registry_.loads();
  s.models_trained = registry_.trainings();
  // Bucket quantiles interpolate toward the bucket's upper bound, so with
  // few samples they can overshoot the exact tracked max; clamp so the
  // reported p50 <= p95 <= p99 <= max always holds.
  const double overall_max = latency_.max() * 1e3;
  s.latency_p50_ms = std::min(latency_.quantile(0.50) * 1e3, overall_max);
  s.latency_p95_ms = std::min(latency_.quantile(0.95) * 1e3, overall_max);
  s.latency_mean_ms = latency_.mean() * 1e3;
  for (std::size_t i = 0; i < kNumOps; ++i) {
    const double verb_max = op_latency_[i].max() * 1e3;
    s.verb_latency[i].count = op_latency_[i].count();
    s.verb_latency[i].p50_ms =
        std::min(op_latency_[i].quantile(0.50) * 1e3, verb_max);
    s.verb_latency[i].p95_ms =
        std::min(op_latency_[i].quantile(0.95) * 1e3, verb_max);
    s.verb_latency[i].p99_ms =
        std::min(op_latency_[i].quantile(0.99) * 1e3, verb_max);
    s.verb_latency[i].max_ms = verb_max;
  }
  if (batcher_ != nullptr) {
    const BatchCounters bc = batcher_->counters();
    s.batched_requests = bc.batched_requests;
    s.batch_flushes = bc.batch_flushes;
    s.batch_bypass = bc.batch_bypass;
    s.batch_size_p50 = bc.size_p50;
    s.batch_size_p95 = bc.size_p95;
  }
  {
    const std::lock_guard<std::mutex> lock(overflow_mutex_);
    if (overflow_source_) s.overflow_closed = overflow_source_();
  }
  if (online_ != nullptr) {
    s.online_enabled = true;
    s.online = online_->counters();
  }
  return s;
}

}  // namespace ccpred::serve
