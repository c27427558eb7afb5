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
      cache_(options_.cache_capacity),
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
    op_latency_[static_cast<std::size_t>(req.op)].record(own.elapsed_s());
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

  // Dedup members onto unique (O, V) keys and claim each key once: a
  // cached sweep, a flight to join, or a new flight this group leads. The
  // cache tells these apart under one shard lock, so a sweep published
  // between probe and join can never be swept twice. Keys this group
  // leads are swept by one sweep-pool task; running sweeps off the request
  // thread lets a deadline abandon the wait while the computation still
  // completes and populates the cache.
  std::vector<SweepCache::Claim> claims;
  std::vector<SweepKey> lead_keys;
  std::vector<SweepCache::Lead> leads;
  std::map<std::pair<int, int>, std::size_t> key_index;
  std::vector<std::size_t> member_key(members.size(), 0);
  if (handle_error.empty()) {
    for (std::size_t m = 0; m < members.size(); ++m) {
      const Request& req = batch[members[m]];
      const auto [it, inserted] = key_index.try_emplace(
          std::pair<int, int>{req.o, req.v}, claims.size());
      if (inserted) {
        const SweepKey key{machine, kind, handle.version, req.o, req.v};
        claims.push_back(cache_.claim(key));
        if (claims.back().lead != nullptr) {
          lead_keys.push_back(key);
          leads.push_back(claims.back().lead);
        }
      }
      member_key[m] = it->second;
    }
  }
  if (!lead_keys.empty()) {
    // One sweep-pool task sweeps every cold key the group leads, one
    // recommend per key. Each key resolves its own flight: a key that fails
    // (e.g. an infeasible problem) carries its own error and leaves the
    // other keys' answers alone. The Advisor is built inside the try, since
    // a pool task must not throw.
    sweep_pool_.post([this, handle, lead_keys = std::move(lead_keys),
                      leads = std::move(leads)] {
      if (fault_ != nullptr) fault_->maybe_delay(FaultPoint::kSweepCompute);
      for (std::size_t k = 0; k < lead_keys.size(); ++k) {
        const SweepKey& key = lead_keys[k];
        SweepCache::Outcome result;
        try {
          const guide::Advisor advisor(*handle.model, simulator(key.machine));
          result.value = std::make_shared<const guide::Recommendation>(
              advisor.recommend(key.o, key.v, guide::Objective::kShortestTime));
          sweeps_computed_.fetch_add(1, std::memory_order_relaxed);
        } catch (const std::exception& e) {
          result.error = e.what();
        } catch (...) {
          result.error = "sweep failed with a non-standard exception";
        }
        cache_.finish(key, leads[k], std::move(result));
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
  std::vector<bool> key_claimed(claims.size(), false);
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
      const SweepCache::Claim& claim = claims[k];
      const bool cache_hit = claim.hit.has_value();
      SweepPtr sweep = cache_hit ? *claim.hit : nullptr;
      if (!cache_hit) {
        if (claim.lead != nullptr && !key_claimed[k]) {
          key_claimed[k] = true;
        } else {
          coalesced_.fetch_add(1, std::memory_order_relaxed);
        }
        if (deadlines[i] == Clock::time_point::max() ||
            claim.flight.wait_until(deadlines[i]) !=
                std::future_status::timeout) {
          const SweepCache::Outcome& result = claim.flight.get();
          if (!result.value) throw Error(result.error);
          sweep = *result.value;
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
  // timestamp and one bulk record per verb replaces a histogram update per
  // member.
  const double elapsed_s = timer.elapsed_s();
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
  s.cache_size = cache_.size();
  s.queue_depth = queue_depth_.load(std::memory_order_relaxed);
  s.deadline_exceeded = deadline_exceeded_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  s.stale_served = stale_served_.load(std::memory_order_relaxed);
  s.reload_failures = registry_.reload_failures();
  s.models_loaded = registry_.loads();
  s.models_trained = registry_.trainings();
  for (std::size_t i = 0; i < kNumOps; ++i) {
    s.verb_latency[i] = op_latency_[i].snapshot();
  }
  if (batcher_ != nullptr) batcher_->fill(&s);
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
