#include "ccpred/serve/online/online_trainer.hpp"

#include <algorithm>
#include <filesystem>
#include <functional>
#include <utility>

#include "ccpred/common/error.hpp"
#include "ccpred/core/gradient_boosting.hpp"
#include "ccpred/core/random_forest.hpp"
#include "ccpred/core/serialize.hpp"
#include "ccpred/data/generator.hpp"
#include "ccpred/data/problems.hpp"

namespace ccpred::serve::online {
namespace {

/// (features, targets) of a run list, in the library's column order.
std::pair<linalg::Matrix, std::vector<double>> xy_of(
    const std::vector<MeasuredRun>& runs) {
  linalg::Matrix x(runs.size(), data::kNumFeatures);
  std::vector<double> y;
  y.reserve(runs.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    x(i, data::kFeatO) = runs[i].o;
    x(i, data::kFeatV) = runs[i].v;
    x(i, data::kFeatNodes) = runs[i].nodes;
    x(i, data::kFeatTile) = runs[i].tile;
    y.push_back(runs[i].wall_time_s);
  }
  return {std::move(x), std::move(y)};
}

}  // namespace

OnlineTrainer::OnlineTrainer(ModelRegistry& registry, SweepCache* cache,
                             OnlineOptions options, FaultInjector* fault)
    : registry_(registry),
      cache_(cache),
      options_(options),
      fault_(fault) {
  CCPRED_CHECK_MSG(options_.buffer_capacity > 0,
                   "online: buffer_capacity must be > 0");
  CCPRED_CHECK_MSG(options_.min_refit_rows > 0,
                   "online: min_refit_rows must be > 0");
  CCPRED_CHECK_MSG(options_.holdout > 0, "online: holdout must be > 0");
  CCPRED_CHECK_MSG(options_.feedback_weight > 0,
                   "online: feedback_weight must be > 0");
  CCPRED_CHECK_MSG(options_.gp_seed_rows > 0,
                   "online: gp_seed_rows must be > 0");
  CCPRED_CHECK_MSG(options_.gp_refit_cadence > 0,
                   "online: gp_refit_cadence must be > 0");
  CCPRED_CHECK_MSG(options_.min_improvement >= 0.0 &&
                       options_.min_improvement < 1.0,
                   "online: min_improvement must be in [0, 1)");
}

OnlineTrainer::Stream& OnlineTrainer::stream(const std::string& machine,
                                             const std::string& kind) {
  const std::string key = machine + "/" + kind;
  const std::lock_guard<std::mutex> lock(streams_mutex_);
  auto it = streams_.find(key);
  if (it == streams_.end()) {
    it = streams_.emplace(key, std::make_unique<Stream>(options_)).first;
  }
  return *it->second;
}

void OnlineTrainer::absorb_into_gp_locked(
    Stream& s, const std::vector<MeasuredRun>& batch) {
  std::vector<MeasuredRun> added;
  for (const MeasuredRun& run : batch) {
    if (s.gp_rows.size() >= options_.gp_max_rows) break;
    s.gp_rows.push_back(run);
    added.push_back(run);
  }
  if (added.empty()) return;
  if (!s.gp.is_fitted()) {
    if (s.gp_rows.size() >= options_.gp_seed_rows) {
      const auto [x, y] = xy_of(s.gp_rows);
      s.gp.fit(x, y);
    }
    return;
  }
  // Hot path: O(n^2 q) Cholesky extension instead of an O(n^3) refit.
  const auto [x, y] = xy_of(added);
  s.gp.update(x, y);
  incremental_updates_.fetch_add(1, std::memory_order_relaxed);
  if (++s.gp_batches % options_.gp_refit_cadence == 0) {
    // Cadence full refit re-anchors the frozen scalers/hyper-parameters,
    // exactly like the AL loop's refit_cadence.
    const auto [ax, ay] = xy_of(s.gp_rows);
    s.gp.fit(ax, ay);
  }
}

ReportOutcome OnlineTrainer::ingest(const std::string& machine,
                                    const std::string& kind,
                                    const sim::RunConfig& cfg,
                                    const std::vector<double>& wall_times) {
  if (fault_ != nullptr) fault_->maybe_delay(FaultPoint::kReportIngest);
  reports_.fetch_add(1, std::memory_order_relaxed);
  measurements_.fetch_add(wall_times.size(), std::memory_order_relaxed);

  // Score the reported configuration with the model that is serving right
  // now — the drift signal compares what users were told to what they got.
  const ModelHandle handle = registry_.get(machine, kind);
  const double predicted =
      handle.model->predict_one({static_cast<double>(cfg.o),
                                 static_cast<double>(cfg.v),
                                 static_cast<double>(cfg.nodes),
                                 static_cast<double>(cfg.tile)});

  ReportOutcome out;
  out.model_version = handle.version;
  Stream& s = stream(machine, kind);
  bool do_refit = false;
  {
    const std::lock_guard<std::mutex> lock(s.mutex);
    std::vector<MeasuredRun> accepted;
    for (const double wall : wall_times) {
      MeasuredRun run{cfg.o,     cfg.v,     cfg.nodes,      cfg.tile,
                      wall,      predicted, handle.version, 0};
      switch (s.buffer.add(run)) {
        case AddResult::kAccepted:
          s.drift.observe(predicted, wall);
          accepted.push_back(run);
          ++out.accepted;
          break;
        case AddResult::kDuplicate:
          ++out.duplicates;
          duplicates_.fetch_add(1, std::memory_order_relaxed);
          break;
        case AddResult::kRejected:
          ++out.rejected;
          rejected_.fetch_add(1, std::memory_order_relaxed);
          break;
      }
    }
    absorb_into_gp_locked(s, accepted);
    out.buffered = s.buffer.size();
    out.rolling_mape = s.drift.rolling_mape();
    out.drifting = s.drift.drifting();
    if (out.drifting && !s.was_drifting) {
      drift_events_.fetch_add(1, std::memory_order_relaxed);
    }
    s.was_drifting = out.drifting;

    const std::uint64_t total = s.buffer.accepted();
    bool want = false;
    if (total >= options_.min_refit_rows) {
      if (out.drifting) {
        want = true;
      } else if (options_.refit_interval > 0 &&
                 total - s.accepted_at_last_refit >= options_.refit_interval) {
        want = true;
      }
    }
    if (want && !s.refit_inflight) {
      s.refit_inflight = true;
      s.accepted_at_last_refit = total;
      out.refit_scheduled = true;
      do_refit = true;
    }
  }

  if (do_refit) {
    if (options_.synchronous) {
      run_refit(machine, kind);
    } else {
      {
        const std::lock_guard<std::mutex> lock(idle_mutex_);
        ++refits_inflight_;
      }
      refit_pool_.post([this, machine, kind] {
        run_refit(machine, kind);  // never throws
        {
          const std::lock_guard<std::mutex> lock(idle_mutex_);
          --refits_inflight_;
        }
        idle_cv_.notify_all();
      });
    }
  }
  return out;
}

const data::Dataset& OnlineTrainer::campaign(const std::string& machine) {
  const std::lock_guard<std::mutex> lock(campaigns_mutex_);
  auto it = campaigns_.find(machine);
  if (it == campaigns_.end()) {
    const auto simulator = simulator_for(machine);
    data::GeneratorOptions gen;
    gen.seed = registry_.options().fallback_seed;
    gen.target_total = registry_.options().fallback_rows;
    it = campaigns_
             .emplace(machine,
                      data::generate_dataset(
                          simulator,
                          data::problems_for(simulator.machine().name), gen))
             .first;
  }
  return it->second;
}

void OnlineTrainer::run_refit(const std::string& machine,
                              const std::string& kind) {
  Stream& s = stream(machine, kind);
  try {
    if (fault_ != nullptr) fault_->maybe_delay(FaultPoint::kRefitStall);
    const std::vector<MeasuredRun> rows = s.buffer.snapshot();
    const std::size_t holdout_n = std::min(options_.holdout, rows.size() / 2);
    if (rows.size() >= options_.min_refit_rows && holdout_n > 0) {
      // The newest rows judge; everything older trains. The candidate
      // never sees its own holdout, so a win means generalization to the
      // current regime, not memorization.
      const std::vector<MeasuredRun> holdout(
          rows.end() - static_cast<std::ptrdiff_t>(holdout_n), rows.end());
      const std::vector<MeasuredRun> train(
          rows.begin(), rows.end() - static_cast<std::ptrdiff_t>(holdout_n));

      std::size_t n = train.size() * options_.feedback_weight;
      const data::Dataset* camp = nullptr;
      linalg::Matrix campaign_x;
      if (options_.use_campaign) {
        camp = &campaign(machine);
        campaign_x = camp->features();
        n += camp->size();
      }
      linalg::Matrix x(n, data::kNumFeatures);
      std::vector<double> y;
      y.reserve(n);
      std::size_t r = 0;
      if (camp != nullptr) {
        for (std::size_t i = 0; i < camp->size(); ++i, ++r) {
          for (std::size_t c = 0; c < data::kNumFeatures; ++c) {
            x(r, c) = campaign_x(i, c);
          }
          y.push_back(camp->targets()[i]);
        }
      }
      for (const MeasuredRun& run : train) {
        for (std::size_t w = 0; w < options_.feedback_weight; ++w, ++r) {
          x(r, data::kFeatO) = run.o;
          x(r, data::kFeatV) = run.v;
          x(r, data::kFeatNodes) = run.nodes;
          x(r, data::kFeatTile) = run.tile;
          y.push_back(run.wall_time_s);
        }
      }

      const RegistryOptions& reg = registry_.options();
      std::unique_ptr<ml::Regressor> candidate;
      std::function<void(const std::string&)> save;
      if (kind == "gb") {
        auto gb =
            std::make_unique<ml::GradientBoostingRegressor>(reg.gb_estimators);
        save = [model = gb.get()](const std::string& p) {
          ml::save_gb(*model, p);
        };
        candidate = std::move(gb);
      } else {
        auto rf =
            std::make_unique<ml::RandomForestRegressor>(reg.rf_estimators);
        save = [model = rf.get()](const std::string& p) {
          ml::save_rf(*model, p);
        };
        candidate = std::move(rf);
      }
      candidate->fit(x, y);
      refits_.fetch_add(1, std::memory_order_relaxed);

      const ModelHandle incumbent = registry_.get(machine, kind);
      const ShadowVerdict verdict = ShadowEvaluator::judge(
          *candidate, *incumbent.model, holdout, options_.min_improvement);
      shadow_evals_.fetch_add(1, std::memory_order_relaxed);

      if (verdict.promote) {
        if (fault_ != nullptr) {
          fault_->maybe_delay(FaultPoint::kPromotionRace);
        }
        const std::lock_guard<std::mutex> publish(promote_mutex_);
        const std::string path = registry_.artifact_path(machine, kind);
        const std::string tmp = path + ".promote";
        save(tmp);
        std::filesystem::rename(tmp, path);  // atomic swap, same directory
        registry_.note_published(machine, kind);
        // Load the promoted artifact now, so the very next request serves
        // it (and pays no reload latency), then drop the sweeps computed
        // under the replaced version.
        registry_.get(machine, kind);
        if (cache_ != nullptr) {
          cache_invalidated_.fetch_add(cache_->invalidate(machine, kind),
                                       std::memory_order_relaxed);
        }
        {
          const std::lock_guard<std::mutex> lock(s.mutex);
          s.drift.reset();
          s.was_drifting = false;
        }
        promotions_.fetch_add(1, std::memory_order_relaxed);
      } else {
        promotions_rejected_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  } catch (...) {
    // A failed refit or promotion leaves the incumbent serving; feedback
    // keeps accumulating and the next trigger tries again.
  }
  const std::lock_guard<std::mutex> lock(s.mutex);
  s.refit_inflight = false;
}

OnlineStats OnlineTrainer::counters() const {
  OnlineStats c;
  c.reports = reports_.load(std::memory_order_relaxed);
  c.measurements = measurements_.load(std::memory_order_relaxed);
  c.duplicates = duplicates_.load(std::memory_order_relaxed);
  c.rejected = rejected_.load(std::memory_order_relaxed);
  c.drift_events = drift_events_.load(std::memory_order_relaxed);
  c.incremental_updates =
      incremental_updates_.load(std::memory_order_relaxed);
  c.refits = refits_.load(std::memory_order_relaxed);
  c.shadow_evals = shadow_evals_.load(std::memory_order_relaxed);
  c.promotions = promotions_.load(std::memory_order_relaxed);
  c.promotions_rejected =
      promotions_rejected_.load(std::memory_order_relaxed);
  c.cache_invalidated = cache_invalidated_.load(std::memory_order_relaxed);
  const std::lock_guard<std::mutex> lock(streams_mutex_);
  for (const auto& [key, s] : streams_) {
    c.buffered += s->buffer.size();
    const std::lock_guard<std::mutex> stream_lock(s->mutex);
    c.rolling_mape = std::max(c.rolling_mape, s->drift.rolling_mape());
  }
  return c;
}

void OnlineTrainer::wait_idle() {
  std::unique_lock<std::mutex> lock(idle_mutex_);
  idle_cv_.wait(lock, [this] { return refits_inflight_ == 0; });
}

}  // namespace ccpred::serve::online
