#include "ccpred/serve/online/online_trainer.hpp"

#include <algorithm>
#include <utility>

#include "ccpred/common/error.hpp"
#include "ccpred/core/gradient_boosting.hpp"
#include "ccpred/core/random_forest.hpp"
#include "ccpred/data/generator.hpp"
#include "ccpred/data/problems.hpp"

namespace ccpred::serve::online {

OnlineTrainer::OnlineTrainer(ModelRegistry& registry, SweepCache* cache,
                             OnlineOptions options, FaultInjector* fault)
    : registry_(registry),
      cache_(cache),
      options_(options),
      fault_(fault) {
  // Check the drift options now, not when the first report opens a stream.
  const DriftDetector probe(options_.drift);
  CCPRED_CHECK_MSG(options_.min_refit_rows > 0,
                   "online: min_refit_rows must be > 0");
  CCPRED_CHECK_MSG(options_.holdout > 0, "online: holdout must be > 0");
  CCPRED_CHECK_MSG(options_.feedback_weight > 0,
                   "online: feedback_weight must be > 0");
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
    for (const double wall : wall_times) {
      switch (s.buffer.add({cfg.o, cfg.v, cfg.nodes, cfg.tile, wall})) {
        case AddResult::kAccepted:
          s.drift.observe(predicted, wall);
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
    out.buffered = s.buffer.size();
    out.rolling_mape = s.drift.rolling_mape();
    out.drifting = s.drift.drifting();
    if (out.drifting && !s.was_drifting) {
      drift_events_.fetch_add(1, std::memory_order_relaxed);
    }
    s.was_drifting = out.drifting;

    if (out.drifting && s.buffer.accepted() >= options_.min_refit_rows &&
        !s.refit_inflight) {
      s.refit_inflight = true;
      out.refit_scheduled = true;
      do_refit = true;
    }
  }

  if (do_refit) {
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

      const data::Dataset& camp = campaign(machine);
      const linalg::Matrix campaign_x = camp.features();
      const std::size_t n =
          camp.size() + train.size() * options_.feedback_weight;
      linalg::Matrix x(n, data::kNumFeatures);
      std::vector<double> y;
      y.reserve(n);
      std::size_t r = 0;
      for (std::size_t i = 0; i < camp.size(); ++i, ++r) {
        for (std::size_t c = 0; c < data::kNumFeatures; ++c) {
          x(r, c) = campaign_x(i, c);
        }
        y.push_back(camp.targets()[i]);
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
      if (kind == "gb") {
        candidate =
            std::make_unique<ml::GradientBoostingRegressor>(reg.gb_estimators);
      } else {
        candidate =
            std::make_unique<ml::RandomForestRegressor>(reg.rf_estimators);
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
        const std::lock_guard<std::mutex> promote(promote_mutex_);
        // One streamed write, and the candidate itself serves the very
        // next request (no reload); then drop the sweeps computed under
        // the replaced version.
        registry_.publish(machine, kind, std::move(candidate));
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
