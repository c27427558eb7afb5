#include "ccpred/guidance/advisor.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "ccpred/common/error.hpp"

namespace ccpred::guide {

namespace {

/// A NaN/Inf prediction would silently win or lose every comparison below,
/// and a run predicted to take no time (or cost nothing) would win every
/// one, turning one bad model output into a confidently wrong
/// recommendation — reject the sweep instead and name the offending
/// configuration.
void check_sweep_finite(const std::vector<SweepPoint>& sweep) {
  for (const auto& pt : sweep) {
    CCPRED_CHECK_MSG(std::isfinite(pt.predicted_time_s) &&
                         std::isfinite(pt.predicted_node_hours) &&
                         pt.predicted_time_s > 0.0 &&
                         pt.predicted_node_hours > 0.0,
                     "non-finite or non-positive prediction (time="
                         << pt.predicted_time_s
                         << ", node_hours=" << pt.predicted_node_hours
                         << ") for O=" << pt.config.o << " V=" << pt.config.v
                         << " nodes=" << pt.config.nodes
                         << " tile=" << pt.config.tile
                         << "; refusing to recommend from a corrupt sweep");
  }
}

}  // namespace

std::vector<SweepPoint> pareto_front(const std::vector<SweepPoint>& sweep) {
  std::vector<SweepPoint> sorted = sweep;
  std::sort(sorted.begin(), sorted.end(),
            [](const SweepPoint& a, const SweepPoint& b) {
              if (a.predicted_time_s != b.predicted_time_s) {
                return a.predicted_time_s < b.predicted_time_s;
              }
              return a.predicted_node_hours < b.predicted_node_hours;
            });
  std::vector<SweepPoint> front;
  double best_cost = std::numeric_limits<double>::infinity();
  for (const auto& pt : sorted) {
    if (pt.predicted_node_hours < best_cost) {
      front.push_back(pt);
      best_cost = pt.predicted_node_hours;
    }
  }
  return front;
}

Advisor::Advisor(const ml::Regressor& model,
                 const sim::CcsdSimulator& simulator)
    : model_(model), simulator_(simulator) {
  CCPRED_CHECK_MSG(model.is_fitted(), "Advisor needs a fitted model");
}

namespace {

/// Enumerates the feasible (nodes, tile) grid for one problem; throws when
/// nothing fits the machine.
std::vector<sim::RunConfig> feasible_candidates(
    const sim::CcsdSimulator& simulator, int o, int v) {
  CCPRED_CHECK_MSG(o > 0 && v > 0, "orbital counts must be positive");
  std::vector<sim::RunConfig> candidates;
  for (int n : simulator.machine().node_menu()) {
    for (int t : simulator.machine().tile_menu()) {
      const sim::RunConfig cfg{.o = o, .v = v, .nodes = n, .tile = t};
      if (simulator.feasible(cfg)) candidates.push_back(cfg);
    }
  }
  CCPRED_CHECK_MSG(!candidates.empty(), "no feasible configuration for O="
                                            << o << " V=" << v);
  return candidates;
}

/// Predictions -> sweep points for one problem's candidate grid.
std::vector<SweepPoint> sweep_from_predictions(
    const std::vector<sim::RunConfig>& candidates,
    const std::vector<double>& times) {
  std::vector<SweepPoint> sweep;
  sweep.reserve(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    SweepPoint pt;
    pt.config = candidates[i];
    pt.predicted_time_s = times[i];
    pt.predicted_node_hours =
        sim::CcsdSimulator::node_hours(candidates[i], times[i]);
    sweep.push_back(pt);
  }
  return sweep;
}

}  // namespace

Recommendation Advisor::recommend(int o, int v, Objective objective) const {
  const std::vector<sim::RunConfig> candidates =
      feasible_candidates(simulator_, o, v);

  // One batched prediction over the whole sweep.
  linalg::Matrix x(candidates.size(), data::kNumFeatures);
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    x(i, data::kFeatO) = candidates[i].o;
    x(i, data::kFeatV) = candidates[i].v;
    x(i, data::kFeatNodes) = candidates[i].nodes;
    x(i, data::kFeatTile) = candidates[i].tile;
  }
  return from_sweep(sweep_from_predictions(candidates, model_.predict(x)),
                    objective);
}

Recommendation Advisor::from_sweep(std::vector<SweepPoint> sweep,
                                   Objective objective) {
  Recommendation rec;
  rec.objective = objective;
  rec.sweep = std::move(sweep);
  const SweepPoint& pt = pick_best(rec.sweep, objective);
  rec.config = pt.config;
  rec.predicted_time_s = pt.predicted_time_s;
  rec.predicted_node_hours = pt.predicted_node_hours;
  return rec;
}

const SweepPoint& Advisor::pick_best(const std::vector<SweepPoint>& sweep,
                                     Objective objective) {
  CCPRED_CHECK_MSG(!sweep.empty(), "cannot recommend from an empty sweep");
  check_sweep_finite(sweep);
  const SweepPoint* best = nullptr;
  double best_value = 0.0;
  for (const auto& pt : sweep) {
    const double value = objective == Objective::kShortestTime
                             ? pt.predicted_time_s
                             : pt.predicted_node_hours;
    if (best == nullptr || value < best_value) {
      best_value = value;
      best = &pt;
    }
  }
  return *best;
}

Recommendation Advisor::fastest_within_budget(int o, int v,
                                               double max_node_hours) const {
  // One recommend() sweep, then the constraint filter on the cached points.
  return fastest_within_budget(recommend(o, v, Objective::kShortestTime),
                               max_node_hours);
}

Recommendation Advisor::fastest_within_budget(const Recommendation& base,
                                              double max_node_hours) {
  const SweepPoint& pt = pick_within_budget(base, max_node_hours);
  Recommendation rec = base;
  rec.objective = Objective::kShortestTime;
  rec.config = pt.config;
  rec.predicted_time_s = pt.predicted_time_s;
  rec.predicted_node_hours = pt.predicted_node_hours;
  return rec;
}

const SweepPoint& Advisor::pick_within_budget(const Recommendation& base,
                                              double max_node_hours) {
  CCPRED_CHECK_MSG(max_node_hours > 0.0, "budget must be positive");
  check_sweep_finite(base.sweep);
  const SweepPoint* best = nullptr;
  double best_time = 0.0;
  for (const auto& pt : base.sweep) {
    if (pt.predicted_node_hours > max_node_hours) continue;
    if (best == nullptr || pt.predicted_time_s < best_time) {
      best_time = pt.predicted_time_s;
      best = &pt;
    }
  }
  CCPRED_CHECK_MSG(best != nullptr, "no swept configuration for O="
                                        << base.config.o
                                        << " V=" << base.config.v
                                        << " fits within " << max_node_hours
                                        << " node-hours");
  return *best;
}

}  // namespace ccpred::guide
