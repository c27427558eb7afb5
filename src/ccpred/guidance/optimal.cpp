#include "ccpred/guidance/optimal.hpp"

#include "ccpred/common/error.hpp"
#include "ccpred/exec/parallel_for.hpp"
#include "ccpred/sim/sim_engine.hpp"

namespace ccpred::guide {
namespace {

/// Deterministic argmin order: objective value, then lowest nodes, then
/// smallest tile. Ties on all three keep the incumbent (lower row).
bool better_choice(double value, const sim::RunConfig& cfg,
                   double best_value, const sim::RunConfig& best_cfg) {
  if (value != best_value) return value < best_value;
  if (cfg.nodes != best_cfg.nodes) return cfg.nodes < best_cfg.nodes;
  return cfg.tile < best_cfg.tile;
}

}  // namespace

double objective_value(const data::Dataset& dataset,
                       const std::vector<double>& y, std::size_t i,
                       Objective objective) {
  CCPRED_CHECK(i < dataset.size() && y.size() == dataset.size());
  switch (objective) {
    case Objective::kShortestTime:
      return y[i];
    case Objective::kNodeHours:
      return sim::CcsdSimulator::node_hours(dataset.config(i), y[i]);
  }
  throw Error("unknown objective");
}

std::vector<ProblemSweep> sweep_optimal_values(const data::Dataset& dataset,
                                               const std::vector<double>& y,
                                               Objective objective) {
  CCPRED_CHECK_MSG(y.size() == dataset.size(), "y size mismatch");
  std::vector<std::pair<std::pair<int, int>, std::vector<std::size_t>>> groups;
  for (auto& [key, rows] : dataset.group_by_problem()) {
    groups.emplace_back(key, std::move(rows));
  }

  std::vector<ProblemSweep> out(groups.size());
  const auto sweep_one = [&](std::size_t gi) {
    const auto& [key, rows] = groups[gi];
    ProblemSweep& sw = out[gi];
    sw.o = key.first;
    sw.v = key.second;
    sw.rows = rows;
    sw.values.reserve(rows.size());
    bool first = true;
    for (const auto r : rows) {
      const double value = objective_value(dataset, y, r, objective);
      sw.values.push_back(value);
      if (first || better_choice(value, dataset.config(r), sw.best.value,
                                 sw.best.config)) {
        sw.best.o = sw.o;
        sw.best.v = sw.v;
        sw.best.row = r;
        sw.best.config = dataset.config(r);
        sw.best.value = value;
        first = false;
      }
    }
  };
  // Each group writes only its own sweep slot, so the fan-out is
  // order-independent (the determinism suite shuffles it).
  if (groups.size() >= 8) {
    exec::parallel_for(0, groups.size(), sweep_one);
  } else {
    for (std::size_t gi = 0; gi < groups.size(); ++gi) sweep_one(gi);
  }
  return out;
}

std::vector<OptimalChoice> get_optimal_values(const data::Dataset& dataset,
                                              const std::vector<double>& y,
                                              Objective objective) {
  const auto sweeps = sweep_optimal_values(dataset, y, objective);
  std::vector<OptimalChoice> out;
  out.reserve(sweeps.size());
  for (const auto& sw : sweeps) out.push_back(sw.best);
  return out;
}

namespace {

std::vector<ProblemOutcome> evaluate_from(
    const data::Dataset& dataset, Objective objective,
    const std::vector<OptimalChoice>& truths,
    const std::vector<OptimalChoice>& preds) {
  CCPRED_CHECK(truths.size() == preds.size());
  std::vector<ProblemOutcome> out;
  out.reserve(truths.size());
  for (std::size_t i = 0; i < truths.size(); ++i) {
    CCPRED_CHECK(truths[i].o == preds[i].o && truths[i].v == preds[i].v);
    ProblemOutcome po;
    po.o = truths[i].o;
    po.v = truths[i].v;
    po.truth = truths[i];
    po.predicted = preds[i];
    po.true_value = truths[i].value;
    // True-loss semantics: look up the TRUE target at the predicted row.
    po.realized_value = objective_value(dataset, dataset.targets(),
                                        preds[i].row, objective);
    po.true_time = dataset.target(truths[i].row);
    po.realized_time = dataset.target(preds[i].row);
    po.config_match = truths[i].config.nodes == preds[i].config.nodes &&
                      truths[i].config.tile == preds[i].config.tile;
    out.push_back(po);
  }
  return out;
}

}  // namespace

std::vector<ProblemOutcome> evaluate_optima(const data::Dataset& dataset,
                                            const std::vector<double>& y_pred,
                                            Objective objective) {
  return evaluate_from(dataset, objective,
                       get_optimal_values(dataset, dataset.targets(), objective),
                       get_optimal_values(dataset, y_pred, objective));
}

std::vector<ProblemOutcome> evaluate_optima(
    const data::Dataset& dataset, const std::vector<double>& y_pred,
    Objective objective, const std::vector<ProblemSweep>& true_sweeps) {
  std::vector<OptimalChoice> truths;
  truths.reserve(true_sweeps.size());
  for (const auto& sw : true_sweeps) truths.push_back(sw.best);
  return evaluate_from(dataset, objective, truths,
                       get_optimal_values(dataset, y_pred, objective));
}

std::vector<TrueOptimaSweep> true_optima_sweeps(
    const sim::CcsdSimulator& simulator,
    const std::vector<data::Problem>& problems, Objective objective) {
  CCPRED_CHECK_MSG(!problems.empty(), "need at least one problem");
  const auto nodes = simulator.machine().node_menu();
  const auto tiles = simulator.machine().tile_menu();

  // Enumerate every feasible menu configuration of every problem, then
  // simulate them all in one batch, which reuses one task graph per
  // (O, V, tile) across the node menu and fans the work over the shared
  // pool.
  std::vector<TrueOptimaSweep> out(problems.size());
  std::vector<sim::RunConfig> batch;
  for (std::size_t pi = 0; pi < problems.size(); ++pi) {
    out[pi].o = problems[pi].o;
    out[pi].v = problems[pi].v;
    for (const int n : nodes) {
      for (const int t : tiles) {
        const sim::RunConfig cfg{
            .o = problems[pi].o, .v = problems[pi].v, .nodes = n, .tile = t};
        if (!simulator.feasible(cfg)) continue;
        out[pi].points.push_back(TrueSweepPoint{.config = cfg});
        batch.push_back(cfg);
      }
    }
    CCPRED_CHECK_MSG(!out[pi].points.empty(),
                     "no feasible menu configuration for O="
                         << problems[pi].o << " V=" << problems[pi].v);
  }

  const std::vector<double> times = sim::simulate_batch(simulator, batch);
  std::size_t cursor = 0;
  for (auto& sweep : out) {
    bool first = true;
    for (auto& pt : sweep.points) {
      pt.time_s = times[cursor++];
      pt.value = objective == Objective::kShortestTime
                     ? pt.time_s
                     : sim::CcsdSimulator::node_hours(pt.config, pt.time_s);
      if (first || better_choice(pt.value, pt.config, sweep.best.value,
                                 sweep.best.config)) {
        sweep.best = pt;
        first = false;
      }
    }
  }
  return out;
}

ml::Scores compute_losses(const std::vector<ProblemOutcome>& outcomes) {
  CCPRED_CHECK_MSG(!outcomes.empty(), "no outcomes to score");
  std::vector<double> truth;
  std::vector<double> realized;
  truth.reserve(outcomes.size());
  realized.reserve(outcomes.size());
  for (const auto& po : outcomes) {
    truth.push_back(po.true_value);
    realized.push_back(po.realized_value);
  }
  return ml::score_all(truth, realized);
}

}  // namespace ccpred::guide
