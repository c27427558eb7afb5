#pragma once

/// \file optimal.hpp
/// get_optimal_values / compute_losses (paper §3.4): per problem size, the
/// configuration minimizing an objective, and the *true-loss* evaluation of
/// predicted optima — the loss of a predicted configuration is its TRUE
/// measured value, not the model's predicted value (the paper's bold
/// caveat: anything else under-reports the loss). The exhaustive
/// true-optima sweep over a machine's menu is one batched simulation per
/// call (sim::simulate_batch).

#include <vector>

#include "ccpred/core/metrics.hpp"
#include "ccpred/data/dataset.hpp"
#include "ccpred/data/problems.hpp"
#include "ccpred/sim/ccsd_simulator.hpp"

namespace ccpred::guide {

/// User objective: STQ minimizes wall time, BQ minimizes node-hours.
enum class Objective {
  kShortestTime,  ///< STQ
  kNodeHours,     ///< BQ
};

/// Objective value of dataset row `i` given (possibly predicted) times `y`.
double objective_value(const data::Dataset& dataset,
                       const std::vector<double>& y, std::size_t i,
                       Objective objective);

/// The winning row for one problem size.
struct OptimalChoice {
  int o = 0;
  int v = 0;
  std::size_t row = 0;        ///< dataset row index of the optimum
  sim::RunConfig config;      ///< its (nodes, tile)
  double value = 0.0;         ///< objective value used for the argmin
};

/// Full objective sweep of one problem size: every dataset row of the
/// problem with its objective value, plus the argmin. Callers that need
/// both the winner and the surface (STQ/BQ tables, AL loss evaluation)
/// take the sweep once instead of recomputing it per use.
struct ProblemSweep {
  int o = 0;
  int v = 0;
  std::vector<std::size_t> rows;   ///< dataset row indices (grouping order)
  std::vector<double> values;      ///< objective value per row
  OptimalChoice best;              ///< the sweep's argmin
};

/// Per problem size (ascending), the full objective sweep of `dataset`
/// under `y` (pass dataset.targets() for true sweeps or model predictions
/// for predicted sweeps). Problems are swept in parallel over the shared
/// ThreadPool; results are deterministic. Ties break deterministically:
/// lowest nodes first, then smallest tile.
std::vector<ProblemSweep> sweep_optimal_values(const data::Dataset& dataset,
                                               const std::vector<double>& y,
                                               Objective objective);

/// The argmins of sweep_optimal_values (same tie-break rules).
std::vector<OptimalChoice> get_optimal_values(const data::Dataset& dataset,
                                              const std::vector<double>& y,
                                              Objective objective);

/// True-vs-predicted optimum for one problem size.
struct ProblemOutcome {
  int o = 0;
  int v = 0;
  OptimalChoice truth;          ///< argmin under true values
  OptimalChoice predicted;      ///< argmin under predicted values
  double true_value = 0.0;      ///< objective at truth.row (true y)
  double realized_value = 0.0;  ///< TRUE objective at predicted.row
  double true_time = 0.0;       ///< wall time at truth.row
  double realized_time = 0.0;   ///< TRUE wall time at predicted.row
  bool config_match = false;    ///< same (nodes, tile)?
};

/// Evaluates predicted optima with true-loss semantics: the predicted
/// configuration is located with `y_pred`, then scored at its *true*
/// target. `y_pred` must be predictions for the rows of `dataset`.
std::vector<ProblemOutcome> evaluate_optima(const data::Dataset& dataset,
                                            const std::vector<double>& y_pred,
                                            Objective objective);

/// Same, but reuses precomputed true sweeps (from sweep_optimal_values on
/// dataset.targets()) instead of recomputing them — this is what lets the
/// AL loop and the STQ/BQ tables sweep the truth once per dataset rather
/// than once per evaluation round.
std::vector<ProblemOutcome> evaluate_optima(
    const data::Dataset& dataset, const std::vector<double>& y_pred,
    Objective objective, const std::vector<ProblemSweep>& true_sweeps);

/// One point of a model-free exhaustive sweep: a feasible configuration
/// with its noise-free simulated time and objective value.
struct TrueSweepPoint {
  sim::RunConfig config;
  double time_s = 0.0;
  double value = 0.0;
};

/// Exhaustive true-optima sweep of one problem over the machine's full
/// (node menu x tile menu) grid.
struct TrueOptimaSweep {
  int o = 0;
  int v = 0;
  std::vector<TrueSweepPoint> points;  ///< menu order (nodes, then tile)
  TrueSweepPoint best;                 ///< argmin (lowest nodes, then tile)
};

/// The paper's exhaustive ground-truth sweep (§3.4): simulates every
/// feasible menu configuration of every problem in one
/// sim::simulate_batch (task-graph reuse + pool fan-out) and returns the
/// per-problem surfaces with their true optima. Each call simulates its
/// grid afresh; nothing is remembered between calls.
std::vector<TrueOptimaSweep> true_optima_sweeps(
    const sim::CcsdSimulator& simulator,
    const std::vector<data::Problem>& problems, Objective objective);

/// Paper-style losses over the outcomes: R^2 / MAE / MAPE between the true
/// optimal objective values and the realized (true-at-predicted-config)
/// values.
ml::Scores compute_losses(const std::vector<ProblemOutcome>& outcomes);

}  // namespace ccpred::guide
