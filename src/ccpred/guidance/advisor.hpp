#pragma once

/// \file advisor.hpp
/// The user-facing question answerer (§3.3): given a trained runtime model
/// and a problem size (O, V), sweep candidate (nodes, tile) configurations,
/// predict each, and recommend the argmin under the requested objective —
/// exactly the iterative-querying procedure the paper describes.

#include <memory>
#include <vector>

#include "ccpred/core/regressor.hpp"
#include "ccpred/guidance/optimal.hpp"
#include "ccpred/sim/ccsd_simulator.hpp"

namespace ccpred::guide {

/// One swept candidate with its prediction.
struct SweepPoint {
  sim::RunConfig config;
  double predicted_time_s = 0.0;
  double predicted_node_hours = 0.0;
};

/// The (time, node-hours) Pareto frontier of a sweep: configurations not
/// dominated in both predicted time and predicted cost, sorted by
/// ascending predicted time. Everything a user should consider lies here.
std::vector<SweepPoint> pareto_front(const std::vector<SweepPoint>& sweep);

/// A recommendation for one user question.
struct Recommendation {
  sim::RunConfig config;          ///< recommended (O, V, nodes, tile)
  double predicted_time_s = 0.0;
  double predicted_node_hours = 0.0;
  Objective objective = Objective::kShortestTime;
  std::vector<SweepPoint> sweep;  ///< the full swept grid, for inspection
};

/// Answers STQ/BQ queries by sweeping a trained model over candidate
/// configurations.
class Advisor {
 public:
  /// `model` must already be fitted on <O, V, nodes, tile> -> time rows.
  /// `simulator` supplies the candidate node/tile menus and feasibility
  /// (its machine model only — no oracle times are consulted).
  Advisor(const ml::Regressor& model, const sim::CcsdSimulator& simulator);

  /// Recommends the configuration minimizing the objective for (o, v).
  /// Sweeps the machine's node menu clipped to memory feasibility and the
  /// full tile menu with one model predict over the whole grid. Throws
  /// ccpred::Error when (o, v) has no feasible configuration or when the
  /// model's sweep is corrupt (see from_sweep).
  Recommendation recommend(int o, int v, Objective objective) const;

  /// Shortest-time question.
  Recommendation shortest_time(int o, int v) const {
    return recommend(o, v, Objective::kShortestTime);
  }

  /// Budget question (minimum node-hours).
  Recommendation cheapest_run(int o, int v) const {
    return recommend(o, v, Objective::kNodeHours);
  }

  /// Constrained question: the fastest predicted configuration whose
  /// predicted cost stays within `max_node_hours`. Throws ccpred::Error if
  /// no feasible configuration fits the budget (the cheapest_run answer
  /// tells the user the minimum budget needed). Delegates to the sweep
  /// overload below after one recommend() sweep.
  Recommendation fastest_within_budget(int o, int v,
                                       double max_node_hours) const;

  /// Same question answered from an already-computed sweep (any objective):
  /// no model predictions are re-run, so callers holding a cached
  /// Recommendation (e.g. the serving layer) answer budget queries for
  /// free. Throws ccpred::Error if nothing fits the budget or if the sweep
  /// is corrupt (see from_sweep).
  static Recommendation fastest_within_budget(const Recommendation& base,
                                              double max_node_hours);

  /// Re-derives the argmin for `objective` from an existing sweep without
  /// re-predicting — the sweep is objective-independent, only the winner
  /// changes. Throws ccpred::Error on an empty sweep or on a corrupt one:
  /// any predicted time or cost that is NaN, infinite, zero or negative.
  /// A corrupt sweep fails the whole question rather than dropping the bad
  /// cells, so a broken model is noticed instead of quietly answering from
  /// the cells that survive; the serving layer answers code="internal" and
  /// caches nothing.
  static Recommendation from_sweep(std::vector<SweepPoint> sweep,
                                   Objective objective);

  /// The argmin point from_sweep would pick, without materializing a
  /// Recommendation (and so without copying the swept grid). Same
  /// validation and tie-breaking as from_sweep; the serving layer's batch
  /// lane uses this to answer BQ members straight off a cached sweep.
  static const SweepPoint& pick_best(const std::vector<SweepPoint>& sweep,
                                     Objective objective);

  /// The point fastest_within_budget would pick from `base`, without
  /// copying the grid. Same validation and error text.
  static const SweepPoint& pick_within_budget(const Recommendation& base,
                                              double max_node_hours);

 private:
  const ml::Regressor& model_;
  const sim::CcsdSimulator& simulator_;
};

}  // namespace ccpred::guide
