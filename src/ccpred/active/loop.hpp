#pragma once

/// \file loop.hpp
/// The active-learning driver of Algorithms 1 and 2: start from a small
/// random labeled set, iterate fit -> evaluate -> query -> label, and
/// record the learning curve. With a goal (STQ/BQ), each round also
/// evaluates the true-loss quality of the predicted optimal configurations
/// on the held-out test set.

#include <optional>
#include <string>
#include <vector>

#include "ccpred/active/strategy.hpp"
#include "ccpred/core/metrics.hpp"
#include "ccpred/data/dataset.hpp"
#include "ccpred/guidance/optimal.hpp"

namespace ccpred::al {

/// Loop configuration; defaults follow Algorithm 1/2 (n_initial 50,
/// query_size 50; US runs 20 rounds, QC runs 10).
struct ActiveLearningOptions {
  std::size_t n_initial = 50;
  std::size_t query_size = 50;
  int n_queries = 20;
  std::uint64_t seed = 11;
  /// When set, each round also answers the goal question on the test set
  /// and records the true-loss scores (§3.4).
  std::optional<guide::Objective> goal;
};

/// One round of the learning curve.
struct RoundRecord {
  std::size_t labeled_count = 0;       ///< labels after this round's fit
  ml::Scores train_scores;             ///< model vs the full train set
  std::optional<ml::Scores> goal_losses;  ///< STQ/BQ true losses (test set)
};

/// Full learning curve for one (strategy, model) pair.
struct ActiveLearningResult {
  std::string strategy;
  std::string model;
  std::vector<RoundRecord> rounds;
};

/// Runs the loop: `prototype` is cloned and refit each round on the
/// labeled rows of `train`; `strategy` picks the next queries. The test
/// set is only used for goal evaluation, never for querying.
ActiveLearningResult run_active_learning(const data::Dataset& train,
                                         const data::Dataset& test,
                                         const ml::Regressor& prototype,
                                         QueryStrategy& strategy,
                                         const ActiveLearningOptions& options);

}  // namespace ccpred::al
