#include "ccpred/active/loop.hpp"

#include "ccpred/common/error.hpp"

namespace ccpred::al {

ActiveLearningResult run_active_learning(
    const data::Dataset& train, const data::Dataset& test,
    const ml::Regressor& prototype, QueryStrategy& strategy,
    const ActiveLearningOptions& options) {
  CCPRED_CHECK_MSG(options.n_queries >= 1, "need at least one round");
  CCPRED_CHECK_MSG(!train.empty(), "empty train pool");
  CCPRED_CHECK_MSG(!options.goal || !test.empty(),
                   "goal evaluation needs a test set");

  Rng rng(options.seed);
  Pool pool(train, options.n_initial, rng);

  const linalg::Matrix x_train_full = train.features();
  const auto& y_train_full = train.targets();
  const linalg::Matrix x_test = test.empty() ? linalg::Matrix() : test.features();

  ActiveLearningResult result;
  result.strategy = strategy.name();
  result.model = prototype.name();

  // The test set's true objective sweep never changes across rounds —
  // compute it once and reuse it in every goal evaluation.
  std::vector<guide::ProblemSweep> true_sweeps;
  if (options.goal) {
    true_sweeps =
        guide::sweep_optimal_values(test, test.targets(), *options.goal);
  }

  for (int round = 0; round < options.n_queries; ++round) {
    const std::unique_ptr<ml::Regressor> model = prototype.clone();
    model->fit(pool.labeled_features(), pool.labeled_targets());

    RoundRecord record;
    record.labeled_count = pool.labeled().size();
    record.train_scores =
        ml::score_all(y_train_full, model->predict(x_train_full));

    if (options.goal) {
      // True-loss goal evaluation: locate predicted optima on the test set
      // and score them at their true targets (§3.4).
      const auto y_pred = model->predict(x_test);
      const auto outcomes =
          guide::evaluate_optima(test, y_pred, *options.goal, true_sweeps);
      record.goal_losses = guide::compute_losses(outcomes);
    }
    result.rounds.push_back(record);

    if (pool.unlabeled().empty()) break;
    auto queries = strategy.select(pool, *model, options.query_size, rng);
    if (queries.empty()) break;
    pool.label_positions(std::move(queries));
  }
  return result;
}

}  // namespace ccpred::al
