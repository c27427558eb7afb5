#include "ccpred/core/random_forest.hpp"

#include <cmath>

#include "ccpred/common/error.hpp"
#include "ccpred/core/compiled_ensemble.hpp"
#include "ccpred/exec/parallel_for.hpp"

namespace ccpred::ml {

RandomForestRegressor::RandomForestRegressor(int n_estimators,
                                             TreeOptions tree_options,
                                             bool bootstrap,
                                             std::uint64_t seed)
    : n_estimators_(n_estimators),
      tree_options_(tree_options),
      bootstrap_(bootstrap),
      seed_(seed) {
  CCPRED_CHECK_MSG(n_estimators > 0, "n_estimators must be > 0");
}

void RandomForestRegressor::fit(const linalg::Matrix& x,
                                const std::vector<double>& y) {
  CCPRED_CHECK_MSG(x.rows() == y.size(), "X/y row mismatch");
  CCPRED_CHECK_MSG(x.rows() > 0, "cannot fit on empty data");
  CompiledEnsemble::check_width(x.cols(), "RF fit");

  // The fit builds into locals and commits at the end, so a fit that
  // throws (a non-finite feature) leaves the forest as it was.
  const auto n = static_cast<std::size_t>(n_estimators_);
  std::vector<CompiledEnsemble::Tree> trees(n);
  // Pre-derive per-tree bootstrap seeds so parallel training is
  // deterministic.
  Rng seeder(seed_);
  std::vector<std::uint64_t> tree_seeds(n);
  for (auto& s : tree_seeds) s = seeder.next();

  // Rank the features once, shared read-only by all members.
  const FeatureRanks ranks = FeatureRanks::build(x);
  std::vector<std::size_t> all_rows;
  if (!bootstrap_) {
    all_rows.resize(x.rows());
    for (std::size_t i = 0; i < all_rows.size(); ++i) all_rows[i] = i;
  }

  // Fan-out: each member is fitted and compiled into its slot inside its
  // own task. Per-tree randomness derives only from tree_seeds[t], so the
  // result is independent of chunking and iteration order (the
  // determinism suite shuffles this loop and asserts bit-identical
  // forests).
  exec::parallel_for(0, n, [&](std::size_t t) {
    Rng rng(tree_seeds[t]);
    const std::vector<std::size_t> rows =
        bootstrap_ ? rng.bootstrap_indices(x.rows()) : all_rows;
    DecisionTreeRegressor tree(tree_options_);
    tree.fit_presorted(x, ranks, y, rows);
    trees[t] = CompiledEnsemble::compile_tree(tree.nodes(),
                                              tree.raw_importance());
  });
  compiled_ = from_parts(std::move(trees)).compiled_;
}

const CompiledEnsemble& RandomForestRegressor::compiled() const {
  CCPRED_CHECK_MSG(compiled_ != nullptr,
                   "RandomForestRegressor used before fit");
  return *compiled_;
}

std::size_t RandomForestRegressor::tree_count() const {
  return compiled_ == nullptr ? 0 : compiled_->tree_count();
}

std::vector<double> RandomForestRegressor::predict(
    const linalg::Matrix& x) const {
  return compiled().predict_batch(x);
}

std::vector<double> RandomForestRegressor::feature_importances() const {
  return compiled().feature_importances();
}

RandomForestRegressor RandomForestRegressor::from_parts(
    std::vector<CompiledEnsemble::Tree> trees) {
  CCPRED_CHECK_MSG(!trees.empty(), "from_parts needs at least one tree");
  RandomForestRegressor forest(static_cast<int>(trees.size()));
  forest.compiled_ = std::make_shared<const CompiledEnsemble>(
      CompiledEnsemble::averaged(std::move(trees)));
  return forest;
}

std::unique_ptr<Regressor> RandomForestRegressor::clone() const {
  return std::make_unique<RandomForestRegressor>(n_estimators_, tree_options_,
                                                 bootstrap_, seed_);
}

const std::string& RandomForestRegressor::name() const {
  static const std::string n = "RF";
  return n;
}

void RandomForestRegressor::set_params(const ParamMap& params) {
  for (const auto& [key, value] : params) {
    const int iv = static_cast<int>(std::lround(value));
    if (key == "n_estimators") {
      CCPRED_CHECK_MSG(iv > 0, "n_estimators must be > 0");
      n_estimators_ = iv;
    } else if (key == "bootstrap") {
      bootstrap_ = value != 0.0;
    } else if (key == "max_depth" || key == "min_samples_split" ||
               key == "min_samples_leaf") {
      DecisionTreeRegressor probe(tree_options_);
      probe.set_params({{key, value}});
      tree_options_ = probe.options();
    } else {
      throw Error("RandomForestRegressor: unknown parameter '" + key + "'");
    }
  }
}

}  // namespace ccpred::ml
