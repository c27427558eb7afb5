#include "ccpred/core/gradient_boosting.hpp"

#include <cmath>

#include "ccpred/common/error.hpp"
#include "ccpred/core/compiled_ensemble.hpp"

namespace ccpred::ml {

GradientBoostingRegressor::GradientBoostingRegressor(int n_estimators,
                                                     double learning_rate,
                                                     TreeOptions tree_options)
    : n_estimators_(n_estimators),
      learning_rate_(learning_rate),
      tree_options_(tree_options) {
  CCPRED_CHECK_MSG(n_estimators > 0, "n_estimators must be > 0");
  CCPRED_CHECK_MSG(learning_rate > 0.0 && learning_rate <= 1.0,
                   "learning_rate must be in (0, 1]");
}

void GradientBoostingRegressor::fit(const linalg::Matrix& x,
                                    const std::vector<double>& y) {
  CCPRED_CHECK_MSG(x.rows() == y.size(), "X/y row mismatch");
  CCPRED_CHECK_MSG(x.rows() > 0, "cannot fit on empty data");
  CompiledEnsemble::check_width(x.cols(), "GB fit");
  const std::size_t n = x.rows();

  // The fit builds into locals and commits at the end, so a fit that
  // throws (a non-finite feature) leaves the model as it was.
  double base_prediction = 0.0;
  for (double v : y) base_prediction += v;
  base_prediction /= static_cast<double>(n);

  std::vector<double> residual(n);
  for (std::size_t i = 0; i < n; ++i) residual[i] = y[i] - base_prediction;

  // Rank the features once; every stage trains on the shared ranks (the
  // residual targets change per stage, the feature order does not).
  const FeatureRanks ranks = FeatureRanks::build(x);
  std::vector<std::size_t> all_rows(n);
  for (std::size_t i = 0; i < n; ++i) all_rows[i] = i;

  // Each stage trains on every row, so the tree's training partition
  // already knows every row's leaf: the fit hands back per-row predictions
  // (bit-identical to predict_row) and the residual update needs no per-row
  // tree walk.
  std::vector<double> train_pred(n);

  // One tree reused across every stage's fit, whose scratch lives for
  // that fit only. Each stage is compiled into its own exact block before
  // the next one is built, so the model never holds a tree twice.
  DecisionTreeRegressor tree(tree_options_);
  std::vector<CompiledEnsemble::Tree> stages;
  stages.reserve(static_cast<std::size_t>(n_estimators_));

  for (int stage = 0; stage < n_estimators_; ++stage) {
    tree.fit_presorted(x, ranks, residual, all_rows, train_pred.data());
    // Update residuals with the shrunken stage prediction. A plain loop:
    // a few hundred rows cost less than handing chunks to the shared pool,
    // where concurrent fits would queue behind each other every stage.
    for (std::size_t i = 0; i < n; ++i) {
      residual[i] -= learning_rate_ * train_pred[i];
    }
    stages.push_back(
        CompiledEnsemble::compile_tree(tree.nodes(), tree.raw_importance()));
  }
  compiled_ =
      from_parts(learning_rate_, base_prediction, std::move(stages)).compiled_;
  base_prediction_ = base_prediction;
}

const CompiledEnsemble& GradientBoostingRegressor::compiled() const {
  CCPRED_CHECK_MSG(compiled_ != nullptr,
                   "GradientBoostingRegressor used before fit");
  return *compiled_;
}

std::size_t GradientBoostingRegressor::stage_count() const {
  return compiled_ == nullptr ? 0 : compiled_->tree_count();
}

std::vector<double> GradientBoostingRegressor::predict(
    const linalg::Matrix& x) const {
  return compiled().predict_batch(x);
}

std::vector<double> GradientBoostingRegressor::predict_staged(
    const linalg::Matrix& x, std::size_t stages) const {
  const CompiledEnsemble& store = compiled();
  CCPRED_CHECK_MSG(stages <= store.tree_count(), "stage count out of range");
  std::vector<double> out(x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    out[i] = store.predict_row(x.row_ptr(i), stages);
  }
  return out;
}

GradientBoostingRegressor GradientBoostingRegressor::from_parts(
    double learning_rate, double base_prediction,
    std::vector<CompiledEnsemble::Tree> stages) {
  CCPRED_CHECK_MSG(!stages.empty(), "a fitted model needs at least one stage");
  GradientBoostingRegressor model(static_cast<int>(stages.size()),
                                  learning_rate);
  model.base_prediction_ = base_prediction;
  model.compiled_ = std::make_shared<const CompiledEnsemble>(
      CompiledEnsemble::boosted(std::move(stages), base_prediction,
                                learning_rate));
  return model;
}

std::vector<double> GradientBoostingRegressor::feature_importances() const {
  return compiled().feature_importances();
}

std::unique_ptr<Regressor> GradientBoostingRegressor::clone() const {
  return std::make_unique<GradientBoostingRegressor>(
      n_estimators_, learning_rate_, tree_options_);
}

const std::string& GradientBoostingRegressor::name() const {
  static const std::string n = "GB";
  return n;
}

void GradientBoostingRegressor::set_params(const ParamMap& params) {
  for (const auto& [key, value] : params) {
    if (key == "n_estimators") {
      const int iv = static_cast<int>(std::lround(value));
      CCPRED_CHECK_MSG(iv > 0, "n_estimators must be > 0");
      n_estimators_ = iv;
    } else if (key == "learning_rate") {
      CCPRED_CHECK_MSG(value > 0.0 && value <= 1.0,
                       "learning_rate must be in (0, 1]");
      learning_rate_ = value;
    } else if (key == "max_depth" || key == "min_samples_split" ||
               key == "min_samples_leaf") {
      DecisionTreeRegressor probe(tree_options_);
      probe.set_params({{key, value}});
      tree_options_ = probe.options();
    } else {
      throw Error("GradientBoostingRegressor: unknown parameter '" + key +
                  "'");
    }
  }
}

}  // namespace ccpred::ml
