#include "ccpred/core/adaboost.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "ccpred/common/error.hpp"
#include "ccpred/common/rng.hpp"

namespace ccpred::ml {

AdaBoostRegressor::AdaBoostRegressor(int n_estimators, double learning_rate,
                                     AdaBoostLoss loss,
                                     TreeOptions tree_options,
                                     std::uint64_t seed)
    : n_estimators_(n_estimators),
      learning_rate_(learning_rate),
      loss_(loss),
      tree_options_(tree_options),
      seed_(seed) {
  CCPRED_CHECK_MSG(n_estimators > 0, "n_estimators must be > 0");
  CCPRED_CHECK_MSG(learning_rate > 0.0, "learning_rate must be > 0");
}

void AdaBoostRegressor::fit(const linalg::Matrix& x,
                            const std::vector<double>& y) {
  CCPRED_CHECK_MSG(x.rows() == y.size(), "X/y row mismatch");
  CCPRED_CHECK_MSG(x.rows() > 0, "cannot fit on empty data");
  const std::size_t n = x.rows();

  // The fit builds into locals and commits at the end, so a fit that
  // throws (a non-finite feature or target) leaves the model as it was.
  std::vector<DecisionTreeRegressor> trees;
  std::vector<double> stage_weights;
  std::vector<double> w(n, 1.0 / static_cast<double>(n));
  Rng rng(seed_);

  // Rank the features once; every stage resamples rows, not values.
  const FeatureRanks ranks = FeatureRanks::build(x);

  for (int stage = 0; stage < n_estimators_; ++stage) {
    // Weighted bootstrap: sample n rows with probability proportional to w
    // (inverse-CDF sampling on the cumulative weights).
    std::vector<double> cdf(n);
    std::partial_sum(w.begin(), w.end(), cdf.begin());
    const double total = cdf.back();
    std::vector<std::size_t> rows(n);
    for (auto& r : rows) {
      const double u = rng.uniform() * total;
      r = static_cast<std::size_t>(
          std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      if (r >= n) r = n - 1;
    }

    // One draw between stages: every later resample, and so every fitted
    // model, depends on the stream's position.
    rng.next();
    DecisionTreeRegressor tree(tree_options_);
    tree.fit_presorted(x, ranks, y, rows);

    // Relative errors on the *full* training set.
    std::vector<double> err(n);
    double max_err = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      err[i] = std::abs(tree.predict_row(x.row_ptr(i)) - y[i]);
      max_err = std::max(max_err, err[i]);
    }
    if (max_err <= 0.0) {
      // Perfect learner: keep it with a dominant weight and stop.
      trees.push_back(std::move(tree));
      stage_weights.push_back(50.0);
      break;
    }
    for (auto& e : err) {
      e /= max_err;
      switch (loss_) {
        case AdaBoostLoss::kLinear:
          break;
        case AdaBoostLoss::kSquare:
          e = e * e;
          break;
        case AdaBoostLoss::kExponential:
          e = 1.0 - std::exp(-e);
          break;
      }
    }
    double avg_loss = 0.0;
    for (std::size_t i = 0; i < n; ++i) avg_loss += w[i] * err[i];
    avg_loss /= std::accumulate(w.begin(), w.end(), 0.0);
    if (avg_loss >= 0.5) {
      // Drucker's stopping rule: the learner is no better than chance.
      if (trees.empty()) {
        trees.push_back(std::move(tree));
        stage_weights.push_back(1.0);
      }
      break;
    }

    const double beta = avg_loss / (1.0 - avg_loss);
    for (std::size_t i = 0; i < n; ++i) {
      w[i] *= std::pow(beta, learning_rate_ * (1.0 - err[i]));
    }
    trees.push_back(std::move(tree));
    stage_weights.push_back(learning_rate_ * std::log(1.0 / beta));
  }
  CCPRED_CHECK_MSG(!trees.empty(), "AdaBoost produced no learners");
  trees_ = std::move(trees);
  stage_weights_ = std::move(stage_weights);
}

std::vector<double> AdaBoostRegressor::predict(const linalg::Matrix& x) const {
  CCPRED_CHECK_MSG(is_fitted(), "AdaBoostRegressor::predict before fit");
  std::vector<double> out(x.rows());
  const std::size_t t = trees_.size();
  std::vector<std::pair<double, double>> preds(t);  // (prediction, weight)
  const double half =
      0.5 * std::accumulate(stage_weights_.begin(), stage_weights_.end(), 0.0);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    const double* row = x.row_ptr(i);
    for (std::size_t k = 0; k < t; ++k) {
      preds[k] = {trees_[k].predict_row(row), stage_weights_[k]};
    }
    std::sort(preds.begin(), preds.end());
    // Weighted median of the stage predictions.
    double acc = 0.0;
    double value = preds.back().first;
    for (const auto& [p, wt] : preds) {
      acc += wt;
      if (acc >= half) {
        value = p;
        break;
      }
    }
    out[i] = value;
  }
  return out;
}

std::unique_ptr<Regressor> AdaBoostRegressor::clone() const {
  return std::make_unique<AdaBoostRegressor>(n_estimators_, learning_rate_,
                                             loss_, tree_options_, seed_);
}

const std::string& AdaBoostRegressor::name() const {
  static const std::string n = "AB";
  return n;
}

void AdaBoostRegressor::set_params(const ParamMap& params) {
  for (const auto& [key, value] : params) {
    if (key == "n_estimators") {
      const int iv = static_cast<int>(std::lround(value));
      CCPRED_CHECK_MSG(iv > 0, "n_estimators must be > 0");
      n_estimators_ = iv;
    } else if (key == "learning_rate") {
      CCPRED_CHECK_MSG(value > 0.0, "learning_rate must be > 0");
      learning_rate_ = value;
    } else if (key == "loss") {
      const int iv = static_cast<int>(std::lround(value));
      CCPRED_CHECK_MSG(iv >= 0 && iv <= 2, "loss code must be 0..2");
      loss_ = static_cast<AdaBoostLoss>(iv);
    } else if (key == "max_depth" || key == "min_samples_split" ||
               key == "min_samples_leaf") {
      DecisionTreeRegressor probe(tree_options_);
      probe.set_params({{key, value}});
      tree_options_ = probe.options();
    } else {
      throw Error("AdaBoostRegressor: unknown parameter '" + key + "'");
    }
  }
}

}  // namespace ccpred::ml
