#pragma once

/// \file gradient_boosting.hpp
/// Gradient-boosted regression trees (paper §3.1 "GB") with squared loss:
/// each stage fits a CART tree to the current residuals and is shrunk by a
/// learning rate. The paper's winning model — its tuned configuration
/// (750 estimators, depth 10, defaults otherwise) is the library default.
///
/// Every stage fits on every row. Hot paths: the features are ranked once
/// per fit (FeatureRanks) and every stage trains on the shared ranks. Each
/// stage's fit also hands back its training predictions, read off the
/// tree's own partition, so the residual update is one plain loop that
/// walks no tree. A fit runs on its calling thread, so the daemon's two
/// machines fit side by side without queueing on the shared pool.
///
/// The fitted stages live in one place, the model's CompiledEnsemble: the
/// fit builds every stage in one reused tree and compiles it into the store
/// before the next starts, so a fitted model holds each node once (13
/// bytes, with no value kept for an internal node) and predict() serves
/// the store's batch inference. A fit that throws, or a matrix wider than
/// CompiledEnsemble::kMaxFeatures, leaves the model as it was.

#include <memory>
#include <string>
#include <vector>

#include "ccpred/core/compiled_ensemble.hpp"
#include "ccpred/core/decision_tree.hpp"
#include "ccpred/core/regressor.hpp"

namespace ccpred::ml {

/// Parameters: "n_estimators", "learning_rate", "max_depth",
/// "min_samples_split", "min_samples_leaf".
class GradientBoostingRegressor : public Regressor {
 public:
  explicit GradientBoostingRegressor(int n_estimators = 750,
                                     double learning_rate = 0.1,
                                     TreeOptions tree_options = {});

  void fit(const linalg::Matrix& x, const std::vector<double>& y) override;

  /// Batch inference over the compiled stages (CompiledEnsemble).
  std::vector<double> predict(const linalg::Matrix& x) const override;

  std::unique_ptr<Regressor> clone() const override;
  const std::string& name() const override;
  void set_params(const ParamMap& params) override;
  bool is_fitted() const override { return compiled_ != nullptr; }

  std::size_t stage_count() const;
  double learning_rate() const { return learning_rate_; }

  /// Mean impurity-based feature importances over the boosting stages,
  /// normalized to sum to 1.
  std::vector<double> feature_importances() const;

  /// Prediction truncated to the first `stages` boosting stages, walking
  /// each of them in the store — used by staged-training diagnostics and
  /// the hyper-parameter ablation bench.
  std::vector<double> predict_staged(const linalg::Matrix& x,
                                     std::size_t stages) const;

  /// Serialization access: the base prediction and the stage store.
  double base_prediction() const { return base_prediction_; }
  const CompiledEnsemble& compiled() const;

  /// Reconstructs a fitted model from its compiled stages (serialization
  /// loader, test oracle); `stages` must not be empty.
  static GradientBoostingRegressor from_parts(
      double learning_rate, double base_prediction,
      std::vector<CompiledEnsemble::Tree> stages);

 private:
  int n_estimators_;
  double learning_rate_;
  TreeOptions tree_options_;

  double base_prediction_ = 0.0;
  /// The fitted stages, set on fit / from_parts and immutable once set, so
  /// concurrent predict() needs no synchronization; null until fitted.
  std::shared_ptr<const CompiledEnsemble> compiled_;
};

}  // namespace ccpred::ml
