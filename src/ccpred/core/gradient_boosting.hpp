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
/// machines fit side by side without queueing on the shared pool. fit()
/// also compiles the fitted stages into a CompiledEnsemble, so predict()
/// serves flattened SoA batch inference (bit-identical to the tree walk of
/// predict_staged over every stage). A fit that throws leaves the model as
/// it was.

#include <memory>
#include <string>
#include <vector>

#include "ccpred/core/decision_tree.hpp"
#include "ccpred/core/regressor.hpp"

namespace ccpred::ml {

class CompiledEnsemble;

/// Parameters: "n_estimators", "learning_rate", "max_depth",
/// "min_samples_split", "min_samples_leaf".
class GradientBoostingRegressor : public Regressor {
 public:
  explicit GradientBoostingRegressor(int n_estimators = 750,
                                     double learning_rate = 0.1,
                                     TreeOptions tree_options = {});

  void fit(const linalg::Matrix& x, const std::vector<double>& y) override;

  /// Compiled batch inference (CompiledEnsemble); bit-identical to
  /// predict_staged(x, stage_count()).
  std::vector<double> predict(const linalg::Matrix& x) const override;

  std::unique_ptr<Regressor> clone() const override;
  const std::string& name() const override;
  void set_params(const ParamMap& params) override;
  bool is_fitted() const override { return fitted_; }

  std::size_t stage_count() const { return trees_.size(); }
  double learning_rate() const { return learning_rate_; }

  /// Mean impurity-based feature importances over the boosting stages,
  /// normalized to sum to 1.
  std::vector<double> feature_importances() const;

  /// Prediction truncated to the first `stages` boosting stages, by walking
  /// each tree — used by staged-training diagnostics, the hyper-parameter
  /// ablation bench and, over every stage, as the reference the compiled
  /// engine must match bitwise.
  std::vector<double> predict_staged(const linalg::Matrix& x,
                                     std::size_t stages) const;

  /// Serialization access: the fitted stages and base prediction.
  const std::vector<DecisionTreeRegressor>& stages() const { return trees_; }
  double base_prediction() const { return base_prediction_; }

  /// The flattened inference engine (built on fit/load). Requires fit().
  const CompiledEnsemble& compiled() const;

  /// Reconstructs a fitted model from its parts (serialization loader).
  static GradientBoostingRegressor from_parts(
      double learning_rate, double base_prediction,
      std::vector<DecisionTreeRegressor> stages);

 private:
  int n_estimators_;
  double learning_rate_;
  TreeOptions tree_options_;

  bool fitted_ = false;
  double base_prediction_ = 0.0;
  std::vector<DecisionTreeRegressor> trees_;
  /// Built eagerly whenever trees_ changes (fit / from_parts), so the
  /// serving registry compiles exactly once per loaded artifact and
  /// concurrent predict() needs no synchronization. Immutable once set.
  std::shared_ptr<const CompiledEnsemble> compiled_;
};

}  // namespace ccpred::ml
