#pragma once

/// \file random_forest.hpp
/// Random forest regression (paper §3.1 "RF"): bagged CART trees; members
/// train in parallel on the thread pool with per-tree bootstrap streams,
/// so results are independent of scheduling.
///
/// The features are ranked once per fit (FeatureRanks), and every member
/// trains on the shared read-only ranks. fit() also compiles the forest
/// into a CompiledEnsemble, so predict() serves flattened SoA batch
/// inference (bit-identical to averaging each member's tree walk, which the
/// test oracle keeps as the reference).

#include <memory>
#include <string>
#include <vector>

#include "ccpred/common/rng.hpp"
#include "ccpred/core/decision_tree.hpp"
#include "ccpred/core/regressor.hpp"

namespace ccpred::ml {

class CompiledEnsemble;

/// Parameters: "n_estimators", "max_depth", "min_samples_split",
/// "min_samples_leaf", "bootstrap" (0/1).
class RandomForestRegressor : public Regressor {
 public:
  explicit RandomForestRegressor(int n_estimators = 100,
                                 TreeOptions tree_options = {},
                                 bool bootstrap = true,
                                 std::uint64_t seed = 42);

  void fit(const linalg::Matrix& x, const std::vector<double>& y) override;

  /// Compiled batch inference (CompiledEnsemble).
  std::vector<double> predict(const linalg::Matrix& x) const override;

  std::unique_ptr<Regressor> clone() const override;
  const std::string& name() const override;
  void set_params(const ParamMap& params) override;
  bool is_fitted() const override { return !trees_.empty(); }

  std::size_t tree_count() const { return trees_.size(); }

  /// Mean impurity-based feature importances over the ensemble,
  /// normalized to sum to 1.
  std::vector<double> feature_importances() const;
  const DecisionTreeRegressor& tree(std::size_t i) const { return trees_[i]; }
  const std::vector<DecisionTreeRegressor>& trees() const { return trees_; }

  /// The flattened inference engine (built on fit/load). Requires fit().
  const CompiledEnsemble& compiled() const;

  /// Reconstructs a fitted forest from its member trees (serialization
  /// loader); the result predicts bit-identically to the original.
  static RandomForestRegressor from_parts(
      std::vector<DecisionTreeRegressor> trees);

 private:
  int n_estimators_;
  TreeOptions tree_options_;
  bool bootstrap_;
  std::uint64_t seed_;
  std::vector<DecisionTreeRegressor> trees_;
  /// Built eagerly whenever trees_ changes (fit / from_parts), so the
  /// serving registry compiles exactly once per loaded artifact and
  /// concurrent predict() needs no synchronization. Immutable once set.
  std::shared_ptr<const CompiledEnsemble> compiled_;
};

}  // namespace ccpred::ml
