#pragma once

/// \file random_forest.hpp
/// Random forest regression (paper §3.1 "RF"): bagged CART trees; members
/// train in parallel on the thread pool with per-tree bootstrap streams,
/// so results are independent of scheduling.
///
/// The features are ranked once per fit (FeatureRanks), and every member
/// trains on the shared read-only ranks. Each member is compiled inside its
/// own task as soon as it is built, and the forest keeps its trees only in
/// its CompiledEnsemble, in tree order, so predict() serves the store's
/// batch inference (bit-identical to averaging each member's tree walk,
/// which the test oracle keeps as the reference).

#include <memory>
#include <string>
#include <vector>

#include "ccpred/common/rng.hpp"
#include "ccpred/core/compiled_ensemble.hpp"
#include "ccpred/core/decision_tree.hpp"
#include "ccpred/core/regressor.hpp"

namespace ccpred::ml {

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
  bool is_fitted() const override { return compiled_ != nullptr; }

  std::size_t tree_count() const;

  /// Mean impurity-based feature importances over the ensemble,
  /// normalized to sum to 1.
  std::vector<double> feature_importances() const;

  /// The member trees' store (serialization writer). Requires fit().
  const CompiledEnsemble& compiled() const;

  /// Reconstructs a fitted forest from its compiled member trees
  /// (serialization loader, test oracle); `trees` must not be empty.
  static RandomForestRegressor from_parts(
      std::vector<CompiledEnsemble::Tree> trees);

 private:
  int n_estimators_;
  TreeOptions tree_options_;
  bool bootstrap_;
  std::uint64_t seed_;
  /// The fitted trees, set on fit / from_parts and immutable once set, so
  /// concurrent predict() needs no synchronization; null until fitted.
  std::shared_ptr<const CompiledEnsemble> compiled_;
};

}  // namespace ccpred::ml
