#pragma once

/// \file oracle.hpp
/// Test-only reference implementations (the ccpred_oracle library).
///
/// The library ships one path per engine: the blocked Cholesky, the
/// presorted exact tree builder, the compiled tree ensembles, the batched
/// simulation and the cached-distance Gaussian process. The tests
/// and the bench gates compare each against the original, plainly written
/// computation kept here:
///
///  * cholesky_left_looking — the scalar left-looking factorization
///    (agreement within 1e-9 of the matrix scale);
///  * exact_tree — the exact CART builder that sorts (value, target) pairs
///    of every feature at every node, and exact_gb / exact_rf, the boosting
///    loop and the forest assembled from it (bitwise: equal serialize_*);
///  * gb_walk and forest_walk — a boosted model's and a forest's per-row
///    tree walk over exact_gb's and exact_rf's own trees, which never enter
///    a CompiledEnsemble: the reference of its batch and row kernels
///    (bitwise);
///  * campaign_labels — a campaign's targets simulated from scratch, one
///    iteration_time per row (bitwise);
///  * ReferenceGp — the per-candidate / per-row Gaussian process
///    (relative 1e-9).
///
/// A sweep needs no oracle code: CcsdSimulator::iteration_time is the
/// simulation engine's oracle.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ccpred/core/decision_tree.hpp"
#include "ccpred/core/gradient_boosting.hpp"
#include "ccpred/core/kernels.hpp"
#include "ccpred/core/random_forest.hpp"
#include "ccpred/core/regressor.hpp"
#include "ccpred/data/dataset.hpp"
#include "ccpred/data/scaler.hpp"
#include "ccpred/linalg/matrix.hpp"
#include "ccpred/sim/ccsd_simulator.hpp"

namespace ccpred::oracle {

/// Lower-triangular L with A = L L^T by the scalar left-looking column
/// algorithm. Throws ccpred::Error on a non-positive pivot, with the same
/// "not positive definite" message as linalg::Cholesky.
linalg::Matrix cholesky_left_looking(const linalg::Matrix& a);

/// A CART tree fitted on `rows` of (x, y) (rows may repeat) by sorting the
/// (value, target) pairs of every candidate feature at every node.
ml::DecisionTreeRegressor exact_tree(const linalg::Matrix& x,
                                     const std::vector<double>& y,
                                     const std::vector<std::size_t>& rows,
                                     const ml::TreeOptions& options);

/// A boosted model kept as separate trees.
struct ExactGb {
  double base_prediction = 0.0;
  double learning_rate = 0.0;
  std::vector<ml::DecisionTreeRegressor> stages;

  /// The library model holding compiled copies of these stages.
  ml::GradientBoostingRegressor model() const;
};

/// GradientBoostingRegressor(n_estimators, learning_rate, tree_options)
/// .fit(x, y) with exact_tree stages on every row, and residuals updated by
/// walking each new tree over every row.
ExactGb exact_gb(const linalg::Matrix& x, const std::vector<double>& y,
                 int n_estimators, double learning_rate,
                 const ml::TreeOptions& tree_options);

/// The boosted prediction as base + rate * (sum of the stages' walks).
std::vector<double> gb_walk(const ExactGb& gb, const linalg::Matrix& x);

/// A forest kept as separate trees.
struct ExactRf {
  std::vector<ml::DecisionTreeRegressor> trees;

  /// The library forest holding compiled copies of these trees.
  ml::RandomForestRegressor model() const;
};

/// RandomForestRegressor(n_estimators, tree_options, bootstrap, seed)
/// .fit(x, y) with exact_tree members: the same per-tree bootstrap draws,
/// trees trained in parallel.
ExactRf exact_rf(const linalg::Matrix& x, const std::vector<double>& y,
                 int n_estimators, const ml::TreeOptions& tree_options,
                 bool bootstrap, std::uint64_t seed);

/// The forest's prediction as the mean of its members' tree walks.
std::vector<double> forest_walk(const ExactRf& forest,
                                const linalg::Matrix& x);

/// The targets data::generate_dataset must produce for `dataset`'s rows
/// under campaign seed `seed`: row i is iteration_time(cfg) from scratch
/// times the k-th draw of cfg's measurement stream, where k counts the
/// earlier rows with the same config.
std::vector<double> campaign_labels(const sim::CcsdSimulator& simulator,
                                    const data::Dataset& dataset,
                                    std::uint64_t seed);

/// Gaussian-process regression as first written: one Gram matrix per
/// (gamma, noise) candidate in noise-major order and a refit of the winner,
/// the left-looking factorization, and one triangular solve per predicted
/// row. predict() computes the mean only.
class ReferenceGp : public ml::UncertaintyRegressor {
 public:
  ReferenceGp(double gamma, double noise, bool optimize,
              bool log_target = false);

  void fit(const linalg::Matrix& x, const std::vector<double>& y) override;
  std::vector<double> predict(const linalg::Matrix& x) const override;
  void predict_with_std(const linalg::Matrix& x, std::vector<double>& mean,
                        std::vector<double>& std) const override;
  std::unique_ptr<ml::Regressor> clone() const override;
  const std::string& name() const override;
  /// Parameters are fixed at construction; every key throws.
  void set_params(const ml::ParamMap& params) override;
  bool is_fitted() const override { return !alpha_.empty(); }

 private:
  void fit_with_gamma(double gamma);
  /// Back to seconds from the standardized (log) target scale.
  double to_target(double z) const;

  ml::Kernel kernel_;
  double noise_;
  bool optimize_;
  bool log_target_;
  data::StandardScaler scaler_;
  data::TargetScaler y_scaler_;
  linalg::Matrix x_train_;
  std::vector<double> yz_;
  linalg::Matrix l_;           // Cholesky factor of K + noise I
  std::vector<double> alpha_;  // K^{-1} y
  double lml_ = 0.0;
};

}  // namespace ccpred::oracle
