#pragma once

/// \file gaussian_process.hpp
/// Gaussian-process regression (paper §3.1 "GP") with an RBF kernel plus
/// white noise. Provides the posterior predictive standard deviation that
/// drives the uncertainty-sampling active-learning strategy (Algorithm 1).

#include <memory>
#include <string>
#include <vector>

#include "ccpred/core/kernels.hpp"
#include "ccpred/core/regressor.hpp"
#include "ccpred/data/scaler.hpp"
#include "ccpred/linalg/cholesky.hpp"

namespace ccpred::ml {

/// Parameters: "gamma" (RBF width), "noise" (white-noise variance added to
/// the diagonal), "optimize" (1 = grid-search gamma/noise by marginal
/// likelihood on fit, 0 = keep as set), "log_target" (1 = model log(y),
/// the exact likelihood under the machines' multiplicative run-to-run
/// noise; predictions are transformed back with the delta method).
/// Fitting caches the pairwise squared-distance matrix once (every grid
/// candidate's Gram matrix is then an elementwise exp; noise only touches
/// the diagonal), factors with the blocked parallel Cholesky, and batches
/// all predictive variances into one multi-RHS triangular solve. The test
/// oracle's ReferenceGp keeps the original per-candidate / per-row
/// computation as the reference.
class GaussianProcessRegression : public UncertaintyRegressor {
 public:
  explicit GaussianProcessRegression(double gamma = 0.5, double noise = 1e-4,
                                     bool optimize = true,
                                     bool log_target = false);

  void fit(const linalg::Matrix& x, const std::vector<double>& y) override;
  std::vector<double> predict(const linalg::Matrix& x) const override;
  void predict_with_std(const linalg::Matrix& x, std::vector<double>& mean,
                        std::vector<double>& std) const override;
  std::unique_ptr<Regressor> clone() const override;
  const std::string& name() const override;
  void set_params(const ParamMap& params) override;
  bool is_fitted() const override { return chol_ != nullptr; }

  /// Incremental refit: absorbs newly labeled rows by extending the cached
  /// distance matrix and Cholesky factor in O(n^2 q) instead of the O(n^3)
  /// from-scratch fit. Hyper-parameters and the feature/target scalers stay
  /// frozen at their last full-fit values (rescaling would invalidate the
  /// cached factor). Throws ccpred::Error before fit().
  void update(const linalg::Matrix& x_new, const std::vector<double>& y_new);

  /// Log marginal likelihood of the training data under the current
  /// hyper-parameters (computed during fit).
  double log_marginal_likelihood() const { return lml_; }

  /// RBF gamma in effect after fitting (post-optimization).
  double gamma() const { return kernel_.gamma; }

 private:
  void factor_and_score(linalg::Matrix k);

  Kernel kernel_;
  double noise_;
  bool optimize_;
  bool log_target_;
  double lml_ = 0.0;
  data::StandardScaler scaler_;
  data::TargetScaler y_scaler_;
  linalg::Matrix x_train_;
  linalg::Matrix dist2_;  // cached pairwise squared distances
  std::vector<double> yz_;
  std::vector<double> alpha_;  // K^{-1} y
  std::unique_ptr<linalg::Cholesky> chol_;
};

}  // namespace ccpred::ml
