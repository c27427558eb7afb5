#pragma once

/// \file kernel_ridge.hpp
/// Kernel ridge regression (paper §3.1 "KR"): ridge regression in the
/// feature space induced by a kernel; dual coefficients from the
/// regularized Gram system (K + alpha I) a = y. A fitted model keeps only
/// what predict() reads: the standardized training rows, the dual
/// coefficients and the scalers.

#include <memory>
#include <string>
#include <vector>

#include "ccpred/core/kernels.hpp"
#include "ccpred/core/regressor.hpp"
#include "ccpred/data/scaler.hpp"

namespace ccpred::ml {

/// Parameters: "alpha" (> 0), "gamma" (RBF width), "kernel" (0 = rbf,
/// 1 = poly, 2 = linear), "degree" (poly only).
class KernelRidgeRegression : public Regressor {
 public:
  explicit KernelRidgeRegression(Kernel kernel = {}, double alpha = 1.0);

  void fit(const linalg::Matrix& x, const std::vector<double>& y) override;
  std::vector<double> predict(const linalg::Matrix& x) const override;
  std::unique_ptr<Regressor> clone() const override;
  const std::string& name() const override;
  void set_params(const ParamMap& params) override;
  bool is_fitted() const override { return fitted_; }

  const Kernel& kernel() const { return kernel_; }

 private:
  Kernel kernel_;
  double alpha_;
  bool fitted_ = false;
  data::StandardScaler scaler_;
  data::TargetScaler y_scaler_;
  linalg::Matrix x_train_;      // standardized training features
  std::vector<double> dual_;    // dual coefficients
};

}  // namespace ccpred::ml
