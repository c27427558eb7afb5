#include "ccpred/core/kernel_ridge.hpp"

#include <cmath>

#include "ccpred/common/error.hpp"
#include "ccpred/linalg/blas.hpp"
#include "ccpred/linalg/solve.hpp"

namespace ccpred::ml {

KernelRidgeRegression::KernelRidgeRegression(Kernel kernel, double alpha)
    : kernel_(kernel), alpha_(alpha) {
  CCPRED_CHECK_MSG(alpha > 0.0, "kernel ridge alpha must be > 0");
}

void KernelRidgeRegression::fit(const linalg::Matrix& x,
                                const std::vector<double>& y) {
  CCPRED_CHECK_MSG(x.rows() == y.size(), "X/y row mismatch");
  CCPRED_CHECK_MSG(x.rows() > 0, "cannot fit on empty data");
  x_train_ = scaler_.fit_transform(x);
  const auto yz = y_scaler_.fit_transform(y);
  linalg::Matrix k =
      kernel_.type == KernelType::kRbf
          ? rbf_from_squared_distances_symmetric(squared_distances(x_train_),
                                                 kernel_.gamma)
          : kernel_.gram_symmetric(x_train_);
  k.add_diagonal(alpha_);
  dual_ = linalg::spd_solve_with_jitter(std::move(k), yz);
  fitted_ = true;
}

std::vector<double> KernelRidgeRegression::predict(
    const linalg::Matrix& x) const {
  CCPRED_CHECK_MSG(fitted_, "KernelRidgeRegression::predict before fit");
  const linalg::Matrix z = scaler_.transform(x);
  const linalg::Matrix k = kernel_.gram(z, x_train_);
  auto out = linalg::gemv(k, dual_);
  for (auto& v : out) v = y_scaler_.inverse_one(v);
  return out;
}

std::unique_ptr<Regressor> KernelRidgeRegression::clone() const {
  return std::make_unique<KernelRidgeRegression>(kernel_, alpha_);
}

const std::string& KernelRidgeRegression::name() const {
  static const std::string n = "KR";
  return n;
}

void KernelRidgeRegression::set_params(const ParamMap& params) {
  for (const auto& [key, value] : params) {
    if (key == "alpha") {
      CCPRED_CHECK_MSG(value > 0.0, "alpha must be > 0");
      alpha_ = value;
    } else if (key == "gamma") {
      CCPRED_CHECK_MSG(value > 0.0, "gamma must be > 0");
      kernel_.gamma = value;
    } else if (key == "kernel") {
      const int k = static_cast<int>(std::lround(value));
      CCPRED_CHECK_MSG(k >= 0 && k <= 2, "kernel code must be 0..2");
      kernel_.type = static_cast<KernelType>(k);
    } else if (key == "degree") {
      kernel_.degree = static_cast<int>(std::lround(value));
    } else if (key == "coef0") {
      kernel_.coef0 = value;
    } else {
      throw Error("KernelRidgeRegression: unknown parameter '" + key + "'");
    }
  }
}

}  // namespace ccpred::ml
