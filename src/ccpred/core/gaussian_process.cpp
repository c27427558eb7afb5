#include "ccpred/core/gaussian_process.hpp"

#include <cmath>
#include <limits>
#include <numbers>

#include "ccpred/common/error.hpp"
#include "ccpred/linalg/blas.hpp"

namespace ccpred::ml {

GaussianProcessRegression::GaussianProcessRegression(double gamma,
                                                     double noise,
                                                     bool optimize,
                                                     bool log_target)
    : noise_(noise), optimize_(optimize), log_target_(log_target) {
  CCPRED_CHECK_MSG(gamma > 0.0, "GP gamma must be > 0");
  CCPRED_CHECK_MSG(noise >= 0.0, "GP noise must be >= 0");
  kernel_.type = KernelType::kRbf;
  kernel_.gamma = gamma;
}

void GaussianProcessRegression::factor_and_score(linalg::Matrix k) {
  k.add_diagonal(noise_ + 1e-10);
  chol_ = std::make_unique<linalg::Cholesky>(std::move(k));
  alpha_ = chol_->solve(yz_);
  // log p(y | X) = -1/2 y^T K^{-1} y - 1/2 log|K| - n/2 log(2 pi)
  const double n = static_cast<double>(yz_.size());
  lml_ = -0.5 * linalg::dot(yz_, alpha_) - 0.5 * chol_->log_determinant() -
         0.5 * n * std::log(2.0 * std::numbers::pi);
}

void GaussianProcessRegression::fit(const linalg::Matrix& x,
                                    const std::vector<double>& y) {
  CCPRED_CHECK_MSG(x.rows() == y.size(), "X/y row mismatch");
  CCPRED_CHECK_MSG(x.rows() > 0, "cannot fit on empty data");
  x_train_ = scaler_.fit_transform(x);
  if (log_target_) {
    std::vector<double> logged(y.size());
    for (std::size_t i = 0; i < y.size(); ++i) {
      CCPRED_CHECK_MSG(y[i] > 0.0, "log_target GP needs positive targets");
      logged[i] = std::log(y[i]);
    }
    yz_ = y_scaler_.fit_transform(logged);
  } else {
    yz_ = y_scaler_.fit_transform(y);
  }

  // The pairwise squared distances are computed once: every grid
  // candidate's Gram matrix is then an elementwise exp(-gamma * D) (noise
  // only touches the diagonal) instead of a full recomputation.
  dist2_ = squared_distances(x_train_);

  if (!optimize_) {
    factor_and_score(
        rbf_from_squared_distances_symmetric(dist2_, kernel_.gamma));
    return;
  }
  // Type-II maximum likelihood over a log-spaced (gamma, noise) grid:
  // robust, derivative-free, and each candidate is one O(n^3)
  // factorization — the same cost the final fit pays anyway.
  const double gamma_candidates[] = {0.03, 0.1, 0.3, 1.0, 3.0};
  const double noise_candidates[] = {1e-3, 1e-2, 1e-1};
  double best_gamma = kernel_.gamma;
  double best_noise = noise_;
  double best_lml = -std::numeric_limits<double>::infinity();
  // Gamma-major order: one exp map serves all noise levels of a gamma.
  // The winning candidate's factorization is kept, so the final fit is a
  // restore instead of a 16th O(n^3) factorization (the factorization is
  // deterministic, so this is bitwise identical to recomputing it).
  std::unique_ptr<linalg::Cholesky> best_chol;
  std::vector<double> best_alpha;
  for (double g : gamma_candidates) {
    const linalg::Matrix kg = rbf_from_squared_distances_symmetric(dist2_, g);
    kernel_.gamma = g;
    for (double nz : noise_candidates) {
      noise_ = nz;
      factor_and_score(kg);
      if (lml_ > best_lml) {
        best_lml = lml_;
        best_gamma = g;
        best_noise = nz;
        best_chol = std::move(chol_);
        best_alpha = std::move(alpha_);
      }
    }
  }
  kernel_.gamma = best_gamma;
  noise_ = best_noise;
  chol_ = std::move(best_chol);
  alpha_ = std::move(best_alpha);
  lml_ = best_lml;
}

std::vector<double> GaussianProcessRegression::predict(
    const linalg::Matrix& x) const {
  CCPRED_CHECK_MSG(is_fitted(), "GaussianProcessRegression::predict before fit");
  const linalg::Matrix z = scaler_.transform(x);
  const linalg::Matrix ks = kernel_.gram(z, x_train_);
  auto out = linalg::gemv(ks, alpha_);
  for (auto& v : out) {
    v = y_scaler_.inverse_one(v);
    if (log_target_) v = std::exp(v);
  }
  return out;
}

void GaussianProcessRegression::predict_with_std(const linalg::Matrix& x,
                                                 std::vector<double>& mean,
                                                 std::vector<double>& std) const {
  CCPRED_CHECK_MSG(is_fitted(), "GP predict_with_std before fit");
  const linalg::Matrix z = scaler_.transform(x);
  const std::size_t m = x.rows();
  std.assign(m, 0.0);
  // var(x*) = k(x*,x*) - k*^T K^{-1} k*; k(x,x) = 1 for RBF. All variances
  // come from ONE multi-RHS triangular solve of K*^T plus column squared
  // norms, instead of a serial per-row solve_lower loop.
  const linalg::Matrix ks_t = kernel_.gram(x_train_, z);  // n x m
  mean = linalg::gemv_transposed(ks_t, alpha_);
  const linalg::Matrix v = chol_->solve_lower(ks_t);
  for (std::size_t r = 0; r < v.rows(); ++r) {
    const double* vr = v.row_ptr(r);
    for (std::size_t j = 0; j < m; ++j) std[j] += vr[j] * vr[j];
  }
  for (std::size_t j = 0; j < m; ++j) {
    std[j] = std::max(0.0, 1.0 + noise_ - std[j]);
  }
  for (std::size_t i = 0; i < m; ++i) {
    std[i] = std::sqrt(std[i]) * y_scaler_.stddev();
    mean[i] = y_scaler_.inverse_one(mean[i]);
    if (log_target_) {
      // Delta method back to seconds: y = exp(f), std_y ~ exp(mu) std_f.
      mean[i] = std::exp(mean[i]);
      std[i] *= mean[i];
    }
  }
}

void GaussianProcessRegression::update(const linalg::Matrix& x_new,
                                       const std::vector<double>& y_new) {
  CCPRED_CHECK_MSG(is_fitted(), "GaussianProcessRegression::update before fit");
  CCPRED_CHECK_MSG(x_new.rows() == y_new.size(), "X/y row mismatch");
  CCPRED_CHECK_MSG(x_new.rows() > 0, "update needs at least one new row");
  // Frozen scalers: the standardization learned at the last full fit keeps
  // the cached distances and factor valid. The drift it ignores lasts until
  // the next full fit.
  const linalg::Matrix z = scaler_.transform(x_new);
  std::vector<double> yz_new;
  if (log_target_) {
    std::vector<double> logged(y_new.size());
    for (std::size_t i = 0; i < y_new.size(); ++i) {
      CCPRED_CHECK_MSG(y_new[i] > 0.0, "log_target GP needs positive targets");
      logged[i] = std::log(y_new[i]);
    }
    yz_new = y_scaler_.transform(logged);
  } else {
    yz_new = y_scaler_.transform(y_new);
  }

  const linalg::Matrix cross_d = squared_distances(z, x_train_);
  const linalg::Matrix self_d = squared_distances(z);
  const linalg::Matrix k21 = rbf_from_squared_distances(cross_d, kernel_.gamma);
  linalg::Matrix k22 =
      rbf_from_squared_distances_symmetric(self_d, kernel_.gamma);
  k22.add_diagonal(noise_ + 1e-10);
  // O(n^2 q) rank-q append instead of an O(n^3) refactorization.
  chol_->extend(k21, k22);

  // Keep the cached distance matrix in sync with the grown factor.
  const std::size_t n = dist2_.rows();
  const std::size_t q = z.rows();
  linalg::Matrix d2(n + q, n + q);
  for (std::size_t i = 0; i < n; ++i) {
    const double* src = dist2_.row_ptr(i);
    std::copy(src, src + n, d2.row_ptr(i));
  }
  for (std::size_t r = 0; r < q; ++r) {
    const double* cr = cross_d.row_ptr(r);
    double* dr = d2.row_ptr(n + r);
    for (std::size_t j = 0; j < n; ++j) {
      dr[j] = cr[j];
      d2(j, n + r) = cr[j];
    }
    for (std::size_t c = 0; c < q; ++c) dr[n + c] = self_d(r, c);
  }
  dist2_ = std::move(d2);
  x_train_.append_rows(z);
  yz_.insert(yz_.end(), yz_new.begin(), yz_new.end());
  alpha_ = chol_->solve(yz_);
  const double n_total = static_cast<double>(yz_.size());
  lml_ = -0.5 * linalg::dot(yz_, alpha_) - 0.5 * chol_->log_determinant() -
         0.5 * n_total * std::log(2.0 * std::numbers::pi);
}

std::unique_ptr<Regressor> GaussianProcessRegression::clone() const {
  return std::make_unique<GaussianProcessRegression>(
      kernel_.gamma, noise_, optimize_, log_target_);
}

const std::string& GaussianProcessRegression::name() const {
  static const std::string n = "GP";
  return n;
}

void GaussianProcessRegression::set_params(const ParamMap& params) {
  for (const auto& [key, value] : params) {
    if (key == "gamma") {
      CCPRED_CHECK_MSG(value > 0.0, "gamma must be > 0");
      kernel_.gamma = value;
    } else if (key == "noise") {
      CCPRED_CHECK_MSG(value >= 0.0, "noise must be >= 0");
      noise_ = value;
    } else if (key == "optimize") {
      optimize_ = value != 0.0;
    } else if (key == "log_target") {
      log_target_ = value != 0.0;
    } else {
      throw Error("GaussianProcessRegression: unknown parameter '" + key +
                  "'");
    }
  }
}

}  // namespace ccpred::ml
