#include "oracle/oracle.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <numbers>
#include <tuple>

#include "ccpred/common/error.hpp"
#include "ccpred/common/rng.hpp"
#include "ccpred/linalg/blas.hpp"
#include "ccpred/sim/noise.hpp"
#include "ccpred/sim/sim_engine.hpp"

namespace ccpred::oracle {
namespace {

/// Solves L y = b (forward substitution).
std::vector<double> solve_lower(const linalg::Matrix& l,
                                const std::vector<double>& b) {
  const std::size_t n = l.rows();
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double* li = l.row_ptr(i);
    double s = b[i];
    for (std::size_t k = 0; k < i; ++k) s -= li[k] * y[k];
    y[i] = s / li[i];
  }
  return y;
}

/// Solves L^T x = y (backward substitution).
std::vector<double> solve_upper(const linalg::Matrix& l,
                                const std::vector<double>& y) {
  const std::size_t n = l.rows();
  std::vector<double> x = y;
  for (std::size_t ii = n; ii-- > 0;) {
    x[ii] /= l(ii, ii);
    const double xi = x[ii];
    for (std::size_t k = 0; k < ii; ++k) x[k] -= l(ii, k) * xi;
  }
  return x;
}

}  // namespace

linalg::Matrix cholesky_left_looking(const linalg::Matrix& a) {
  CCPRED_CHECK_MSG(a.rows() == a.cols(), "Cholesky requires a square matrix");
  const std::size_t n = a.rows();
  linalg::Matrix l(n, n);
  // Inner dot products stream through the contiguous rows of L.
  for (std::size_t j = 0; j < n; ++j) {
    const double* lj = l.row_ptr(j);
    double d = a(j, j);
    for (std::size_t k = 0; k < j; ++k) d -= lj[k] * lj[k];
    CCPRED_CHECK_MSG(d > 0.0, "matrix is not positive definite (pivot "
                                  << d << " at column " << j << ")");
    const double ljj = std::sqrt(d);
    l(j, j) = ljj;
    const double inv = 1.0 / ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      const double* li = l.row_ptr(i);
      double s = a(i, j);
      for (std::size_t k = 0; k < j; ++k) s -= li[k] * lj[k];
      l(i, j) = s * inv;
    }
  }
  return l;
}

std::vector<double> forest_walk(const ml::RandomForestRegressor& forest,
                                const linalg::Matrix& x) {
  const auto& trees = forest.trees();
  std::vector<double> out(x.rows(), 0.0);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    const double* row = x.row_ptr(i);
    double s = 0.0;
    for (const auto& tree : trees) s += tree.predict_row(row);
    out[i] = s / static_cast<double>(trees.size());
  }
  return out;
}

std::vector<double> campaign_labels(const sim::CcsdSimulator& simulator,
                                    const data::Dataset& dataset,
                                    std::uint64_t seed) {
  std::map<std::tuple<int, int, int, int>, int> earlier;
  std::vector<double> out(dataset.size());
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    const sim::RunConfig& cfg = dataset.config(i);
    const int k = earlier[{cfg.o, cfg.v, cfg.nodes, cfg.tile}]++;
    Rng stream(sim::measurement_stream_seed(seed, cfg));
    double factor = 0.0;
    for (int r = 0; r <= k; ++r) {
      factor = sim::noise_factor(simulator.machine(), stream);
    }
    out[i] = simulator.iteration_time(cfg) * factor;
  }
  return out;
}

ReferenceGp::ReferenceGp(double gamma, double noise, bool optimize,
                         bool log_target)
    : noise_(noise), optimize_(optimize), log_target_(log_target) {
  kernel_.type = ml::KernelType::kRbf;
  kernel_.gamma = gamma;
}

void ReferenceGp::fit_with_gamma(double gamma) {
  kernel_.gamma = gamma;
  linalg::Matrix k = kernel_.gram_symmetric(x_train_);
  k.add_diagonal(noise_ + 1e-10);
  l_ = cholesky_left_looking(k);
  alpha_ = solve_upper(l_, solve_lower(l_, yz_));
  double log_det = 0.0;
  for (std::size_t i = 0; i < l_.rows(); ++i) log_det += std::log(l_(i, i));
  const double n = static_cast<double>(yz_.size());
  lml_ = -0.5 * linalg::dot(yz_, alpha_) - log_det -
         0.5 * n * std::log(2.0 * std::numbers::pi);
}

void ReferenceGp::fit(const linalg::Matrix& x, const std::vector<double>& y) {
  x_train_ = scaler_.fit_transform(x);
  std::vector<double> target = y;
  if (log_target_) {
    for (auto& v : target) v = std::log(v);
  }
  yz_ = y_scaler_.fit_transform(target);
  if (!optimize_) {
    fit_with_gamma(kernel_.gamma);
    return;
  }
  const double gamma_candidates[] = {0.03, 0.1, 0.3, 1.0, 3.0};
  const double noise_candidates[] = {1e-3, 1e-2, 1e-1};
  double best_gamma = kernel_.gamma;
  double best_noise = noise_;
  double best_lml = -std::numeric_limits<double>::infinity();
  for (double nz : noise_candidates) {
    noise_ = nz;
    for (double g : gamma_candidates) {
      fit_with_gamma(g);
      if (lml_ > best_lml) {
        best_lml = lml_;
        best_gamma = g;
        best_noise = nz;
      }
    }
  }
  noise_ = best_noise;
  fit_with_gamma(best_gamma);
}

double ReferenceGp::to_target(double z) const {
  const double v = y_scaler_.inverse_one(z);
  return log_target_ ? std::exp(v) : v;
}

std::vector<double> ReferenceGp::predict(const linalg::Matrix& x) const {
  const linalg::Matrix ks = kernel_.gram(scaler_.transform(x), x_train_);
  std::vector<double> out = linalg::gemv(ks, alpha_);
  for (auto& v : out) v = to_target(v);
  return out;
}

void ReferenceGp::predict_with_std(const linalg::Matrix& x,
                                   std::vector<double>& mean,
                                   std::vector<double>& std) const {
  const linalg::Matrix ks = kernel_.gram(scaler_.transform(x), x_train_);
  mean = linalg::gemv(ks, alpha_);
  std.assign(x.rows(), 0.0);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    // var(x*) = k(x*,x*) - k*^T K^{-1} k*; k(x,x) = 1 for RBF.
    double quad = 0.0;
    for (double w : solve_lower(l_, ks.row(i))) quad += w * w;
    std[i] = std::sqrt(std::max(0.0, 1.0 + noise_ - quad)) *
             y_scaler_.stddev();
    mean[i] = to_target(mean[i]);
    // Delta method back to seconds: y = exp(f), std_y ~ exp(mu) std_f.
    if (log_target_) std[i] *= mean[i];
  }
}

std::unique_ptr<ml::Regressor> ReferenceGp::clone() const {
  return std::make_unique<ReferenceGp>(kernel_.gamma, noise_, optimize_,
                                       log_target_);
}

const std::string& ReferenceGp::name() const {
  static const std::string n = "GP";
  return n;
}

void ReferenceGp::set_params(const ml::ParamMap& params) {
  CCPRED_CHECK_MSG(params.empty(),
                   "ReferenceGp: parameters are fixed at construction");
}

}  // namespace ccpred::oracle
