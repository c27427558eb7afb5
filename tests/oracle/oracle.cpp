#include "oracle/oracle.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <numbers>
#include <tuple>

#include "ccpred/common/error.hpp"
#include "ccpred/common/rng.hpp"
#include "ccpred/core/compiled_ensemble.hpp"
#include "ccpred/exec/parallel_for.hpp"
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

// ---- the exact CART builder that sorts every feature at every node ----

struct BuildContext {
  const linalg::Matrix* x = nullptr;
  const std::vector<double>* y = nullptr;
  ml::TreeOptions options;
  std::vector<ml::TreeNode> nodes;
  std::vector<double> importance;
  int effective_max_depth = 64;
  // Scratch reused across nodes to avoid per-node allocation.
  std::vector<std::pair<double, double>> sorted;  // (feature value, target)
};

/// Best split of `rows` on `feature`: returns (sse_reduction, threshold,
/// left_count) or sse_reduction <= 0 if no valid split exists.
struct SplitCandidate {
  double gain = -1.0;
  double threshold = 0.0;
  std::size_t left_count = 0;
};

SplitCandidate best_split_on_feature(
    const linalg::Matrix& x, const std::vector<double>& y,
    const std::vector<std::size_t>& rows, std::size_t feature,
    int min_samples_leaf, std::vector<std::pair<double, double>>& sorted) {
  const std::size_t n = rows.size();
  sorted.clear();
  sorted.reserve(n);
  for (auto r : rows) sorted.emplace_back(x(r, feature), y[r]);
  std::sort(sorted.begin(), sorted.end());

  double total = 0.0;
  for (const auto& [v, t] : sorted) total += t;

  SplitCandidate best;
  double left_sum = 0.0;
  const auto min_leaf = static_cast<std::size_t>(min_samples_leaf);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    left_sum += sorted[i].second;
    if (sorted[i].first == sorted[i + 1].first) continue;  // tied values
    const std::size_t nl = i + 1;
    const std::size_t nr = n - nl;
    if (nl < min_leaf || nr < min_leaf) continue;
    // Variance-reduction gain: sum_l^2/n_l + sum_r^2/n_r - total^2/n
    const double right_sum = total - left_sum;
    const double gain = left_sum * left_sum / static_cast<double>(nl) +
                        right_sum * right_sum / static_cast<double>(nr) -
                        total * total / static_cast<double>(n);
    if (gain > best.gain) {
      best.gain = gain;
      best.threshold = 0.5 * (sorted[i].first + sorted[i + 1].first);
      best.left_count = nl;
    }
  }
  return best;
}

int build(BuildContext& ctx, std::vector<std::size_t>& rows, int depth) {
  const auto& x = *ctx.x;
  const auto& y = *ctx.y;
  const std::size_t n = rows.size();

  double sum = 0.0;
  for (auto r : rows) sum += y[r];
  const double mean = sum / static_cast<double>(n);

  const int node_index = static_cast<int>(ctx.nodes.size());
  ctx.nodes.push_back(ml::TreeNode{.value = mean});

  if (depth >= ctx.effective_max_depth ||
      n < static_cast<std::size_t>(ctx.options.min_samples_split)) {
    return node_index;
  }

  SplitCandidate best;
  std::size_t best_feature = 0;
  for (std::size_t f = 0; f < x.cols(); ++f) {
    const auto cand = best_split_on_feature(x, y, rows, f,
                                            ctx.options.min_samples_leaf,
                                            ctx.sorted);
    if (cand.gain > best.gain) {
      best = cand;
      best_feature = f;
    }
  }
  if (best.gain <= 1e-12) return node_index;  // pure or unsplittable node
  ctx.importance[best_feature] += best.gain;

  // Partition rows in place.
  std::vector<std::size_t> left_rows;
  std::vector<std::size_t> right_rows;
  left_rows.reserve(best.left_count);
  right_rows.reserve(n - best.left_count);
  for (auto r : rows) {
    (x(r, best_feature) <= best.threshold ? left_rows : right_rows)
        .push_back(r);
  }
  // Ties at the threshold can defeat the sorted-scan counts; guard anyway.
  if (left_rows.empty() || right_rows.empty()) return node_index;

  rows.clear();
  rows.shrink_to_fit();

  const int left = build(ctx, left_rows, depth + 1);
  const int right = build(ctx, right_rows, depth + 1);
  ctx.nodes[node_index].feature = static_cast<int>(best_feature);
  ctx.nodes[node_index].threshold = best.threshold;
  ctx.nodes[node_index].left = left;
  ctx.nodes[node_index].right = right;
  return node_index;
}

}  // namespace

ml::DecisionTreeRegressor exact_tree(const linalg::Matrix& x,
                                     const std::vector<double>& y,
                                     const std::vector<std::size_t>& rows,
                                     const ml::TreeOptions& options) {
  BuildContext ctx;
  ctx.x = &x;
  ctx.y = &y;
  ctx.options = options;
  ctx.importance.assign(x.cols(), 0.0);
  ctx.effective_max_depth = options.max_depth == 0 ? 64 : options.max_depth;

  std::vector<std::size_t> root_rows = rows;
  build(ctx, root_rows, 0);
  return ml::DecisionTreeRegressor::from_parts(options, std::move(ctx.nodes),
                                               std::move(ctx.importance));
}

namespace {

std::vector<ml::CompiledEnsemble::Tree> compile_all(
    const std::vector<ml::DecisionTreeRegressor>& trees) {
  std::vector<ml::CompiledEnsemble::Tree> out;
  for (const auto& tree : trees) {
    out.push_back(ml::CompiledEnsemble::compile_tree(tree.nodes(),
                                                     tree.raw_importance()));
  }
  return out;
}

}  // namespace

ml::GradientBoostingRegressor ExactGb::model() const {
  return ml::GradientBoostingRegressor::from_parts(
      learning_rate, base_prediction, compile_all(stages));
}

ExactGb exact_gb(const linalg::Matrix& x, const std::vector<double>& y,
                 int n_estimators, double learning_rate,
                 const ml::TreeOptions& tree_options) {
  const std::size_t n = x.rows();
  ExactGb gb;
  gb.learning_rate = learning_rate;
  for (double v : y) gb.base_prediction += v;
  gb.base_prediction /= static_cast<double>(n);

  std::vector<double> residual(n);
  for (std::size_t i = 0; i < n; ++i) residual[i] = y[i] - gb.base_prediction;

  std::vector<std::size_t> all_rows(n);
  for (std::size_t i = 0; i < n; ++i) all_rows[i] = i;
  for (int stage = 0; stage < n_estimators; ++stage) {
    ml::DecisionTreeRegressor tree =
        exact_tree(x, residual, all_rows, tree_options);
    exec::parallel_for(0, n, [&](std::size_t i) {
      residual[i] -= learning_rate * tree.predict_row(x.row_ptr(i));
    });
    gb.stages.push_back(std::move(tree));
  }
  return gb;
}

// Both walks start on a cache line, as DecisionTreeRegressor::predict_row
// does, so a bench timing them reads the same wherever they are linked.
[[gnu::aligned(64)]] std::vector<double> gb_walk(const ExactGb& gb,
                                                 const linalg::Matrix& x) {
  std::vector<double> out(x.rows(), gb.base_prediction);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    const double* row = x.row_ptr(i);
    double s = 0.0;
    for (const auto& tree : gb.stages) s += tree.predict_row(row);
    out[i] += gb.learning_rate * s;
  }
  return out;
}

ml::RandomForestRegressor ExactRf::model() const {
  return ml::RandomForestRegressor::from_parts(compile_all(trees));
}

ExactRf exact_rf(const linalg::Matrix& x, const std::vector<double>& y,
                 int n_estimators, const ml::TreeOptions& tree_options,
                 bool bootstrap, std::uint64_t seed) {
  const auto n = static_cast<std::size_t>(n_estimators);
  Rng seeder(seed);
  std::vector<std::uint64_t> tree_seeds(n);
  for (auto& s : tree_seeds) s = seeder.next();

  std::vector<std::size_t> all_rows(x.rows());
  for (std::size_t i = 0; i < all_rows.size(); ++i) all_rows[i] = i;
  ExactRf forest;
  forest.trees.resize(n);
  exec::parallel_for(0, n, [&](std::size_t t) {
    Rng rng(tree_seeds[t]);
    forest.trees[t] = exact_tree(
        x, y, bootstrap ? rng.bootstrap_indices(x.rows()) : all_rows,
        tree_options);
  });
  return forest;
}

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

[[gnu::aligned(64)]] std::vector<double> forest_walk(
    const ExactRf& forest, const linalg::Matrix& x) {
  const auto& trees = forest.trees;
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
