#pragma once

/// \file decision_tree.hpp
/// CART regression tree (paper §3.1 "DT"): axis-aligned variance-reduction
/// splits. The shared base learner of the random-forest, gradient-boosting
/// and AdaBoost ensembles.
///
/// Splits are exact: every midpoint between adjacent distinct feature
/// values is a candidate threshold, as in scikit-learn's CART. The features
/// are ranked once per fit (FeatureRanks), each tree sorts its rows once by
/// target and buckets them by rank into per-feature (value, target) orders,
/// and every split stable-partitions those orders between its children, so
/// no node sorts: a subsequence of a sorted order is still sorted.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "ccpred/core/regressor.hpp"

namespace ccpred::exec {
class Arena;
}

namespace ccpred::ml {

/// Hyper-parameters of a CART regression tree.
struct TreeOptions {
  int max_depth = 10;          ///< 0 means unlimited (capped at 64)
  int min_samples_split = 2;   ///< don't split nodes smaller than this
  int min_samples_leaf = 1;    ///< each child must keep at least this many
};

/// Flattened tree node; children referenced by index into the node array.
struct TreeNode {
  int feature = -1;        ///< split feature, -1 for leaves
  double threshold = 0.0;  ///< go left if x[feature] <= threshold
  double value = 0.0;      ///< leaf prediction (mean of samples)
  int left = -1;
  int right = -1;

  bool is_leaf() const { return feature < 0; }
};

/// Throws ccpred::Error unless `nodes` form a pre-order tree, as every
/// builder emits: at least one node, each internal node's children in
/// range and after it, every node but the root the child of exactly one
/// internal node (so a malformed artifact cannot loop, share subtrees or
/// hold a node no descent reaches), and every split feature below
/// `n_features`, the model's feature width. The nodes come
/// from an artifact, so a message names the record being read (`what`,
/// for example "GB model file: stage 3") and the node, and carries no
/// checked expression or source path.
void check_tree_parts(std::span<const TreeNode> nodes, std::size_t n_features,
                      std::string_view what);

/// Dense per-feature ranks of a feature matrix, computed once per ensemble
/// fit and shared by every member tree: the one sort of the feature values
/// that a fit pays. rank(r, f) is the number of distinct values of
/// column f below x(r, f), so equal values share a rank and rank order is
/// value order.
class FeatureRanks {
 public:
  /// Ranks every column of `x`. Throws ccpred::Error on a non-finite value
  /// (NaN has no place in the order).
  static FeatureRanks build(const linalg::Matrix& x);

  std::size_t rows() const { return n_; }
  std::size_t cols() const { return d_; }

  /// Number of distinct values in column f; its ranks are 0 .. distinct - 1.
  std::uint32_t distinct(std::size_t f) const { return distinct_[f]; }
  /// Column f's ranks, indexed by row.
  const std::uint32_t* column(std::size_t f) const {
    return ranks_.data() + f * n_;
  }

 private:
  std::size_t n_ = 0;
  std::size_t d_ = 0;
  std::vector<std::uint32_t> distinct_;  ///< per feature
  std::vector<std::uint32_t> ranks_;     ///< d * n, feature-major
};

/// CART regressor. Parameters: "max_depth", "min_samples_split",
/// "min_samples_leaf". Every split tries every feature.
class DecisionTreeRegressor : public Regressor {
 public:
  explicit DecisionTreeRegressor(TreeOptions options = {});

  void fit(const linalg::Matrix& x, const std::vector<double>& y) override;

  /// Fits on a subset of rows (rows may repeat, as in a bootstrap): ranks
  /// `x` and calls fit_presorted. Throws ccpred::Error on a row index out
  /// of range, a non-finite target or a non-finite feature.
  void fit_rows(const linalg::Matrix& x, const std::vector<double>& y,
                const std::vector<std::size_t>& rows);

  /// Fit on a pre-ranked matrix (the ensembles rank once and share the
  /// FeatureRanks across members/stages); `ranks` must be
  /// FeatureRanks::build(x). When `train_pred` is non-null it receives, for
  /// every index in `rows`, the fitted tree's prediction for that row
  /// (train_pred[r] = leaf mean; other entries are untouched). The leaves
  /// write their means for their rows, routed by predict_row's own
  /// comparison, so they equal predict_row on the same row bit-for-bit:
  /// gradient boosting uses them to update residuals without re-walking the
  /// tree per row per stage. All fit scratch (the row list, the per-feature
  /// orders, the routing flags) bump-allocates from `arena` when one is
  /// passed; the ensembles hand in a reused per-task arena so repeated fits
  /// stop calling malloc. The arena is reset by this call: it must not hold
  /// the caller's live allocations. When null, a reused thread-local arena
  /// is used.
  void fit_presorted(const linalg::Matrix& x, const FeatureRanks& ranks,
                     const std::vector<double>& y,
                     const std::vector<std::size_t>& rows,
                     double* train_pred = nullptr,
                     exec::Arena* arena = nullptr);

  std::vector<double> predict(const linalg::Matrix& x) const override;
  std::unique_ptr<Regressor> clone() const override;
  const std::string& name() const override;
  void set_params(const ParamMap& params) override;
  bool is_fitted() const override { return !nodes_.empty(); }

  /// Prediction for one row given as a raw pointer (hot path in ensembles).
  double predict_row(const double* row) const;

  /// Number of nodes in the fitted tree.
  std::size_t node_count() const { return nodes_.size(); }

  /// Impurity-based feature importances: per-feature sum of the variance
  /// reduction its splits achieved, normalized to sum to 1 (all zeros for
  /// a single-leaf tree). Requires fit().
  std::vector<double> feature_importances() const;

  /// Fitted tree structure (flattened nodes, pre-order) — used by
  /// serialization and CompiledEnsemble::compile_tree.
  const std::vector<TreeNode>& nodes() const { return nodes_; }

  /// Reconstructs a fitted tree from its parts (serialization loader).
  /// `raw_importance` holds the unnormalized per-feature gain sums, one per
  /// feature. Throws ccpred::Error unless
  /// check_tree_parts(nodes, raw_importance.size(), "tree file") passes.
  static DecisionTreeRegressor from_parts(TreeOptions options,
                                          std::vector<TreeNode> nodes,
                                          std::vector<double> raw_importance);

  /// Unnormalized per-feature gain sums (serialization writer).
  const std::vector<double>& raw_importance() const { return importance_; }
  /// Depth of the fitted tree.
  int depth() const;
  const TreeOptions& options() const { return options_; }

 private:
  struct PresortContext;
  /// Builds the subtree over positions [lo, hi) of the context's row list
  /// and of every feature's sorted order.
  int build_presorted(PresortContext& ctx, std::size_t lo, std::size_t hi,
                      int depth);

  TreeOptions options_;
  std::vector<TreeNode> nodes_;
  std::vector<double> importance_;  ///< raw per-feature gain sums
};

}  // namespace ccpred::ml
