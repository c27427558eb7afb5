#pragma once

/// \file decision_tree.hpp
/// CART regression tree (paper §3.1 "DT"): axis-aligned variance-reduction
/// splits. The shared base learner of the random-forest, gradient-boosting
/// and AdaBoost ensembles.
///
/// Two split-finding modes (TreeOptions::split_mode):
///  - kExact (default/reference): every midpoint between adjacent distinct
///    feature values is a candidate threshold. The features are ranked once
///    per fit (FeatureRanks), each tree sorts its rows once by target and
///    buckets them by rank into per-feature (value, target) orders, and
///    every split stable-partitions those orders between its children, so
///    no node sorts: a subsequence of a sorted order is still sorted.
///  - kHistogram: features are quantile-binned once per fit (FeatureBins),
///    each node accumulates per-bin (count, sum) gradient histograms and
///    scans bin boundaries; the sibling histogram is derived by subtracting
///    the scanned child from the parent ("histogram subtraction" trick), so
///    each level costs one pass over the smaller halves only. Thresholds
///    are real feature values, so the fitted tree predicts through the same
///    TreeNode structure and serializes identically to exact mode.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ccpred/common/rng.hpp"
#include "ccpred/core/regressor.hpp"

namespace ccpred::exec {
class Arena;
}

namespace ccpred::ml {

/// Split-finding strategy for tree training.
enum class SplitMode {
  kExact = 0,      ///< exact scans of presorted orders (reference)
  kHistogram = 1,  ///< quantile-binned histogram splits (fast)
};

/// Hyper-parameters of a CART regression tree.
struct TreeOptions {
  int max_depth = 10;          ///< 0 means unlimited (capped at 64)
  int min_samples_split = 2;   ///< don't split nodes smaller than this
  int min_samples_leaf = 1;    ///< each child must keep at least this many
  int max_features = 0;        ///< features tried per split; 0 = all
  std::uint64_t seed = 1;      ///< feature-subsampling stream
  SplitMode split_mode = SplitMode::kExact;
  int max_bins = 255;          ///< histogram mode: max quantile bins/feature
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

/// Quantile-binned view of a feature matrix, computed once per ensemble fit
/// and shared by every member tree (the expensive part of histogram
/// training — one sort per feature — is paid once, not per tree).
///
/// Bin semantics: feature f has bin_count(f) bins separated by
/// bin_count(f) - 1 ascending edges; code(r, f) <= b  ⇔  x(r, f) <=
/// upper_edge(f, b), so a histogram split "code <= b" is exactly the raw
/// threshold upper_edge(f, b). Edges are midpoints between distinct data
/// values, so when a feature has at most max_bins distinct values (the
/// menu-structured paper features always do) the candidate-threshold set
/// equals exact mode's.
class FeatureBins {
 public:
  /// Bins every column of `x` into at most `max_bins` quantile bins.
  static FeatureBins build(const linalg::Matrix& x, int max_bins);

  std::size_t rows() const { return n_; }
  std::size_t cols() const { return d_; }

  int bin_count(std::size_t f) const {
    return offsets_[f + 1] - offsets_[f];
  }
  /// Start of feature f's bin range in a flattened histogram.
  int offset(std::size_t f) const { return offsets_[f]; }
  /// Total bins across all features (flattened histogram length).
  int total_bins() const { return offsets_.back(); }

  /// Bin index of x(r, f), in [0, bin_count(f)).
  std::uint16_t code(std::size_t r, std::size_t f) const {
    return codes_[r * d_ + f];
  }
  /// Pointer to row r's codes (d consecutive values).
  const std::uint16_t* row_codes(std::size_t r) const {
    return codes_.data() + r * d_;
  }

  /// Raw-value threshold of the split "code(., f) <= bin";
  /// requires bin in [0, bin_count(f) - 1).
  double upper_edge(std::size_t f, int bin) const {
    return edges_[f][static_cast<std::size_t>(bin)];
  }

 private:
  std::size_t n_ = 0;
  std::size_t d_ = 0;
  std::vector<int> offsets_;                ///< d + 1 prefix sums
  std::vector<std::vector<double>> edges_;  ///< per feature, bin_count - 1
  std::vector<std::uint16_t> codes_;        ///< n * d, row-major
};

/// Dense per-feature ranks of a feature matrix, computed once per ensemble
/// fit and shared by every member tree: the one sort of the feature values
/// that exact mode pays. rank(r, f) is the number of distinct values of
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
/// "min_samples_leaf", "max_features", "split_mode" (0 exact /
/// 1 histogram), "max_bins".
class DecisionTreeRegressor : public Regressor {
 public:
  explicit DecisionTreeRegressor(TreeOptions options = {});

  void fit(const linalg::Matrix& x, const std::vector<double>& y) override;

  /// Fits on a subset of rows (rows may repeat, as in a bootstrap).
  /// Dispatches on options().split_mode; exact mode ranks `x` first,
  /// histogram mode bins it. Throws ccpred::Error on a row index out of
  /// range, a non-finite target or, in exact mode, a non-finite feature.
  void fit_rows(const linalg::Matrix& x, const std::vector<double>& y,
                const std::vector<std::size_t>& rows);

  /// Exact-mode fit on a pre-ranked matrix (the ensembles rank once and
  /// share the FeatureRanks across members/stages); `ranks` must be
  /// FeatureRanks::build(x). Ignores split_mode. `train_pred` and `arena`
  /// work as in fit_binned: the leaves write their means for their rows,
  /// routed by predict_row's own comparison, and all fit scratch (the row
  /// list, the per-feature orders, the routing flags) bump-allocates from
  /// the arena, which this call resets.
  void fit_presorted(const linalg::Matrix& x, const FeatureRanks& ranks,
                     const std::vector<double>& y,
                     const std::vector<std::size_t>& rows,
                     double* train_pred = nullptr,
                     exec::Arena* arena = nullptr);

  /// Histogram-mode fit on a pre-binned matrix (the ensembles bin once and
  /// share the FeatureBins across members/stages). Ignores split_mode.
  /// When `train_pred` is non-null it receives, for every index in `rows`,
  /// the fitted tree's prediction for that row (train_pred[r] = leaf mean;
  /// other entries are untouched). These are read off the training
  /// partition, so they equal predict_row on the same row bit-for-bit —
  /// gradient boosting uses them to update residuals without re-walking
  /// the tree per row per stage.
  /// All fit scratch (row partitions, flattened histograms, scan buffers)
  /// bump-allocates from `arena` when one is passed — the ensembles hand in
  /// a reused per-task arena so repeated fits stop calling malloc. The
  /// arena is reset by this call: it must not hold the caller's live
  /// allocations. When null, a reused thread-local arena is used.
  void fit_binned(const FeatureBins& bins, const std::vector<double>& y,
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

  /// Fitted tree structure (flattened nodes) — used by serialization and
  /// the compiled-ensemble flattener.
  const std::vector<TreeNode>& nodes() const { return nodes_; }

  /// Reconstructs a fitted tree from its parts (serialization loader).
  /// `raw_importance` holds the unnormalized per-feature gain sums.
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

  struct Histogram;
  struct HistContext;
  /// Builds the subtree over arena rows [lo, hi). `sum` is the node's
  /// target total (threaded down from the parent's split scan instead of
  /// re-summed per node) and `hist` its gradient histogram — or nullptr
  /// once the subtree is small enough that per-feature scans rebuilt from
  /// the rows beat maintaining full-width histograms (the "direct" mode;
  /// identical bin sums in the same order, so the fitted tree is
  /// unchanged).
  int build_hist(HistContext& ctx, std::size_t lo, std::size_t hi, double sum,
                 Histogram* hist, int depth);

  TreeOptions options_;
  std::vector<TreeNode> nodes_;
  std::vector<double> importance_;  ///< raw per-feature gain sums
};

}  // namespace ccpred::ml
