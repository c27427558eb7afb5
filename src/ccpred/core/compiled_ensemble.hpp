#pragma once

/// \file compiled_ensemble.hpp
/// The tree store of a fitted GB/RF model, and its inference engine.
///
/// A fitted GradientBoostingRegressor or RandomForestRegressor keeps its
/// trees here and nowhere else: the fit compiles each member as soon as it
/// is built, the artifact loader compiles each parsed tree, and the writer
/// reads the trees back out in the builder's depth-first order
/// (preorder()).
/// Each tree is one Tree block: its nodes renumbered breadth-first in one
/// exact allocation of 16-byte nodes, a leaf holding its value in place of
/// a threshold; the internal nodes' values in another (8 bytes each; only
/// the artifact writes them); and its raw per-feature importance. That is
/// about 20 bytes a node, since a binary tree has one internal node fewer
/// than it has leaves. Batch prediction walks row-blocks tree-major: for
/// each tree, all rows of the block descend while that tree's nodes are
/// hot in cache.
///
/// Predictions are bit-identical to the tree walk: per row, leaf values
/// accumulate in the same tree order with the same comparisons, and the
/// final transform replicates the walk's expression exactly
/// (GB: bias + rate * sum; RF: sum / tree_count).

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "ccpred/common/aligned.hpp"
#include "ccpred/core/decision_tree.hpp"
#include "ccpred/linalg/matrix.hpp"

namespace ccpred::ml {

class CompiledEnsemble {
  /// One traversal node, packed to 16 bytes (4 per cache line) so each
  /// descent step costs three loads: the node pair, and one row value.
  /// Breadth-first numbering makes siblings adjacent, so only the left
  /// child is stored and a step goes to left + !(x <= threshold). An
  /// internal node stores its split feature plus one, because the batch
  /// kernel reads rows with a NaN column in front; a leaf stores feature
  /// slot 0, left = self - 1 and its value in the threshold slot. No
  /// comparison with NaN holds, so every step from a leaf lands on the
  /// leaf itself, and a row's leaf value is the threshold of the node it
  /// rests on. The batch loop therefore runs a fixed per-tree step count
  /// with no per-row termination branch — the independent chases across a
  /// row block overlap in the memory pipeline.
  struct TravNode {
    double threshold;    ///< go left if x[tfeat - 1] <= threshold; leaf value
    std::int32_t tfeat;  ///< split feature + 1; 0 for leaves
    std::int32_t left;   ///< index of the left child (self - 1 for leaves)
  };
  static_assert(sizeof(TravNode) == 16, "four nodes per cache line");

 public:
  /// One member tree, compiled on its own (inside a parallel fit task, for
  /// example) and then handed to boosted() or averaged(). Node indices are
  /// local to the tree; the root is node 0.
  class Tree {
    friend class CompiledEnsemble;
    /// Cache-line aligned, so each 16-byte node sits inside one line.
    AlignedVector<TravNode> nodes_;
    /// The internal nodes' values, dense: the node whose children sit at
    /// left and left + 1 holds split_value_[(left - 1) / 2], because
    /// compile_tree hands out child pairs in slot order from slot 1.
    std::vector<double> split_value_;
    std::vector<double> importance_;  ///< raw per-feature gain sums
    std::int32_t depth_ = 0;          ///< descent steps from the root
  };

  /// Compiles one tree given as a builder emits it: `nodes` must pass
  /// check_tree_parts(nodes, raw_importance.size(), ...).
  static Tree compile_tree(std::span<const TreeNode> nodes,
                           std::vector<double> raw_importance);

  /// The store of a boosted model: out = bias + scale * (sum of the
  /// trees' leaves), trees in the given order. Needs at least one tree.
  static CompiledEnsemble boosted(std::vector<Tree> trees, double bias,
                                  double scale);

  /// The store of a forest: out = (sum of the trees' leaves) / tree count.
  static CompiledEnsemble averaged(std::vector<Tree> trees);

  /// Batch prediction over every row of `x` (cols = trained feature count).
  std::vector<double> predict_batch(const linalg::Matrix& x) const;

  /// Raw-pointer variant: `x` is row-major n_rows x n_cols, `out` has room
  /// for n_rows values. Throws ccpred::Error when n_cols does not cover the
  /// widest split feature (a row would be read past its end).
  void predict_batch(const double* x, std::size_t n_rows, std::size_t n_cols,
                     double* out) const;

  /// Single-row prediction (same result as predict_batch on one row).
  double predict_row(const double* row) const;

  /// The prediction of the first `trees` trees alone (a boosted model's
  /// staged prediction), walking each tree with the same comparisons.
  double predict_row(const double* row, std::size_t trees) const;

  /// Mean impurity-based feature importances: each tree's raw importance
  /// normalized to sum to 1 (kept as is when its sum is not positive),
  /// summed over the trees, and the sum normalized again.
  std::vector<double> feature_importances() const;

  /// Tree `t` as the builder emits it: depth-first pre-order, left subtree
  /// first, so node i's left child is i + 1; leaves read
  /// `{feature -1, threshold 0, value, left -1, right -1}`. Replaces the
  /// contents of `out`.
  void preorder(std::size_t t, std::vector<TreeNode>& out) const;

  /// Tree `t`'s raw per-feature gain sums.
  const std::vector<double>& raw_importance(std::size_t t) const {
    return trees_[t].importance_;
  }

  std::size_t tree_count() const { return trees_.size(); }
  std::size_t node_count() const;

 private:
  CompiledEnsemble(std::vector<Tree> trees, double bias, double scale,
                   bool mean);

  std::vector<Tree> trees_;
  std::size_t min_cols_ = 0;  ///< widest split feature + 1: columns a row needs

  // Final transform: mean_ ? acc / tree_count : bias_ + scale_ * acc.
  double bias_ = 0.0;
  double scale_ = 1.0;
  bool mean_ = false;
};

}  // namespace ccpred::ml
