#pragma once

/// \file compiled_ensemble.hpp
/// The tree store of a fitted GB/RF model, and its inference engine.
///
/// A fitted GradientBoostingRegressor or RandomForestRegressor keeps its
/// trees here and nowhere else: the fit compiles each member as soon as it
/// is built, the artifact loader compiles each parsed tree, and the writer
/// reads the trees back out in the builder's depth-first order
/// (preorder()).
/// Each tree is one Tree: its nodes renumbered breadth-first into three
/// per-slot arrays held in one exact allocation (an 8-byte value, a 4-byte
/// left child and a 1-byte split feature, 13 bytes a node) and its raw
/// per-feature importance. A slot's value is an internal node's threshold
/// or a leaf's prediction; the mean target a builder keeps at an internal
/// node is dropped, since no prediction reads it. Batch prediction walks
/// row-blocks tree-major: for each tree, all rows of the block descend
/// while that tree's nodes are hot in cache.
///
/// Predictions are bit-identical to the tree walk: per row, leaf values
/// accumulate in the same tree order with the same comparisons, and the
/// final transform replicates the walk's expression exactly
/// (GB: bias + rate * sum; RF: sum / tree_count).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "ccpred/core/decision_tree.hpp"
#include "ccpred/linalg/matrix.hpp"

namespace ccpred::ml {

class CompiledEnsemble {
 public:
  /// The widest model a store holds: a split feature is kept in one byte
  /// as feature + 1, because 0 marks a leaf.
  static constexpr std::size_t kMaxFeatures = 255;

  /// One member tree, compiled on its own (inside a parallel fit task, for
  /// example) and then handed to boosted() or averaged(). Slots are local
  /// to the tree; the root is slot 0.
  ///
  /// Breadth-first numbering makes siblings adjacent, so only the left
  /// child is stored and a step goes to left + !(x <= value). A leaf has
  /// feature slot 0 and left = self - 1. The batch kernel reads rows with
  /// a NaN column in front, the one slot 0 names, and no comparison with
  /// NaN holds, so every step from a leaf lands on the leaf itself and a
  /// row's prediction is the value of the slot it rests on. The batch loop
  /// therefore runs a fixed per-tree step count with no per-row
  /// termination branch: the independent chases across a row block overlap
  /// in the memory pipeline.
  class Tree {
    friend class CompiledEnsemble;
    /// size_ values, then size_ left children, then size_ feature slots;
    /// written only by compile_tree.
    std::unique_ptr<std::byte[]> slots_;
    std::int32_t size_ = 0;
    std::int32_t depth_ = 0;          ///< descent steps from the root
    std::vector<double> importance_;  ///< raw per-feature gain sums

    /// Threshold of an internal slot; prediction of a leaf.
    double* value() const { return reinterpret_cast<double*>(slots_.get()); }
    /// Slot of the left child (self - 1 for a leaf).
    std::int32_t* left() const {
      return reinterpret_cast<std::int32_t*>(value() + size_);
    }
    /// Split feature + 1; 0 for a leaf.
    std::uint8_t* feature() const {
      return reinterpret_cast<std::uint8_t*>(left() + size_);
    }
  };

  /// Throws ccpred::Error naming `what` (the model or tree) and the width
  /// unless a model `features` wide fits a store (at most kMaxFeatures).
  static void check_width(std::size_t features, std::string_view what);

  /// Compiles one tree given as a builder emits it: `nodes` must pass
  /// check_tree_parts(nodes, raw_importance.size(), ...). Internal nodes'
  /// values are not kept. Throws as check_width does on a tree wider than
  /// kMaxFeatures.
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
  /// `{feature -1, threshold 0, value, left -1, right -1}` and internal
  /// nodes value 0, since the store keeps no internal values. Replaces the
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
