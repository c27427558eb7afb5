#pragma once

/// \file compiled_ensemble.hpp
/// Flattened tree-ensemble inference engine.
///
/// A fitted GB/RF model stores each member tree as its own node vector;
/// the reference predict path pointer-chases tree-by-tree per row, which
/// streams the whole ensemble's scattered working set once per row.
/// CompiledEnsemble flattens all trees into contiguous SoA arrays
/// (feature / threshold / left / right / value, child indices rebased to
/// the flat array) and predicts row-blocks tree-major: for each tree, all
/// rows of the block descend while that tree's nodes are hot in cache.
///
/// Predictions are bit-identical to the tree-walk path: per row, leaf
/// values accumulate in the same tree order with the same comparisons, and
/// the final transform replicates the walk's expression exactly
/// (GB: bias + rate * sum; RF: sum / tree_count).

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ccpred/common/aligned.hpp"
#include "ccpred/linalg/matrix.hpp"

namespace ccpred::ml {

class GradientBoostingRegressor;
class RandomForestRegressor;
class DecisionTreeRegressor;

class CompiledEnsemble {
 public:
  /// Flattens a fitted gradient-boosting model
  /// (out = base_prediction + learning_rate * sum of stage leaves).
  static CompiledEnsemble compile(const GradientBoostingRegressor& model);

  /// Flattens a fitted random forest (out = sum of tree leaves / trees).
  static CompiledEnsemble compile(const RandomForestRegressor& model);

  /// Batch prediction over every row of `x` (cols = trained feature count).
  std::vector<double> predict_batch(const linalg::Matrix& x) const;

  /// Raw-pointer variant: `x` is row-major n_rows x n_cols, `out` has room
  /// for n_rows values. Throws ccpred::Error when n_cols does not cover the
  /// widest split feature (a row would be read past its end).
  void predict_batch(const double* x, std::size_t n_rows, std::size_t n_cols,
                     double* out) const;

  /// Single-row prediction (same result as predict_batch on one row).
  double predict_row(const double* row) const;

  std::size_t tree_count() const { return roots_.size(); }
  std::size_t node_count() const { return feature_.size(); }

 private:
  static CompiledEnsemble flatten(const std::vector<DecisionTreeRegressor>& trees);

  /// One traversal node, packed to 16 bytes (4 per cache line) so each
  /// descent step costs three loads: the node pair, and one row value.
  /// Breadth-first numbering makes siblings adjacent, so only the left
  /// child is stored and right = left + 1. Leaves are self-absorbing
  /// (threshold +inf, left = self), so the batch loop runs a fixed
  /// per-tree step count with no per-row termination branch — the
  /// independent chases across a row block overlap in the memory pipeline.
  /// The +inf leaf compare goes wrong only for NaN feature values;
  /// predict_batch pre-scans for NaN and falls back to predict_row (which
  /// terminates on feature_ and is NaN-exact) for such batches.
  struct TravNode {
    double threshold;
    std::int32_t tfeat;  ///< split feature (0 for leaves)
    std::int32_t left;   ///< flat index of the left child (self for leaves)
  };
  static_assert(sizeof(TravNode) == 16, "four nodes per cache line");

  // Nodes of all trees, renumbered breadth-first per tree so siblings are
  // adjacent and the heavily-shared top levels pack densely. Cache-line
  // aligned, so each 16-byte node sits inside one line.
  AlignedVector<TravNode> nodes_;
  std::vector<std::int32_t> feature_;  ///< -1 for leaves (predict_row stop)
  AlignedVector<double> value_;        ///< leaf payload (0 for internal)
  std::vector<std::int32_t> roots_;    ///< root node index per tree
  std::vector<std::int32_t> depths_;   ///< descent steps per tree
  std::size_t min_cols_ = 0;  ///< widest split feature + 1: columns a row needs

  // Final transform: mean_ ? acc / tree_count : bias_ + scale_ * acc.
  double bias_ = 0.0;
  double scale_ = 1.0;
  bool mean_ = false;
};

}  // namespace ccpred::ml
