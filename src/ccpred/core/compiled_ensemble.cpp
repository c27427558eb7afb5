#include "ccpred/core/compiled_ensemble.hpp"

#include <algorithm>
#include <limits>

#include "ccpred/common/error.hpp"
#include "ccpred/core/gradient_boosting.hpp"
#include "ccpred/core/random_forest.hpp"

namespace ccpred::ml {

namespace {
/// Rows per block. The dominant cost of batch prediction is streaming the
/// flattened ensemble (which exceeds L2 for paper-sized models) once per
/// block, so the block is made large: the row data, index and accumulator
/// scratch (~44 bytes/row) still fit comfortably in L2 while the ensemble
/// is re-streamed n_rows / kRowBlock times instead of per row.
constexpr std::size_t kRowBlock = 4096;
}  // namespace

CompiledEnsemble CompiledEnsemble::flatten(
    const std::vector<DecisionTreeRegressor>& trees) {
  CCPRED_CHECK_MSG(!trees.empty(), "cannot compile an empty ensemble");
  CompiledEnsemble ce;
  std::size_t total_nodes = 0;
  for (const auto& tree : trees) total_nodes += tree.node_count();
  ce.nodes_.reserve(total_nodes);
  ce.feature_.reserve(total_nodes);
  ce.value_.reserve(total_nodes);
  ce.roots_.reserve(trees.size());
  ce.depths_.reserve(trees.size());

  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<std::int32_t> order;   // source indices in BFS order
  std::vector<std::int32_t> newidx;  // source index -> flat index
  for (const auto& tree : trees) {
    const auto& src = tree.nodes();
    const auto offset = static_cast<std::int32_t>(ce.nodes_.size());
    ce.roots_.push_back(offset);
    ce.depths_.push_back(tree.depth());

    // Breadth-first renumbering: a parent enqueues left then right, so
    // siblings land adjacent and the top levels — shared by every row's
    // descent — pack into few cache lines.
    order.assign(1, 0);
    order.reserve(src.size());
    newidx.resize(src.size());
    for (std::size_t qi = 0; qi < order.size(); ++qi) {
      const auto& node = src[static_cast<std::size_t>(order[qi])];
      newidx[static_cast<std::size_t>(order[qi])] =
          offset + static_cast<std::int32_t>(qi);
      if (!node.is_leaf()) {
        order.push_back(node.left);
        order.push_back(node.right);
      }
    }
    for (std::size_t qi = 0; qi < order.size(); ++qi) {
      const auto& node = src[static_cast<std::size_t>(order[qi])];
      const auto self = static_cast<std::int32_t>(ce.nodes_.size());
      ce.feature_.push_back(node.feature);
      ce.value_.push_back(node.value);
      // Leaves absorb into themselves with an always-true +inf compare, so
      // descent needs no termination branch. BFS numbering put siblings
      // adjacent: right child = left child + 1, no field needed.
      if (node.is_leaf()) {
        ce.nodes_.push_back(TravNode{kInf, 0, self});
      } else {
        CCPRED_CHECK_MSG(
            newidx[static_cast<std::size_t>(node.right)] ==
                newidx[static_cast<std::size_t>(node.left)] + 1,
            "BFS numbering must place siblings adjacently");
        ce.nodes_.push_back(
            TravNode{node.threshold, node.feature,
                     newidx[static_cast<std::size_t>(node.left)]});
        ce.min_cols_ = std::max(ce.min_cols_,
                                static_cast<std::size_t>(node.feature) + 1);
      }
    }
  }
  return ce;
}

CompiledEnsemble CompiledEnsemble::compile(
    const GradientBoostingRegressor& model) {
  CCPRED_CHECK_MSG(model.is_fitted(), "cannot compile an unfitted model");
  CompiledEnsemble ce = flatten(model.stages());
  ce.bias_ = model.base_prediction();
  ce.scale_ = model.learning_rate();
  ce.mean_ = false;
  return ce;
}

CompiledEnsemble CompiledEnsemble::compile(const RandomForestRegressor& model) {
  CCPRED_CHECK_MSG(model.is_fitted(), "cannot compile an unfitted model");
  CompiledEnsemble ce = flatten(model.trees());
  ce.mean_ = true;
  return ce;
}

void CompiledEnsemble::predict_batch(const double* x, std::size_t n_rows,
                                     std::size_t n_cols, double* out) const {
  CCPRED_CHECK_MSG(n_cols >= min_cols_,
                   "batch rows have " << n_cols << " columns; the model "
                                      << "splits on feature " << min_cols_ - 1);
  // The fixed-depth kernel's +inf leaf self-loop assumes comparisons with
  // NaN never happen (a NaN would drift off the leaf). Scan once — NaN is
  // the only hazard, infinities compare like the walk — and route such
  // batches through the termination-checked per-row path instead.
  bool has_nan = false;
  for (std::size_t i = 0; i < n_rows * n_cols && !has_nan; ++i) {
    has_nan = x[i] != x[i];
  }
  if (has_nan) {
    for (std::size_t i = 0; i < n_rows; ++i) out[i] = predict_row(x + i * n_cols);
    return;
  }

  const TravNode* nodes = nodes_.data();
  const double* value = value_.data();

  std::vector<std::int32_t> idx(std::min(kRowBlock, n_rows));
  std::vector<double> acc(std::min(kRowBlock, n_rows));
  for (std::size_t block = 0; block < n_rows; block += kRowBlock) {
    const std::size_t bn = std::min(kRowBlock, n_rows - block);
    std::fill(acc.begin(), acc.begin() + static_cast<std::ptrdiff_t>(bn), 0.0);
    const double* base = x + block * n_cols;
    // Tree-major over the block: one tree's nodes stay hot while every row
    // of the block descends it. The descent is level-synchronous — all
    // rows advance one step per pass for the tree's full depth (leaves
    // self-absorb), so the per-row node chases are independent and overlap
    // instead of serializing behind one row's dependent loads. Leaf values
    // accumulate per row in tree order, matching the walk bit-for-bit.
    for (std::size_t t = 0; t < roots_.size(); ++t) {
      std::fill(idx.begin(), idx.begin() + static_cast<std::ptrdiff_t>(bn),
                roots_[t]);
      for (std::int32_t d = 0; d < depths_[t]; ++d) {
        const double* row = base;
        for (std::size_t i = 0; i < bn; ++i, row += n_cols) {
          const TravNode& nd = nodes[idx[i]];
          idx[i] = nd.left +
                   static_cast<std::int32_t>(!(row[nd.tfeat] <= nd.threshold));
        }
      }
      for (std::size_t i = 0; i < bn; ++i) acc[i] += value[idx[i]];
    }
    double* o = out + block;
    if (mean_) {
      const auto count = static_cast<double>(roots_.size());
      for (std::size_t i = 0; i < bn; ++i) o[i] = acc[i] / count;
    } else {
      for (std::size_t i = 0; i < bn; ++i) o[i] = bias_ + scale_ * acc[i];
    }
  }
}

std::vector<double> CompiledEnsemble::predict_batch(
    const linalg::Matrix& x) const {
  std::vector<double> out(x.rows());
  predict_batch(x.data(), x.rows(), x.cols(), out.data());
  return out;
}

double CompiledEnsemble::predict_row(const double* row) const {
  double acc = 0.0;
  for (const std::int32_t root : roots_) {
    std::int32_t idx = root;
    // Terminates on feature_ like the reference walk, so a NaN feature
    // value takes the right child at every internal node — exactly the
    // walk's comparison semantics.
    while (feature_[idx] >= 0) {
      const TravNode& nd = nodes_[idx];
      idx = nd.left + static_cast<std::int32_t>(!(row[nd.tfeat] <= nd.threshold));
    }
    acc += value_[idx];
  }
  if (mean_) return acc / static_cast<double>(roots_.size());
  return bias_ + scale_ * acc;
}

}  // namespace ccpred::ml
