#include "ccpred/core/compiled_ensemble.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "ccpred/common/error.hpp"

namespace ccpred::ml {

namespace {
/// Rows per block. The dominant cost of batch prediction is streaming the
/// ensemble's nodes (which exceed L2 for paper-sized models) once per
/// block, so the block is made large: the row copy, index and accumulator
/// scratch (~52 bytes/row for the paper's four features) still fit
/// comfortably in L2 while the ensemble is re-streamed n_rows / kRowBlock
/// times instead of per row.
constexpr std::size_t kRowBlock = 4096;
}  // namespace

void CompiledEnsemble::check_width(std::size_t features,
                                   std::string_view what) {
  CCPRED_REQUIRE(features <= kMaxFeatures,
                 what << ": " << features << " features; a tree model holds "
                      << "at most " << kMaxFeatures);
}

CompiledEnsemble::Tree CompiledEnsemble::compile_tree(
    std::span<const TreeNode> nodes, std::vector<double> raw_importance) {
  check_width(raw_importance.size(), "compiled tree");
  const auto n = static_cast<std::int32_t>(nodes.size());
  Tree tree;
  tree.size_ = n;
  tree.slots_ = std::make_unique_for_overwrite<std::byte[]>(
      nodes.size() * (sizeof(double) + sizeof(std::int32_t) + 1));
  tree.importance_ = std::move(raw_importance);
  double* value = tree.value();
  std::int32_t* left = tree.left();
  std::uint8_t* feature = tree.feature();

  // Breadth-first renumbering: a parent takes the next two free slots for
  // its left and right child, so siblings land adjacent and the top
  // levels — shared by every row's descent — pack into few cache lines.
  // A slot not yet compiled holds its source index in `left`.
  left[0] = 0;
  std::int32_t next = 1;       // next free slot
  std::int32_t level_end = 1;  // one past the last slot of the current level
  for (std::int32_t q = 0; q < n; ++q) {
    if (q == level_end) {
      ++tree.depth_;
      level_end = next;
    }
    const TreeNode& src = nodes[left[q]];
    if (src.is_leaf()) {
      value[q] = src.value;
      left[q] = q - 1;
      feature[q] = 0;
      continue;
    }
    left[next] = src.left;
    left[next + 1] = src.right;
    value[q] = src.threshold;
    left[q] = next;
    feature[q] = static_cast<std::uint8_t>(src.feature + 1);
    next += 2;
  }
  return tree;
}

CompiledEnsemble::CompiledEnsemble(std::vector<Tree> trees, double bias,
                                   double scale, bool mean)
    : trees_(std::move(trees)), bias_(bias), scale_(scale), mean_(mean) {
  CCPRED_CHECK_MSG(!trees_.empty(), "cannot compile an empty ensemble");
  for (const Tree& tree : trees_) {
    const std::uint8_t* feature = tree.feature();
    for (std::int32_t q = 0; q < tree.size_; ++q) {
      min_cols_ = std::max(min_cols_, static_cast<std::size_t>(feature[q]));
    }
  }
}

CompiledEnsemble CompiledEnsemble::boosted(std::vector<Tree> trees,
                                           double bias, double scale) {
  return CompiledEnsemble(std::move(trees), bias, scale, false);
}

CompiledEnsemble CompiledEnsemble::averaged(std::vector<Tree> trees) {
  return CompiledEnsemble(std::move(trees), 0.0, 1.0, true);
}

std::size_t CompiledEnsemble::node_count() const {
  std::size_t total = 0;
  for (const Tree& tree : trees_) {
    total += static_cast<std::size_t>(tree.size_);
  }
  return total;
}

void CompiledEnsemble::predict_batch(const double* x, std::size_t n_rows,
                                     std::size_t n_cols, double* out) const {
  // A model loaded from an artifact may be wider than the rows it is
  // asked about, so the message carries no checked expression or path.
  CCPRED_REQUIRE(n_cols >= min_cols_,
                 "batch rows have " << n_cols << " columns; the model "
                                    << "splits on feature " << min_cols_ - 1);
  // Each block's rows are copied with a NaN column in front, the one a
  // leaf's feature slot 0 reads, and only as wide as the model reads.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  const std::size_t stride = min_cols_ + 1;
  std::vector<double> rows(std::min(kRowBlock, n_rows) * stride);
  std::vector<std::int32_t> idx(std::min(kRowBlock, n_rows));
  std::vector<double> acc(std::min(kRowBlock, n_rows));
  for (std::size_t block = 0; block < n_rows; block += kRowBlock) {
    const std::size_t bn = std::min(kRowBlock, n_rows - block);
    const double* src = x + block * n_cols;
    for (std::size_t i = 0; i < bn; ++i, src += n_cols) {
      rows[i * stride] = kNaN;
      std::copy_n(src, min_cols_, rows.data() + i * stride + 1);
    }
    std::fill(acc.begin(), acc.begin() + static_cast<std::ptrdiff_t>(bn), 0.0);
    // Tree-major over the block: one tree's nodes stay hot while every row
    // of the block descends it. The descent is level-synchronous — all
    // rows advance one step per pass for the tree's full depth (leaves
    // self-absorb), so the per-row node chases are independent and overlap
    // instead of serializing behind one row's dependent loads. Leaf values
    // accumulate per row in tree order, matching the walk bit-for-bit.
    for (const Tree& tree : trees_) {
      const double* value = tree.value();
      const std::int32_t* left = tree.left();
      const std::uint8_t* feature = tree.feature();
      std::fill(idx.begin(), idx.begin() + static_cast<std::ptrdiff_t>(bn), 0);
      for (std::int32_t d = 0; d < tree.depth_; ++d) {
        const double* row = rows.data();
        for (std::size_t i = 0; i < bn; ++i, row += stride) {
          const std::int32_t q = idx[i];
          idx[i] = left[q] +
                   static_cast<std::int32_t>(!(row[feature[q]] <= value[q]));
        }
      }
      for (std::size_t i = 0; i < bn; ++i) acc[i] += value[idx[i]];
    }
    double* o = out + block;
    if (mean_) {
      const auto count = static_cast<double>(trees_.size());
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
  return predict_row(row, trees_.size());
}

double CompiledEnsemble::predict_row(const double* row,
                                     std::size_t trees) const {
  CCPRED_CHECK_MSG(trees <= trees_.size(), "tree count out of range");
  double acc = 0.0;
  for (std::size_t t = 0; t < trees; ++t) {
    const double* value = trees_[t].value();
    const std::int32_t* left = trees_[t].left();
    const std::uint8_t* feature = trees_[t].feature();
    std::int32_t q = 0;
    // Stops at the leaf, so a NaN feature value takes the right child at
    // every internal node — exactly the walk's comparison semantics.
    while (feature[q] != 0) {
      q = left[q] +
          static_cast<std::int32_t>(!(row[feature[q] - 1] <= value[q]));
    }
    acc += value[q];
  }
  if (mean_) return acc / static_cast<double>(trees);
  return bias_ + scale_ * acc;
}

std::vector<double> CompiledEnsemble::feature_importances() const {
  std::vector<double> out;
  for (const Tree& tree : trees_) {
    const std::vector<double>& imp = tree.importance_;
    double total = 0.0;
    for (double v : imp) total += v;
    if (out.size() < imp.size()) out.resize(imp.size(), 0.0);
    for (std::size_t c = 0; c < imp.size(); ++c) {
      out[c] += total > 0.0 ? imp[c] / total : imp[c];
    }
  }
  double total = 0.0;
  for (double v : out) total += v;
  if (total > 0.0) {
    for (auto& v : out) v /= total;
  }
  return out;
}

void CompiledEnsemble::preorder(std::size_t t,
                                std::vector<TreeNode>& out) const {
  const Tree& tree = trees_[t];
  const double* value = tree.value();
  const std::int32_t* left = tree.left();
  const std::uint8_t* feature = tree.feature();
  out.clear();
  out.reserve(static_cast<std::size_t>(tree.size_));
  // An explicit stack of (slot, pre-order position of the parent whose
  // right child the slot is, or -1): a loaded tree may be deeper than the
  // call stack allows. The right child is pushed first, so the whole left
  // subtree is written before it.
  std::vector<std::pair<std::int32_t, std::int32_t>> stack = {{0, -1}};
  while (!stack.empty()) {
    const auto [q, parent] = stack.back();
    stack.pop_back();
    const auto pos = static_cast<std::int32_t>(out.size());
    if (parent >= 0) out[parent].right = pos;
    if (feature[q] == 0) {
      out.push_back(TreeNode{.value = value[q]});
      continue;
    }
    out.push_back(TreeNode{.feature = feature[q] - 1,
                           .threshold = value[q],
                           .left = pos + 1});
    stack.push_back({left[q] + 1, pos});
    stack.push_back({left[q], -1});
  }
}

}  // namespace ccpred::ml
