#include "ccpred/core/decision_tree.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>

#include "ccpred/common/error.hpp"
#include "ccpred/exec/arena.hpp"

namespace ccpred::ml {

DecisionTreeRegressor::DecisionTreeRegressor(TreeOptions options)
    : options_(options) {
  CCPRED_CHECK_MSG(options_.max_depth >= 0, "max_depth must be >= 0");
  CCPRED_CHECK_MSG(options_.min_samples_split >= 2,
                   "min_samples_split must be >= 2");
  CCPRED_CHECK_MSG(options_.min_samples_leaf >= 1,
                   "min_samples_leaf must be >= 1");
}

FeatureRanks FeatureRanks::build(const linalg::Matrix& x) {
  CCPRED_CHECK_MSG(x.rows() <= 0xffffffffu,
                   "tree fits index rows as 32-bit");
  FeatureRanks fr;
  fr.n_ = x.rows();
  fr.d_ = x.cols();
  fr.distinct_.assign(fr.d_, 0);
  fr.ranks_.resize(fr.n_ * fr.d_);
  std::vector<std::uint32_t> by_value(fr.n_);
  for (std::size_t f = 0; f < fr.d_; ++f) {
    for (std::size_t r = 0; r < fr.n_; ++r) {
      CCPRED_CHECK_MSG(std::isfinite(x(r, f)),
                       "feature " << f << " of row " << r << " is not finite");
      by_value[r] = static_cast<std::uint32_t>(r);
    }
    std::sort(by_value.begin(), by_value.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return x(a, f) < x(b, f);
              });
    std::uint32_t* rank = fr.ranks_.data() + f * fr.n_;
    std::uint32_t next = 0;
    for (std::size_t i = 0; i < fr.n_; ++i) {
      if (i > 0 && x(by_value[i], f) != x(by_value[i - 1], f)) ++next;
      rank[by_value[i]] = next;
    }
    fr.distinct_[f] = fr.n_ == 0 ? 0 : next + 1;
  }
  return fr;
}

struct DecisionTreeRegressor::PresortContext {
  const linalg::Matrix* x = nullptr;
  const FeatureRanks* ranks = nullptr;
  const double* y = nullptr;
  std::vector<double> importance;
  int effective_max_depth = 64;
  double* train_pred = nullptr;  ///< optional per-row leaf values

  // Per-fit scratch, bump-allocated from the fit's arena:
  std::size_t m = 0;                 ///< the tree's row count (with repeats)
  std::uint32_t* rows = nullptr;      ///< row list, partitioned in place
  std::uint32_t* order = nullptr;     ///< d sorted orders of m rows each
  std::uint32_t* scratch = nullptr;   ///< right-half staging for partition
  std::uint8_t* goes_left = nullptr;  ///< per row id: routed left at a split
};

namespace {

/// The best split of one node on one feature: the largest variance-
/// reduction gain over the boundaries between distinct values (the first
/// one on ties), and the number of entries left of it. gain stays -1 when
/// no boundary leaves min_samples_leaf on both sides.
struct SplitCandidate {
  double gain = -1.0;
  std::size_t left_count = 0;
};

/// Scans the node's entries of one feature's order, which are sorted by
/// (value, target), exactly as a per-node sort of (value, target) pairs
/// would be scanned: the total in sorted order, then the running prefix.
SplitCandidate best_split_in_order(const std::uint32_t* order, std::size_t n,
                                   const std::uint32_t* rank, const double* y,
                                   std::size_t min_leaf) {
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) total += y[order[i]];

  SplitCandidate best;
  double left_sum = 0.0;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    left_sum += y[order[i]];
    if (rank[order[i]] == rank[order[i + 1]]) continue;  // tied values
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
      best.left_count = nl;
    }
  }
  return best;
}

/// Stable partition of ids[0, n) into [left | right] by goes_left[id];
/// returns the left count. Right ids stage in `scratch` and copy back.
std::size_t partition_ids(std::uint32_t* ids, std::size_t n,
                          const std::uint8_t* goes_left,
                          std::uint32_t* scratch) {
  std::size_t nl = 0;
  std::size_t nr = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t id = ids[i];
    const std::size_t left = goes_left[id];
    ids[nl] = id;
    scratch[nr] = id;
    nl += left;
    nr += 1 - left;
  }
  std::copy(scratch, scratch + nr, ids + nl);
  return nl;
}

}  // namespace

int DecisionTreeRegressor::build_presorted(PresortContext& ctx, std::size_t lo,
                                           std::size_t hi, int depth) {
  const linalg::Matrix& x = *ctx.x;
  const double* y = ctx.y;
  const std::size_t n = hi - lo;
  std::uint32_t* rows = ctx.rows + lo;

  // The leaf mean sums in row-list order: the caller's order, stably
  // partitioned at every split.
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) sum += y[rows[i]];
  const double mean = sum / static_cast<double>(n);

  const int node_index = static_cast<int>(nodes_.size());
  nodes_.push_back(TreeNode{.value = mean});

  // A leaf's row-list range is exactly its training rows, routed by
  // predict_row's own comparison, so the mean is their prediction.
  const auto emit_leaf = [&] {
    if (ctx.train_pred != nullptr) {
      for (std::size_t i = 0; i < n; ++i) ctx.train_pred[rows[i]] = mean;
    }
    return node_index;
  };

  if (depth >= ctx.effective_max_depth ||
      n < static_cast<std::size_t>(options_.min_samples_split)) {
    return emit_leaf();
  }

  const std::size_t d = x.cols();
  SplitCandidate best;
  std::size_t best_feature = 0;
  const auto min_leaf = static_cast<std::size_t>(options_.min_samples_leaf);
  for (std::size_t f = 0; f < d; ++f) {
    const auto cand = best_split_in_order(ctx.order + f * ctx.m + lo, n,
                                          ctx.ranks->column(f), y, min_leaf);
    if (cand.gain > best.gain) {
      best = cand;
      best_feature = f;
    }
  }
  if (best.gain <= 1e-12) return emit_leaf();  // pure or unsplittable node
  ctx.importance[best_feature] += best.gain;

  // The midpoint between the values either side of the winning boundary.
  const std::uint32_t* sorted = ctx.order + best_feature * ctx.m + lo;
  const double threshold =
      0.5 * (x(sorted[best.left_count - 1], best_feature) +
             x(sorted[best.left_count], best_feature));

  // Route with predict_row's comparison, then carry the row list and every
  // feature's order down by stable partition.
  for (std::size_t i = 0; i < n; ++i) {
    ctx.goes_left[rows[i]] = x(rows[i], best_feature) <= threshold ? 1 : 0;
  }
  const std::size_t nl = partition_ids(rows, n, ctx.goes_left, ctx.scratch);
  // Ties at the threshold can defeat the sorted-scan counts; guard anyway.
  if (nl == 0 || nl == n) return emit_leaf();
  for (std::size_t f = 0; f < d; ++f) {
    partition_ids(ctx.order + f * ctx.m + lo, n, ctx.goes_left, ctx.scratch);
  }

  const int left = build_presorted(ctx, lo, lo + nl, depth + 1);
  const int right = build_presorted(ctx, lo + nl, hi, depth + 1);
  nodes_[node_index].feature = static_cast<int>(best_feature);
  nodes_[node_index].threshold = threshold;
  nodes_[node_index].left = left;
  nodes_[node_index].right = right;
  return node_index;
}

void DecisionTreeRegressor::fit_presorted(const linalg::Matrix& x,
                                          const FeatureRanks& ranks,
                                          const std::vector<double>& y,
                                          const std::vector<std::size_t>& rows,
                                          double* train_pred,
                                          exec::Arena* arena) {
  CCPRED_CHECK_MSG(x.rows() == y.size(), "X/y row mismatch");
  CCPRED_CHECK_MSG(ranks.rows() == x.rows() && ranks.cols() == x.cols(),
                   "feature ranks do not match X");
  CCPRED_CHECK_MSG(!rows.empty(), "cannot fit tree on zero rows");
  for (auto r : rows) {
    CCPRED_CHECK_MSG(r < x.rows(), "row index out of range");
    CCPRED_CHECK_MSG(std::isfinite(y[r]),
                     "target of row " << r << " is not finite");
  }

  // The fit's scratch arena: the caller's (the ensembles pass a reused
  // per-task arena) or a reused thread-local one, reset either way. The
  // thread-local one is built on first use only, so a thread that only
  // fits ensembles never holds its 1 MiB buffer.
  exec::Arena* scratch = arena;
  if (scratch == nullptr) {
    thread_local exec::Arena fallback;
    scratch = &fallback;
  }
  exec::Arena& mem = *scratch;
  mem.reset();
  nodes_.clear();
  PresortContext ctx;
  ctx.x = &x;
  ctx.ranks = &ranks;
  ctx.y = y.data();
  ctx.importance.assign(x.cols(), 0.0);
  ctx.effective_max_depth =
      options_.max_depth == 0 ? 64 : options_.max_depth;
  ctx.train_pred = train_pred;

  const std::size_t d = x.cols();
  const std::size_t m = rows.size();
  ctx.m = m;
  ctx.rows = mem.alloc_array<std::uint32_t>(m);
  ctx.order = mem.alloc_array<std::uint32_t>(m * d);
  ctx.scratch = mem.alloc_array<std::uint32_t>(m);
  ctx.goes_left = mem.alloc_array<std::uint8_t>(x.rows());
  for (std::size_t i = 0; i < m; ++i) {
    ctx.rows[i] = static_cast<std::uint32_t>(rows[i]);
  }

  // One sort of the tree's rows by target, then one stable counting pass
  // per feature by rank: each order is sorted by (value, target), the order
  // of a per-node sort of (value, target) pairs. Entries equal in both are
  // interchangeable: they add the same bits wherever they sit.
  std::uint32_t* by_target = ctx.scratch;
  std::copy(ctx.rows, ctx.rows + m, by_target);
  std::sort(by_target, by_target + m,
            [&](std::uint32_t a, std::uint32_t b) { return y[a] < y[b]; });
  std::uint32_t max_distinct = 0;
  for (std::size_t f = 0; f < d; ++f) {
    max_distinct = std::max(max_distinct, ranks.distinct(f));
  }
  std::size_t* start =
      mem.alloc_array<std::size_t>(std::size_t{max_distinct} + 1);
  for (std::size_t f = 0; f < d; ++f) {
    const std::uint32_t* rank = ranks.column(f);
    const std::size_t k = ranks.distinct(f);
    std::fill(start, start + k + 1, std::size_t{0});
    for (std::size_t i = 0; i < m; ++i) ++start[rank[by_target[i]] + 1];
    for (std::size_t b = 0; b < k; ++b) start[b + 1] += start[b];
    std::uint32_t* out = ctx.order + f * m;
    for (std::size_t i = 0; i < m; ++i) {
      const std::uint32_t r = by_target[i];
      out[start[rank[r]]++] = r;
    }
  }

  build_presorted(ctx, 0, m, 0);
  importance_ = std::move(ctx.importance);
}

void DecisionTreeRegressor::fit(const linalg::Matrix& x,
                                const std::vector<double>& y) {
  std::vector<std::size_t> rows(x.rows());
  for (std::size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  fit_rows(x, y, rows);
}

void DecisionTreeRegressor::fit_rows(const linalg::Matrix& x,
                                     const std::vector<double>& y,
                                     const std::vector<std::size_t>& rows) {
  // Standalone fits rank here; the ensembles rank once per fit and call
  // fit_presorted directly.
  fit_presorted(x, FeatureRanks::build(x), y, rows);
}

std::vector<double> DecisionTreeRegressor::feature_importances() const {
  CCPRED_CHECK_MSG(is_fitted(), "feature_importances before fit");
  std::vector<double> out = importance_;
  double total = 0.0;
  for (double v : out) total += v;
  if (total > 0.0) {
    for (auto& v : out) v /= total;
  }
  return out;
}

void check_tree_parts(std::span<const TreeNode> nodes, std::size_t n_features,
                      std::string_view what) {
  CCPRED_REQUIRE(!nodes.empty(), what << ": a tree needs at least one node");
  // Every builder emits pre-order trees, so children follow their parent:
  // forward child indices and one parent per node rule out cycles and
  // shared subtrees, which would hang the compiler and the descent. A
  // split feature must index the importance record, the model's feature
  // width.
  const std::size_t n = nodes.size();
  std::vector<char> has_parent(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const TreeNode& node = nodes[i];
    if (node.is_leaf()) continue;
    CCPRED_REQUIRE(static_cast<std::size_t>(node.feature) < n_features,
                   what << ": node " << i << " splits on feature "
                        << node.feature << " of " << n_features);
    for (const int child : {node.left, node.right}) {
      CCPRED_REQUIRE(child >= 0 && static_cast<std::size_t>(child) < n,
                     what << ": node " << i << " has child " << child
                          << ", not one of the " << n << " nodes");
      CCPRED_REQUIRE(static_cast<std::size_t>(child) > i,
                     what << ": node " << i << " has child " << child
                          << " before it");
      CCPRED_REQUIRE(!has_parent[static_cast<std::size_t>(child)],
                     what << ": node " << child << " has two parents");
      has_parent[static_cast<std::size_t>(child)] = 1;
    }
  }
  // With a parent before each of them, every node but the root lies on a
  // path from the root: the tree has exactly `n` reachable nodes, the
  // count its compiled form is sized by.
  for (std::size_t i = 1; i < n; ++i) {
    CCPRED_REQUIRE(has_parent[i], what << ": node " << i << " has no parent");
  }
}

DecisionTreeRegressor DecisionTreeRegressor::from_parts(
    TreeOptions options, std::vector<TreeNode> nodes,
    std::vector<double> raw_importance) {
  check_tree_parts(nodes, raw_importance.size(), "tree file");
  DecisionTreeRegressor tree(options);
  tree.nodes_ = std::move(nodes);
  tree.importance_ = std::move(raw_importance);
  return tree;
}

// The walk is the reference that compiled inference's speedup is measured
// against (bench_train_predict). A cache-line start keeps its loop's
// timing independent of where the linker happens to place it.
[[gnu::aligned(64)]] double DecisionTreeRegressor::predict_row(
    const double* row) const {
  int i = 0;
  while (!nodes_[i].is_leaf()) {
    i = row[nodes_[i].feature] <= nodes_[i].threshold ? nodes_[i].left
                                                      : nodes_[i].right;
  }
  return nodes_[i].value;
}

std::vector<double> DecisionTreeRegressor::predict(
    const linalg::Matrix& x) const {
  CCPRED_CHECK_MSG(is_fitted(), "DecisionTreeRegressor::predict before fit");
  std::vector<double> out(x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) out[i] = predict_row(x.row_ptr(i));
  return out;
}

std::unique_ptr<Regressor> DecisionTreeRegressor::clone() const {
  return std::make_unique<DecisionTreeRegressor>(options_);
}

const std::string& DecisionTreeRegressor::name() const {
  static const std::string n = "DT";
  return n;
}

int DecisionTreeRegressor::depth() const {
  if (nodes_.empty()) return 0;
  // Iterative depth computation over the flattened representation.
  std::vector<std::pair<int, int>> stack = {{0, 0}};
  int max_depth = 0;
  while (!stack.empty()) {
    const auto [i, d] = stack.back();
    stack.pop_back();
    max_depth = std::max(max_depth, d);
    if (!nodes_[i].is_leaf()) {
      stack.push_back({nodes_[i].left, d + 1});
      stack.push_back({nodes_[i].right, d + 1});
    }
  }
  return max_depth;
}

void DecisionTreeRegressor::set_params(const ParamMap& params) {
  for (const auto& [key, value] : params) {
    const int iv = static_cast<int>(std::lround(value));
    if (key == "max_depth") {
      CCPRED_CHECK_MSG(iv >= 0, "max_depth must be >= 0");
      options_.max_depth = iv;
    } else if (key == "min_samples_split") {
      CCPRED_CHECK_MSG(iv >= 2, "min_samples_split must be >= 2");
      options_.min_samples_split = iv;
    } else if (key == "min_samples_leaf") {
      CCPRED_CHECK_MSG(iv >= 1, "min_samples_leaf must be >= 1");
      options_.min_samples_leaf = iv;
    } else {
      throw Error("DecisionTreeRegressor: unknown parameter '" + key + "'");
    }
  }
}

}  // namespace ccpred::ml
