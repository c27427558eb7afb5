#include "ccpred/core/decision_tree.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>

#include "ccpred/common/error.hpp"
#include "ccpred/exec/arena.hpp"
#include "ccpred/simd/simd.hpp"

namespace ccpred::ml {

DecisionTreeRegressor::DecisionTreeRegressor(TreeOptions options)
    : options_(options) {
  CCPRED_CHECK_MSG(options_.max_depth >= 0, "max_depth must be >= 0");
  CCPRED_CHECK_MSG(options_.min_samples_split >= 2,
                   "min_samples_split must be >= 2");
  CCPRED_CHECK_MSG(options_.min_samples_leaf >= 1,
                   "min_samples_leaf must be >= 1");
  CCPRED_CHECK_MSG(options_.max_bins >= 2 && options_.max_bins <= 60000,
                   "max_bins must be in [2, 60000]");
}

// ---------------------------------------------------------------------------
// Quantile binning (histogram mode)
// ---------------------------------------------------------------------------

FeatureBins FeatureBins::build(const linalg::Matrix& x, int max_bins) {
  CCPRED_CHECK_MSG(max_bins >= 2 && max_bins <= 60000,
                   "max_bins must be in [2, 60000]");
  CCPRED_CHECK_MSG(x.rows() > 0, "cannot bin an empty matrix");
  FeatureBins fb;
  fb.n_ = x.rows();
  fb.d_ = x.cols();
  fb.edges_.resize(fb.d_);
  fb.offsets_.assign(fb.d_ + 1, 0);

  std::vector<double> col(fb.n_);
  std::vector<double> distinct;
  for (std::size_t f = 0; f < fb.d_; ++f) {
    for (std::size_t r = 0; r < fb.n_; ++r) col[r] = x(r, f);
    std::sort(col.begin(), col.end());
    distinct.clear();
    for (double v : col) {
      if (distinct.empty() || v != distinct.back()) distinct.push_back(v);
    }
    auto& edges = fb.edges_[f];
    edges.clear();
    const std::size_t m = distinct.size();
    if (m <= static_cast<std::size_t>(max_bins)) {
      // One bin per distinct value: the candidate-threshold set is exactly
      // the exact-mode midpoints, so histogram splits lose nothing.
      for (std::size_t i = 0; i + 1 < m; ++i) {
        edges.push_back(0.5 * (distinct[i] + distinct[i + 1]));
      }
    } else {
      // Quantile cuts over the sorted values (duplicates keep their mass),
      // snapped to the midpoint below the cut value so every edge separates
      // two distinct data values.
      for (int b = 1; b < max_bins; ++b) {
        const std::size_t rank =
            static_cast<std::size_t>(b) * fb.n_ / static_cast<std::size_t>(max_bins);
        const double v = col[rank];
        const auto it = std::lower_bound(distinct.begin(), distinct.end(), v);
        const std::size_t idx =
            static_cast<std::size_t>(it - distinct.begin());
        if (idx == 0) continue;
        const double edge = 0.5 * (distinct[idx - 1] + distinct[idx]);
        if (edges.empty() || edge > edges.back()) edges.push_back(edge);
      }
    }
    fb.offsets_[f + 1] =
        fb.offsets_[f] + static_cast<int>(edges.size()) + 1;
  }

  fb.codes_.resize(fb.n_ * fb.d_);
  // First edge >= x: code(r, f) <= b  ⇔  x(r, f) <= edges[b]. Dispatched
  // per feature column (the AVX2 table counts edges in registers; codes
  // are integer counts, identical to the binary search in every mode).
  const auto& ops = simd::ops();
  for (std::size_t f = 0; f < fb.d_; ++f) {
    const auto& edges = fb.edges_[f];
    ops.bin_codes(x.row_ptr(0) + f, fb.n_, x.cols(), edges.data(),
                  static_cast<int>(edges.size()), fb.codes_.data() + f,
                  fb.d_);
  }
  return fb;
}

// ---------------------------------------------------------------------------
// Exact split finding (presorted)
// ---------------------------------------------------------------------------

FeatureRanks FeatureRanks::build(const linalg::Matrix& x) {
  CCPRED_CHECK_MSG(x.rows() <= 0xffffffffu,
                   "exact mode indexes rows as 32-bit");
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
  int max_features = 0;
  Rng rng{1};
  double* train_pred = nullptr;  ///< optional per-row leaf values

  // Per-fit scratch, bump-allocated from the fit's arena:
  std::size_t m = 0;                 ///< the tree's row count (with repeats)
  std::uint32_t* rows = nullptr;      ///< row list, partitioned in place
  std::uint32_t* order = nullptr;     ///< d sorted orders of m rows each
  std::uint32_t* scratch = nullptr;   ///< right-half staging for partition
  std::uint8_t* goes_left = nullptr;  ///< per row id: routed left at a split
  std::size_t* all_features = nullptr;  ///< 0..d-1, reused when not sampling
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

/// Candidate features for one node: all, or a random subset for forests.
std::vector<std::size_t> candidate_features(std::size_t d, int max_features,
                                            Rng& rng) {
  if (max_features > 0 && static_cast<std::size_t>(max_features) < d) {
    return rng.sample_without_replacement(
        d, static_cast<std::size_t>(max_features));
  }
  std::vector<std::size_t> features(d);
  for (std::size_t f = 0; f < d; ++f) features[f] = f;
  return features;
}

/// The fit's scratch arena: the caller's (the ensembles pass a reused
/// per-task arena) or a reused thread-local one, reset either way.
exec::Arena& fit_arena(exec::Arena* arena) {
  thread_local exec::Arena fallback;
  exec::Arena& mem = arena != nullptr ? *arena : fallback;
  mem.reset();
  return mem;
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

  // All features when not subsampling (no per-node vector), else a fresh
  // random subset (candidate_features only draws from the rng when it
  // actually samples, so the stream is the same either way).
  const std::size_t d = x.cols();
  std::vector<std::size_t> sampled;
  const bool use_all = ctx.max_features <= 0 ||
                       static_cast<std::size_t>(ctx.max_features) >= d;
  if (!use_all) sampled = candidate_features(d, ctx.max_features, ctx.rng);
  const std::size_t* features = use_all ? ctx.all_features : sampled.data();
  const std::size_t n_features = use_all ? d : sampled.size();

  SplitCandidate best;
  std::size_t best_feature = 0;
  const auto min_leaf = static_cast<std::size_t>(options_.min_samples_leaf);
  for (std::size_t fi = 0; fi < n_features; ++fi) {
    const std::size_t f = features[fi];
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

  exec::Arena& mem = fit_arena(arena);
  nodes_.clear();
  PresortContext ctx;
  ctx.x = &x;
  ctx.ranks = &ranks;
  ctx.y = y.data();
  ctx.importance.assign(x.cols(), 0.0);
  ctx.effective_max_depth =
      options_.max_depth == 0 ? 64 : options_.max_depth;
  ctx.max_features = options_.max_features;
  ctx.rng = Rng(options_.seed);
  ctx.train_pred = train_pred;

  const std::size_t d = x.cols();
  const std::size_t m = rows.size();
  ctx.m = m;
  ctx.rows = mem.alloc_array<std::uint32_t>(m);
  ctx.order = mem.alloc_array<std::uint32_t>(m * d);
  ctx.scratch = mem.alloc_array<std::uint32_t>(m);
  ctx.goes_left = mem.alloc_array<std::uint8_t>(x.rows());
  ctx.all_features = mem.alloc_array<std::size_t>(d);
  for (std::size_t f = 0; f < d; ++f) ctx.all_features[f] = f;
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

// ---------------------------------------------------------------------------
// Histogram split finding
// ---------------------------------------------------------------------------

/// Per-node gradient histogram: (count, target-sum) per bin, flattened over
/// all features via FeatureBins offsets. Filling and subtraction dispatch
/// through simd::ops(). Storage lives in the fit's Arena (total_bins wide),
/// so acquiring one is a pointer bump, never a malloc.
struct DecisionTreeRegressor::Histogram {
  double* sum = nullptr;
  std::uint32_t* count = nullptr;
};

struct DecisionTreeRegressor::HistContext {
  const FeatureBins* bins = nullptr;
  const std::vector<double>* y = nullptr;
  std::vector<double> importance;
  int effective_max_depth = 64;
  int max_features = 0;
  Rng rng{1};

  /// Bump allocator owning every fit-scratch buffer below. Reset at fit
  /// entry; reused across fits (the ensembles pass one arena per task), so
  /// repeated fits re-hand out the same cache-line-aligned memory.
  exec::Arena* mem = nullptr;
  int total_bins = 0;

  // Per-fit scratch, bump-allocated once (the old per-node row vectors and
  // histogram allocations were ~half the fit wall time):
  std::uint32_t* rows = nullptr;     ///< row indices, partitioned in place
  std::size_t n_rows = 0;
  std::uint32_t* scratch = nullptr;  ///< right-half staging for partition
  int* offsets = nullptr;            ///< per-feature flat bin offsets
  std::size_t* all_features = nullptr;  ///< 0..d-1, reused when not sampling
  const simd::Ops* ops = nullptr;
  double* train_pred = nullptr;      ///< optional per-row leaf values

  // Direct-mode per-feature scan buffers: full flattened width, zeroed once
  // per fit; each direct node re-zeroes only the bins its rows touched.
  double* fsum = nullptr;
  std::uint32_t* fcount = nullptr;

  // Inclusive per-feature code bounds of the current hist-mode node,
  // threaded down the recursion: a split on f at bin b bounds the left
  // child's codes on f by b and the right child's by [b + 1, old hi]; other
  // features inherit the parent's (outer) bounds. Bins outside the bounds
  // hold exactly +0.0 in subtracted histograms, so range-restricted scans
  // see the values the full scan would.
  int* fr_lo = nullptr;
  int* fr_hi = nullptr;

  // Direct-mode per-feature code bounds of the current node (exact, from
  // the fused scatter pass).
  std::uint16_t* dmin = nullptr;
  std::uint16_t* dmax = nullptr;

  /// Histogram freelist; at most depth + 1 are live at once, so the arena
  /// hands out at most that many total_bins-wide buffer pairs per fit.
  std::vector<Histogram> pool;

  Histogram acquire() {
    Histogram h;
    if (!pool.empty()) {
      h = pool.back();
      pool.pop_back();
    } else {
      const auto tb = static_cast<std::size_t>(total_bins);
      h.sum = mem->alloc_array<double>(tb);
      h.count = mem->alloc_array<std::uint32_t>(tb);
    }
    const auto tb = static_cast<std::size_t>(total_bins);
    std::fill(h.sum, h.sum + tb, 0.0);
    std::fill(h.count, h.count + tb, 0u);
    return h;
  }
  void release(Histogram h) { pool.push_back(h); }
};

int DecisionTreeRegressor::build_hist(HistContext& ctx, std::size_t lo,
                                      std::size_t hi, double sum,
                                      Histogram* hist, int depth) {
  const FeatureBins& bins = *ctx.bins;
  const std::size_t n = hi - lo;
  const double mean = sum / static_cast<double>(n);

  const int node_index = static_cast<int>(nodes_.size());
  nodes_.push_back(TreeNode{.value = mean});

  // The arena range of a leaf is exactly its training rows, so the leaf
  // mean doubles as those rows' predictions (bin split "code <= b" equals
  // the raw split "x <= upper_edge", so routing matches predict_row).
  const auto emit_leaf = [&] {
    if (ctx.train_pred != nullptr) {
      const std::uint32_t* r = ctx.rows + lo;
      for (std::size_t i = 0; i < n; ++i) ctx.train_pred[r[i]] = mean;
    }
  };

  if (depth >= ctx.effective_max_depth ||
      n < static_cast<std::size_t>(options_.min_samples_split)) {
    emit_leaf();
    return node_index;
  }

  // Scan each candidate feature's bins left to right; a boundary after bin
  // b corresponds to the exact split x <= upper_edge(f, b). The dispatched
  // scan threads the running best through every feature, preserving the
  // original first-strictly-greater selection order, and records the left
  // prefix (sum, count) at each boundary so the winning split's child
  // stats are read off the buffers instead of re-summed.
  double best_gain = -1.0;
  std::size_t best_feature = 0;
  int best_bin = -1;
  double best_left_sum = 0.0;
  std::size_t best_left_count = 0;
  const auto min_leaf = static_cast<std::size_t>(options_.min_samples_leaf);
  const auto& ops = *ctx.ops;
  const std::vector<double>& y = *ctx.y;

  if (n == 2 && hist == nullptr && ctx.max_features == 0) {
    // Two-row nodes are roughly half of a fully-grown tree; their split is
    // decided directly from the two rows' codes with the scan's exact
    // arithmetic and selection order (only the boundary at the smaller code
    // is valid, its left prefix is that row's target, nl = nr = 1 so the
    // /nl and /nr divides are identities).
    const std::uint32_t ra = ctx.rows[lo];
    const std::uint32_t rb = ctx.rows[lo + 1];
    if (min_leaf <= 1) {
      const double tt_n = sum * sum / 2.0;
      for (std::size_t f = 0; f < bins.cols(); ++f) {
        const std::uint16_t ca = bins.code(ra, f);
        const std::uint16_t cb = bins.code(rb, f);
        if (ca == cb) continue;
        const double ls = ca < cb ? y[ra] : y[rb];
        const double rs = sum - ls;
        const double gain = ls * ls + rs * rs - tt_n;
        if (gain > best_gain) {
          best_gain = gain;
          best_feature = f;
          best_bin = ca < cb ? ca : cb;
          best_left_sum = ls;
          best_left_count = 1;
        }
      }
    }
    if (best_bin < 0 || best_gain <= 1e-12) {
      emit_leaf();
      return node_index;
    }
    ctx.importance[best_feature] += best_gain;
    const std::uint16_t ca = bins.code(ra, best_feature);
    const std::uint16_t cb = bins.code(rb, best_feature);
    if (cb < ca) {  // stable partition: the left (smaller-code) row first
      ctx.rows[lo] = rb;
      ctx.rows[lo + 1] = ra;
    }
    // Emit the two single-row leaves inline: a 1-row recursion would push
    // the same node (mean = child_sum / 1.0 == child_sum bitwise) and
    // immediately return, so this skips two calls per two-row node.
    const double right_sum = sum - best_left_sum;
    const int left = static_cast<int>(nodes_.size());
    nodes_.push_back(TreeNode{.value = best_left_sum});
    const int right = static_cast<int>(nodes_.size());
    nodes_.push_back(TreeNode{.value = right_sum});
    if (ctx.train_pred != nullptr) {
      ctx.train_pred[ctx.rows[lo]] = best_left_sum;
      ctx.train_pred[ctx.rows[lo + 1]] = right_sum;
    }
    nodes_[node_index].feature = static_cast<int>(best_feature);
    nodes_[node_index].threshold = bins.upper_edge(best_feature, best_bin);
    nodes_[node_index].left = left;
    nodes_[node_index].right = right;
    return node_index;
  }

  // Direct mode: one fused pass rebuilds every feature's histogram slice
  // from the rows (a single contiguous row_codes load per row instead of
  // d strided passes), tracking exact per-feature code bounds as it goes.
  // Each feature's bins still fill in row order — the same per-bin
  // accumulation order as hist_accumulate — so the scans below see
  // bit-identical sums.
  const std::size_t d = bins.cols();
  if (hist == nullptr) {
    const std::uint32_t* rw = ctx.rows + lo;
    const std::uint16_t* first = bins.row_codes(rw[0]);
    for (std::size_t f = 0; f < d; ++f) {
      ctx.dmin[f] = first[f];
      ctx.dmax[f] = first[f];
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t r = rw[i];
      const std::uint16_t* rc = bins.row_codes(r);
      const double target = y[r];
      for (std::size_t f = 0; f < d; ++f) {
        const std::uint16_t b = rc[f];
        const auto idx = static_cast<std::size_t>(ctx.offsets[f]) + b;
        ctx.fsum[idx] += target;
        ctx.fcount[idx] += 1;
        ctx.dmin[f] = b < ctx.dmin[f] ? b : ctx.dmin[f];
        ctx.dmax[f] = b > ctx.dmax[f] ? b : ctx.dmax[f];
      }
    }
  }

  // All features when not subsampling (no per-node vector), else a fresh
  // random subset (candidate_features only draws from the rng when it
  // actually samples, so the stream matches the old per-node call).
  std::vector<std::size_t> sampled;
  const bool use_all =
      ctx.max_features <= 0 ||
      static_cast<std::size_t>(ctx.max_features) >= bins.cols();
  if (!use_all) {
    sampled = candidate_features(bins.cols(), ctx.max_features, ctx.rng);
  }
  const std::size_t* features = use_all ? ctx.all_features : sampled.data();
  const std::size_t n_features = use_all ? bins.cols() : sampled.size();
  for (std::size_t fi = 0; fi < n_features; ++fi) {
    const std::size_t f = features[fi];
    const int off = ctx.offsets[f];
    const int m = bins.bin_count(f) - 1;  // candidate boundaries
    if (m <= 0) continue;
    int bin = -1;
    double ls = 0.0;
    std::size_t lc = 0;
    bool found = false;
    if (hist != nullptr) {
      const int b0 = ctx.fr_lo[f];
      const int mend = ctx.fr_hi[f] < m ? ctx.fr_hi[f] : m;
      if (mend > b0 &&
          ops.split_scan(hist->sum + off + b0,
                         hist->count + off + b0, mend - b0, sum, n,
                         min_leaf, &best_gain, &bin, &ls, &lc)) {
        bin += b0;
        found = true;
      }
    } else {
      // Direct mode: the fused pass above already rebuilt this feature's
      // slice and its exact code bounds. Only boundaries in [cmin, cmax)
      // can win: bins below cmin hold exactly +0.0 (the left prefix starts
      // identical), later ones leave the right side empty. Constant
      // features (cmin == cmax) skip the scan outright — the full scan
      // would find no valid boundary either.
      const std::uint16_t cmin = ctx.dmin[f];
      const std::uint16_t cmax = ctx.dmax[f];
      if (cmax > cmin) {
        double* s = ctx.fsum + off;
        std::uint32_t* c = ctx.fcount + off;
        const int mend = cmax < m ? static_cast<int>(cmax) : m;
        if (ops.split_scan(s + cmin, c + cmin, mend - cmin, sum, n, min_leaf,
                           &best_gain, &bin, &ls, &lc)) {
          bin += cmin;
          found = true;
        }
      }
    }
    if (found) {
      best_feature = f;
      best_bin = bin;
      best_left_sum = ls;
      best_left_count = lc;
    }
  }
  // Direct-mode buffers are re-zeroed by touched-bin row passes (a full
  // clear would reintroduce the O(total_bins) per-node cost this path
  // exists to avoid): standalone here on the leaf return, fused into the
  // partition pass below on the split path.
  const auto rezero_touched = [&](const std::uint16_t* rc) {
    for (std::size_t f = 0; f < d; ++f) {
      const auto idx = static_cast<std::size_t>(ctx.offsets[f]) + rc[f];
      ctx.fsum[idx] = 0.0;
      ctx.fcount[idx] = 0;
    }
  };
  if (best_bin < 0 || best_gain <= 1e-12) {
    if (hist == nullptr) {
      const std::uint32_t* rw = ctx.rows + lo;
      for (std::size_t i = 0; i < n; ++i) rezero_touched(bins.row_codes(rw[i]));
    }
    emit_leaf();
    return node_index;
  }
  ctx.importance[best_feature] += best_gain;
  const double threshold = bins.upper_edge(best_feature, best_bin);

  // Stable two-cursor partition of the node's arena range: left rows
  // compact in place, right rows stage in scratch and copy back — the
  // children keep the parent's relative row order (same histogram
  // accumulation order as the old per-node vectors) with no per-node
  // allocation.
  std::uint32_t* rows = ctx.rows + lo;
  std::uint32_t* scr = ctx.scratch;
  std::size_t nl = 0;
  std::size_t nr = 0;
  if (hist == nullptr) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t r = rows[i];
      const std::uint16_t* rc = bins.row_codes(r);
      rezero_touched(rc);
      if (rc[best_feature] <= best_bin) {
        rows[nl++] = r;
      } else {
        scr[nr++] = r;
      }
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t r = rows[i];
      if (bins.code(r, best_feature) <= best_bin) {
        rows[nl++] = r;
      } else {
        scr[nr++] = r;
      }
    }
  }
  std::copy(scr, scr + nr, rows + nl);
  if (nl == 0 || nr == 0) {
    emit_leaf();
    return node_index;
  }

  // Child target totals from the scan prefix at the winning boundary (the
  // old code re-summed y over each child's rows).
  const double left_sum = best_left_sum;
  const double right_sum = sum - left_sum;
  CCPRED_CHECK_MSG(nl == best_left_count,
                   "histogram counts disagree with the code partition");

  int left;
  int right;
  if (hist == nullptr ||
      std::max(nl, nr) * bins.cols() <
          2 * static_cast<std::size_t>(bins.total_bins())) {
    // Both children are small relative to the flattened histogram width:
    // maintaining full histograms would spend O(total_bins) on zeroing and
    // subtraction per node for a handful of rows. Descend in direct mode
    // (per-feature scans rebuilt from the rows). Once direct, children stay
    // direct — their row counts only shrink.
    left = build_hist(ctx, lo, lo + nl, left_sum, nullptr, depth + 1);
    right = build_hist(ctx, lo + nl, hi, right_sum, nullptr, depth + 1);
  } else {
    // Sibling-subtraction trick: scan only the smaller child's rows; the
    // larger child's histogram is parent - smaller, reusing parent storage.
    const bool left_is_small = nl <= nr;
    const auto tb = static_cast<std::size_t>(ctx.total_bins);
    Histogram small = ctx.acquire();
    ops.hist_accumulate(bins.row_codes(0), bins.cols(), ctx.offsets,
                        left_is_small ? rows : rows + nl,
                        left_is_small ? nl : nr, ctx.y->data(),
                        small.sum, small.count, tb);
    ops.hist_subtract(hist->sum, hist->count, small.sum, small.count, tb);
    Histogram* left_hist = left_is_small ? &small : hist;
    Histogram* right_hist = left_is_small ? hist : &small;

    const int save_lo = ctx.fr_lo[best_feature];
    const int save_hi = ctx.fr_hi[best_feature];
    ctx.fr_hi[best_feature] = best_bin;
    left = build_hist(ctx, lo, lo + nl, left_sum, left_hist, depth + 1);
    ctx.fr_hi[best_feature] = save_hi;
    ctx.fr_lo[best_feature] = best_bin + 1;
    right = build_hist(ctx, lo + nl, hi, right_sum, right_hist, depth + 1);
    ctx.fr_lo[best_feature] = save_lo;
    ctx.release(small);
  }
  nodes_[node_index].feature = static_cast<int>(best_feature);
  nodes_[node_index].threshold = threshold;
  nodes_[node_index].left = left;
  nodes_[node_index].right = right;
  return node_index;
}

void DecisionTreeRegressor::fit_binned(const FeatureBins& bins,
                                       const std::vector<double>& y,
                                       const std::vector<std::size_t>& rows,
                                       double* train_pred,
                                       exec::Arena* arena) {
  CCPRED_CHECK_MSG(bins.rows() == y.size(), "bins/y row mismatch");
  CCPRED_CHECK_MSG(!rows.empty(), "cannot fit tree on zero rows");
  for (auto r : rows) {
    CCPRED_CHECK_MSG(r < bins.rows(), "row index out of range");
  }
  CCPRED_CHECK_MSG(bins.rows() <= 0xffffffffu,
                   "histogram mode indexes rows as 32-bit");

  // All fit scratch bump-allocates from one arena, so repeated fits stop
  // touching the heap.
  exec::Arena* mem = &fit_arena(arena);

  nodes_.clear();
  HistContext ctx;
  ctx.bins = &bins;
  ctx.y = &y;
  ctx.importance.assign(bins.cols(), 0.0);
  ctx.effective_max_depth =
      options_.max_depth == 0 ? 64 : options_.max_depth;
  ctx.max_features = options_.max_features;
  ctx.rng = Rng(options_.seed);
  ctx.ops = &simd::ops();
  ctx.train_pred = train_pred;
  ctx.mem = mem;
  ctx.total_bins = bins.total_bins();

  const std::size_t d = bins.cols();
  const auto total_bins = static_cast<std::size_t>(bins.total_bins());
  ctx.n_rows = rows.size();
  ctx.rows = mem->alloc_array<std::uint32_t>(ctx.n_rows);
  for (std::size_t i = 0; i < ctx.n_rows; ++i) {
    ctx.rows[i] = static_cast<std::uint32_t>(rows[i]);
  }
  ctx.scratch = mem->alloc_array<std::uint32_t>(ctx.n_rows);
  ctx.offsets = mem->alloc_array<int>(d);
  ctx.all_features = mem->alloc_array<std::size_t>(d);
  ctx.fr_lo = mem->alloc_array<int>(d);
  ctx.fr_hi = mem->alloc_array<int>(d);
  for (std::size_t f = 0; f < d; ++f) {
    ctx.offsets[f] = bins.offset(f);
    ctx.all_features[f] = f;
    ctx.fr_lo[f] = 0;
    ctx.fr_hi[f] = bins.bin_count(f) - 1;
  }

  ctx.fsum = mem->alloc_array<double>(total_bins);
  ctx.fcount = mem->alloc_array<std::uint32_t>(total_bins);
  std::fill(ctx.fsum, ctx.fsum + total_bins, 0.0);
  std::fill(ctx.fcount, ctx.fcount + total_bins, 0u);
  ctx.dmin = mem->alloc_array<std::uint16_t>(d);
  ctx.dmax = mem->alloc_array<std::uint16_t>(d);
  std::fill(ctx.dmin, ctx.dmin + d, static_cast<std::uint16_t>(0));
  std::fill(ctx.dmax, ctx.dmax + d, static_cast<std::uint16_t>(0));

  double root_sum = 0.0;
  for (std::size_t i = 0; i < ctx.n_rows; ++i) root_sum += y[ctx.rows[i]];
  if (ctx.n_rows * d < 2 * total_bins) {
    // Fit is small relative to the histogram width: direct mode throughout.
    build_hist(ctx, 0, ctx.n_rows, root_sum, nullptr, 0);
  } else {
    Histogram root = ctx.acquire();
    ctx.ops->hist_accumulate(bins.row_codes(0), d, ctx.offsets, ctx.rows,
                             ctx.n_rows, y.data(), root.sum, root.count,
                             total_bins);
    build_hist(ctx, 0, ctx.n_rows, root_sum, &root, 0);
  }
  importance_ = std::move(ctx.importance);
}

// ---------------------------------------------------------------------------
// Shared entry points
// ---------------------------------------------------------------------------

void DecisionTreeRegressor::fit(const linalg::Matrix& x,
                                const std::vector<double>& y) {
  std::vector<std::size_t> rows(x.rows());
  for (std::size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  fit_rows(x, y, rows);
}

void DecisionTreeRegressor::fit_rows(const linalg::Matrix& x,
                                     const std::vector<double>& y,
                                     const std::vector<std::size_t>& rows) {
  CCPRED_CHECK_MSG(x.rows() == y.size(), "X/y row mismatch");
  CCPRED_CHECK_MSG(!rows.empty(), "cannot fit tree on zero rows");
  for (auto r : rows) {
    CCPRED_CHECK_MSG(r < x.rows(), "row index out of range");
    CCPRED_CHECK_MSG(std::isfinite(y[r]),
                     "target of row " << r << " is not finite");
  }

  // Standalone fits rank or bin here; the ensembles do it once per fit and
  // call fit_presorted / fit_binned directly.
  if (options_.split_mode == SplitMode::kHistogram) {
    fit_binned(FeatureBins::build(x, options_.max_bins), y, rows);
  } else {
    fit_presorted(x, FeatureRanks::build(x), y, rows);
  }
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

DecisionTreeRegressor DecisionTreeRegressor::from_parts(
    TreeOptions options, std::vector<TreeNode> nodes,
    std::vector<double> raw_importance) {
  CCPRED_CHECK_MSG(!nodes.empty(), "a fitted tree needs at least one node");
  for (const auto& node : nodes) {
    if (node.is_leaf()) continue;
    CCPRED_CHECK_MSG(node.left >= 0 &&
                         node.left < static_cast<int>(nodes.size()) &&
                         node.right >= 0 &&
                         node.right < static_cast<int>(nodes.size()),
                     "tree child index out of range");
  }
  DecisionTreeRegressor tree(options);
  tree.nodes_ = std::move(nodes);
  tree.importance_ = std::move(raw_importance);
  return tree;
}

double DecisionTreeRegressor::predict_row(const double* row) const {
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
    } else if (key == "max_features") {
      CCPRED_CHECK_MSG(iv >= 0, "max_features must be >= 0");
      options_.max_features = iv;
    } else if (key == "split_mode") {
      CCPRED_CHECK_MSG(iv == 0 || iv == 1,
                       "split_mode must be 0 (exact) or 1 (histogram)");
      options_.split_mode = iv == 0 ? SplitMode::kExact : SplitMode::kHistogram;
    } else if (key == "max_bins") {
      CCPRED_CHECK_MSG(iv >= 2 && iv <= 60000,
                       "max_bins must be in [2, 60000]");
      options_.max_bins = iv;
    } else {
      throw Error("DecisionTreeRegressor: unknown parameter '" + key + "'");
    }
  }
}

}  // namespace ccpred::ml
