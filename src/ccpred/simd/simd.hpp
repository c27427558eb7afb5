#pragma once

/// \file simd.hpp
/// Runtime-dispatched vector kernels for the hot numeric loop families.
///
/// Layout: a function-pointer table (`Ops`) per dispatch mode. `ops()`
/// returns the active table, chosen once at first use: AVX2+FMA when the
/// CPU reports both (x86 only), scalar otherwise, overridable with
/// `CCPRED_SIMD=scalar|avx2`. `ops_for()` exposes both tables so tests and
/// benches can compare the implementations directly.
///
/// Numeric contracts (enforced by tests/simd_test.cpp):
///  - `sqdist_row`, `ensemble_step`, `hist_accumulate`, `hist_subtract`,
///    `split_scan`: bit-identical results across modes. The AVX2 variants
///    keep multiply and add separate (no FMA contraction; the TU is built
///    with -ffp-contract=off) and preserve the scalar accumulation order.
///  - `rbf_exp_map`: the AVX2 path uses a Cephes-style polynomial exp
///    (measured max relative error ~3e-16 vs libm); agreement with the
///    scalar path is gated far below the engine-wide 1e-9 tolerance.
///  - `update2x4` / `update1x4`: FMA-fused multiply-adds; the blocked
///    Cholesky agrees with the test oracle's left-looking factorization
///    within 1e-9, not bit-identically.
///
/// Scalar kernels replicate the exact loops the fast engines shipped with
/// (PRs 2/3), so `CCPRED_SIMD=scalar` reproduces pre-SIMD behavior.

#include <cstddef>
#include <cstdint>

namespace ccpred::simd {

enum class Mode { kScalar = 0, kAvx2 = 1 };

struct CpuFeatures {
  bool avx2 = false;
  bool fma = false;
};

/// CPUID-based detection (always false off x86).
CpuFeatures detect_cpu();

/// Flat traversal node, layout-compatible with CompiledEnsemble's packed
/// SoA node (16 bytes: threshold, split feature, absolute left child).
struct TravNode {
  double threshold;
  std::int32_t tfeat;
  std::int32_t left;
};

struct Ops {
  /// out[i] = exp(-gamma * dist2[i]) for i in [0, n).
  void (*rbf_exp_map)(const double* dist2, double* out, std::size_t n,
                      double gamma);

  /// out[j] = sum_k (xt[k*n + j] - row[k])^2 for j in [j0, j1).
  /// `xt` is a d x n column-major block (feature-major); accumulation is
  /// k-ascending per j, matching the row-pair reference order.
  void (*sqdist_row)(const double* xt, std::size_t n, std::size_t d,
                     const double* row, std::size_t j0, std::size_t j1,
                     double* out);

  /// One level-synchronous descent step: for each row i of the block,
  /// idx[i] = nd.left + !(row[nd.tfeat] <= nd.threshold) with nd =
  /// nodes[idx[i]]. Leaves self-absorb (+inf threshold).
  void (*ensemble_step)(const TravNode* nodes, const double* x,
                        std::size_t bn, std::size_t n_cols, std::int32_t* idx);

  /// Gradient-histogram accumulation: for each row r in rows[0..n),
  /// sum[offsets[f] + codes[r*d+f]] += y[r] and the matching count++,
  /// features in ascending order per row, rows in array order. When
  /// n >= 8 * total_bins both modes switch to 4-way-unrolled partial
  /// histograms with a deterministic ((p0+p1)+p2)+p3 merge, so results
  /// stay bit-identical across modes at every size.
  void (*hist_accumulate)(const std::uint16_t* codes, std::size_t d,
                          const int* offsets, const std::uint32_t* rows,
                          std::size_t n, const double* y, double* sum,
                          std::uint32_t* count, std::size_t total_bins);

  /// sum[i] -= osum[i], count[i] -= ocount[i] over [0, total_bins).
  void (*hist_subtract)(double* sum, std::uint32_t* count, const double* osum,
                        const std::uint32_t* ocount, std::size_t total_bins);

  /// Best-split scan over one feature's `m` candidate boundaries
  /// (bins 0..m-1 of a histogram slice). Updates *io_best_gain / *out_bin
  /// with first-strictly-greater semantics, starting from the passed-in
  /// running best; on improvement also writes the winning boundary's left
  /// prefix (sum through bin *out_bin accumulated in ascending bin order,
  /// and its row count) to *out_left_sum / *out_left_count and returns
  /// true. All-zero count blocks are skipped in every mode (their sums are
  /// exactly +0.0), so results are mode-independent bit-for-bit. Both
  /// tables currently share the scalar implementation: the scan is a
  /// serial prefix with almost no arithmetic per bin, and the measured
  /// two-pass AVX2 variant was parity at the engine's bin counts.
  bool (*split_scan)(const double* sum, const std::uint32_t* count, int m,
                     double total, std::size_t n, std::size_t min_leaf,
                     double* io_best_gain, int* out_bin, double* out_left_sum,
                     std::size_t* out_left_count);

  /// Quantile-bin code assignment: out[r*out_stride] = index of the first
  /// edge >= x[r*stride] in the ascending `edges` array (== the number of
  /// edges strictly less than the value), for r in [0, n). The result is an
  /// integer count, so modes agree bit-for-bit by construction, including
  /// values exactly equal to an edge. The scalar path is the shipped
  /// per-value binary search; the AVX2 path holds up to 64 edges in
  /// registers and counts compare-mask lanes (falling back to the scalar
  /// search above that), which measures 2.5-3.4x at the engine's edge
  /// counts because the branchy search never auto-vectorizes.
  void (*bin_codes)(const double* x, std::size_t n, std::size_t stride,
                    const double* edges, int n_edges, std::uint16_t* out,
                    std::size_t out_stride);

  /// Fused trailing update, the shared primitive of the blocked-Cholesky
  /// SYRK and panel solves: for c in [0, len),
  ///   ya[c] -= a[0]*y0[c] + a[1]*y1[c] + a[2]*y2[c] + a[3]*y3[c]
  ///   yb[c] -= b[0]*y0[c] + ...
  void (*update2x4)(double* ya, double* yb, const double* a, const double* b,
                    const double* y0, const double* y1, const double* y2,
                    const double* y3, std::size_t len);

  /// Single-destination-row variant of update2x4.
  void (*update1x4)(double* yr, const double* a, const double* y0,
                    const double* y1, const double* y2, const double* y3,
                    std::size_t len);
};

/// Active table: detected mode or `CCPRED_SIMD` override, resolved once.
const Ops& ops();

/// Explicit table access for tests and benches. `ops_for(Mode::kAvx2)` on a
/// non-AVX2 host returns the scalar table (callers should check
/// `avx2_available()` before timing comparisons).
const Ops& ops_for(Mode mode);

/// The mode `ops()` resolved to.
Mode active_mode();

/// True when the AVX2+FMA table is actually vectorized (x86 with both
/// features compiled in and present).
bool avx2_available();

const char* mode_name(Mode mode);

/// Swap the active table (tests only; not thread-safe against concurrent
/// first-use initialization).
void set_mode_for_testing(Mode mode);

}  // namespace ccpred::simd
