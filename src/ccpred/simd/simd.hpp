#pragma once

/// \file simd.hpp
/// Runtime-dispatched vector kernels for the hot numeric loop families:
/// the kernel-model maps (`rbf_exp_map`, `sqdist_row`) and the blocked
/// Cholesky's trailing updates (`update2x4`, `update1x4`).
///
/// Layout: a function-pointer table (`Ops`) per dispatch mode. `ops()`
/// returns the active table, chosen once at first use: AVX2+FMA when the
/// CPU reports both (x86 only), scalar otherwise, overridable with
/// `CCPRED_SIMD=scalar|avx2`. `ops_for()` exposes both tables so tests and
/// benches can compare the implementations directly.
///
/// Numeric contracts (enforced by tests/simd_test.cpp):
///  - `sqdist_row`: bit-identical results across modes. The AVX2 variant
///    keeps multiply and add separate (no FMA contraction; the TU is built
///    with -ffp-contract=off) and preserves the scalar accumulation order.
///  - `rbf_exp_map`: the AVX2 path uses a Cephes-style polynomial exp
///    (measured max relative error ~3e-16 vs libm); agreement with the
///    scalar path is gated far below the engine-wide 1e-9 tolerance.
///  - `update2x4` / `update1x4`: FMA-fused multiply-adds; the blocked
///    Cholesky agrees with the test oracle's left-looking factorization
///    within 1e-9, not bit-identically.
///
/// Scalar kernels replicate the exact loops the kernel-model and Cholesky
/// engines ran before vectorization, so `CCPRED_SIMD=scalar` reproduces
/// pre-SIMD behavior. Tree-ensemble descent is not dispatched: a gathered
/// AVX2 step was no faster than `CompiledEnsemble`'s scalar loop.

#include <cstddef>

namespace ccpred::simd {

enum class Mode { kScalar = 0, kAvx2 = 1 };

struct CpuFeatures {
  bool avx2 = false;
  bool fma = false;
};

/// CPUID-based detection (always false off x86).
CpuFeatures detect_cpu();

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
