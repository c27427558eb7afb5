/// \file kernels_avx2.cpp
/// AVX2+FMA implementations of the four kernel families. This is the only
/// translation unit in the tree built with -mavx2 -mfma; it is also built
/// with -ffp-contract=off so the compiler cannot fuse `sqdist_row`'s
/// mul+add sequence, which carries a bit-identity contract — FMA appears
/// only where written explicitly (`rbf_exp_map`, `update2x4`/`update1x4`),
/// which are the kernels covered by the 1e-9 agreement gates instead.

#if defined(CCPRED_HAVE_AVX2_BUILD)

#include <immintrin.h>

#include <cmath>

#include "ccpred/simd/kernels.hpp"

namespace ccpred::simd {

namespace {

/// Cephes-style vector exp (rational 6/6 approximation + 2^k scaling);
/// measured max relative error vs libm ~3e-16 over the RBF input range.
inline __m256d exp_pd(__m256d xv) {
  const __m256d log2e = _mm256_set1_pd(1.4426950408889634073599);
  const __m256d c1 = _mm256_set1_pd(6.93145751953125e-1);
  const __m256d c2 = _mm256_set1_pd(1.42860682030941723212e-6);
  __m256d x = _mm256_max_pd(_mm256_min_pd(xv, _mm256_set1_pd(708.0)),
                            _mm256_set1_pd(-708.0));
  const __m256d fx = _mm256_round_pd(
      _mm256_mul_pd(x, log2e), _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  x = _mm256_fnmadd_pd(fx, c1, x);
  x = _mm256_fnmadd_pd(fx, c2, x);
  const __m256d x2 = _mm256_mul_pd(x, x);
  __m256d px = _mm256_set1_pd(1.26177193074810590878e-4);
  px = _mm256_fmadd_pd(px, x2, _mm256_set1_pd(3.02994407707441961300e-2));
  px = _mm256_fmadd_pd(px, x2, _mm256_set1_pd(9.99999999999999999910e-1));
  px = _mm256_mul_pd(px, x);
  __m256d qx = _mm256_set1_pd(3.00198505138664455042e-6);
  qx = _mm256_fmadd_pd(qx, x2, _mm256_set1_pd(2.52448340349684104192e-3));
  qx = _mm256_fmadd_pd(qx, x2, _mm256_set1_pd(2.27265548208155028766e-1));
  qx = _mm256_fmadd_pd(qx, x2, _mm256_set1_pd(2.00000000000000000005e0));
  __m256d r = _mm256_div_pd(px, _mm256_sub_pd(qx, px));
  r = _mm256_fmadd_pd(_mm256_set1_pd(2.0), r, _mm256_set1_pd(1.0));
  const __m128i k32 = _mm256_cvtpd_epi32(fx);
  const __m256i k64 = _mm256_cvtepi32_epi64(k32);
  const __m256i pow2 =
      _mm256_slli_epi64(_mm256_add_epi64(k64, _mm256_set1_epi64x(1023)), 52);
  const __m256d res = _mm256_mul_pd(r, _mm256_castsi256_pd(pow2));
  // Below the clamp the true exp is at most ~3e-308; flush those lanes to
  // +0 like libm's underflow instead of returning the clamp's floor value.
  const __m256d under =
      _mm256_cmp_pd(xv, _mm256_set1_pd(-708.0), _CMP_LT_OQ);
  return _mm256_andnot_pd(under, res);
}

}  // namespace

void avx2_rbf_exp_map(const double* dist2, double* out, std::size_t n,
                      double gamma) {
  const __m256d ng = _mm256_set1_pd(-gamma);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i,
                     exp_pd(_mm256_mul_pd(ng, _mm256_loadu_pd(dist2 + i))));
  }
  if (i < n) {
    // Tail through the same polynomial (padded vector) so an element's
    // result does not depend on where it lands in the buffer — calls over
    // different slices of the same data agree bit-for-bit.
    alignas(32) double tmp[4] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t j = i; j < n; ++j) tmp[j - i] = dist2[j];
    _mm256_store_pd(tmp, exp_pd(_mm256_mul_pd(ng, _mm256_load_pd(tmp))));
    for (std::size_t j = i; j < n; ++j) out[j] = tmp[j - i];
  }
}

void avx2_sqdist_row(const double* xt, std::size_t n, std::size_t d,
                     const double* row, std::size_t j0, std::size_t j1,
                     double* out) {
  std::size_t j = j0;
  for (; j + 4 <= j1; j += 4) {
    __m256d acc = _mm256_setzero_pd();
    for (std::size_t k = 0; k < d; ++k) {
      const __m256d diff = _mm256_sub_pd(_mm256_loadu_pd(xt + k * n + j),
                                         _mm256_set1_pd(row[k]));
      // mul and add kept separate (never fused): bit-identical to scalar.
      acc = _mm256_add_pd(acc, _mm256_mul_pd(diff, diff));
    }
    _mm256_storeu_pd(out + j, acc);
  }
  for (; j < j1; ++j) {
    double acc = 0.0;
    for (std::size_t k = 0; k < d; ++k) {
      const double diff = xt[k * n + j] - row[k];
      acc += diff * diff;
    }
    out[j] = acc;
  }
}

void avx2_update2x4(double* ya, double* yb, const double* a, const double* b,
                    const double* y0, const double* y1, const double* y2,
                    const double* y3, std::size_t len) {
  const __m256d a0 = _mm256_set1_pd(a[0]);
  const __m256d a1 = _mm256_set1_pd(a[1]);
  const __m256d a2 = _mm256_set1_pd(a[2]);
  const __m256d a3 = _mm256_set1_pd(a[3]);
  const __m256d b0 = _mm256_set1_pd(b[0]);
  const __m256d b1 = _mm256_set1_pd(b[1]);
  const __m256d b2 = _mm256_set1_pd(b[2]);
  const __m256d b3 = _mm256_set1_pd(b[3]);
  std::size_t c = 0;
  for (; c + 4 <= len; c += 4) {
    const __m256d q0 = _mm256_loadu_pd(y0 + c);
    const __m256d q1 = _mm256_loadu_pd(y1 + c);
    const __m256d q2 = _mm256_loadu_pd(y2 + c);
    const __m256d q3 = _mm256_loadu_pd(y3 + c);
    __m256d sa = _mm256_mul_pd(a0, q0);
    sa = _mm256_fmadd_pd(a1, q1, sa);
    sa = _mm256_fmadd_pd(a2, q2, sa);
    sa = _mm256_fmadd_pd(a3, q3, sa);
    __m256d sb = _mm256_mul_pd(b0, q0);
    sb = _mm256_fmadd_pd(b1, q1, sb);
    sb = _mm256_fmadd_pd(b2, q2, sb);
    sb = _mm256_fmadd_pd(b3, q3, sb);
    _mm256_storeu_pd(ya + c, _mm256_sub_pd(_mm256_loadu_pd(ya + c), sa));
    _mm256_storeu_pd(yb + c, _mm256_sub_pd(_mm256_loadu_pd(yb + c), sb));
  }
  for (; c < len; ++c) {
    const double q0 = y0[c], q1 = y1[c], q2 = y2[c], q3 = y3[c];
    ya[c] -= a[0] * q0 + a[1] * q1 + a[2] * q2 + a[3] * q3;
    yb[c] -= b[0] * q0 + b[1] * q1 + b[2] * q2 + b[3] * q3;
  }
}

void avx2_update1x4(double* yr, const double* a, const double* y0,
                    const double* y1, const double* y2, const double* y3,
                    std::size_t len) {
  const __m256d a0 = _mm256_set1_pd(a[0]);
  const __m256d a1 = _mm256_set1_pd(a[1]);
  const __m256d a2 = _mm256_set1_pd(a[2]);
  const __m256d a3 = _mm256_set1_pd(a[3]);
  std::size_t c = 0;
  for (; c + 4 <= len; c += 4) {
    __m256d s = _mm256_mul_pd(a0, _mm256_loadu_pd(y0 + c));
    s = _mm256_fmadd_pd(a1, _mm256_loadu_pd(y1 + c), s);
    s = _mm256_fmadd_pd(a2, _mm256_loadu_pd(y2 + c), s);
    s = _mm256_fmadd_pd(a3, _mm256_loadu_pd(y3 + c), s);
    _mm256_storeu_pd(yr + c, _mm256_sub_pd(_mm256_loadu_pd(yr + c), s));
  }
  for (; c < len; ++c) {
    yr[c] -= a[0] * y0[c] + a[1] * y1[c] + a[2] * y2[c] + a[3] * y3[c];
  }
}

}  // namespace ccpred::simd

#endif  // CCPRED_HAVE_AVX2_BUILD
