/// \file kernels_scalar.cpp
/// Portable kernel implementations of the four families. These are the
/// exact loops the kernel-model and Cholesky engines ran before the SIMD
/// layer, so the scalar dispatch mode reproduces pre-SIMD numeric behavior
/// bit-for-bit.

#include <cmath>

#include "ccpred/simd/kernels.hpp"

namespace ccpred::simd {

void scalar_rbf_exp_map(const double* dist2, double* out, std::size_t n,
                        double gamma) {
  for (std::size_t i = 0; i < n; ++i) out[i] = std::exp(-gamma * dist2[i]);
}

void scalar_sqdist_row(const double* xt, std::size_t n, std::size_t d,
                       const double* row, std::size_t j0, std::size_t j1,
                       double* out) {
  for (std::size_t j = j0; j < j1; ++j) {
    double acc = 0.0;
    for (std::size_t k = 0; k < d; ++k) {
      const double diff = xt[k * n + j] - row[k];
      acc += diff * diff;
    }
    out[j] = acc;
  }
}

void scalar_update2x4(double* ya, double* yb, const double* a, const double* b,
                      const double* y0, const double* y1, const double* y2,
                      const double* y3, std::size_t len) {
  const double a0 = a[0], a1 = a[1], a2 = a[2], a3 = a[3];
  const double b0 = b[0], b1 = b[1], b2 = b[2], b3 = b[3];
  for (std::size_t c = 0; c < len; ++c) {
    const double q0 = y0[c];
    const double q1 = y1[c];
    const double q2 = y2[c];
    const double q3 = y3[c];
    ya[c] -= a0 * q0 + a1 * q1 + a2 * q2 + a3 * q3;
    yb[c] -= b0 * q0 + b1 * q1 + b2 * q2 + b3 * q3;
  }
}

void scalar_update1x4(double* yr, const double* a, const double* y0,
                      const double* y1, const double* y2, const double* y3,
                      std::size_t len) {
  const double a0 = a[0], a1 = a[1], a2 = a[2], a3 = a[3];
  for (std::size_t c = 0; c < len; ++c) {
    yr[c] -= a0 * y0[c] + a1 * y1[c] + a2 * y2[c] + a3 * y3[c];
  }
}

}  // namespace ccpred::simd
