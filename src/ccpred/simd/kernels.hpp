#pragma once

/// \file kernels.hpp
/// Internal declarations for the per-mode kernel implementations. The
/// scalar TU is built with the project's default flags; the AVX2 TU is the
/// only code in the tree compiled with -mavx2 -mfma (and -ffp-contract=off
/// so bit-identity contracts survive), and is compiled empty off x86.

#include <cstddef>

#include "ccpred/simd/simd.hpp"

namespace ccpred::simd {

void scalar_rbf_exp_map(const double* dist2, double* out, std::size_t n,
                        double gamma);
void scalar_sqdist_row(const double* xt, std::size_t n, std::size_t d,
                       const double* row, std::size_t j0, std::size_t j1,
                       double* out);
void scalar_update2x4(double* ya, double* yb, const double* a, const double* b,
                      const double* y0, const double* y1, const double* y2,
                      const double* y3, std::size_t len);
void scalar_update1x4(double* yr, const double* a, const double* y0,
                      const double* y1, const double* y2, const double* y3,
                      std::size_t len);

#if defined(CCPRED_HAVE_AVX2_BUILD)
void avx2_rbf_exp_map(const double* dist2, double* out, std::size_t n,
                      double gamma);
void avx2_sqdist_row(const double* xt, std::size_t n, std::size_t d,
                     const double* row, std::size_t j0, std::size_t j1,
                     double* out);
void avx2_update2x4(double* ya, double* yb, const double* a, const double* b,
                    const double* y0, const double* y1, const double* y2,
                    const double* y3, std::size_t len);
void avx2_update1x4(double* yr, const double* a, const double* y0,
                    const double* y1, const double* y2, const double* y3,
                    std::size_t len);
#endif

}  // namespace ccpred::simd
