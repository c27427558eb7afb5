#include "ccpred/linalg/cholesky.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "ccpred/exec/parallel_for.hpp"
#include "ccpred/linalg/blas.hpp"
#include "ccpred/simd/simd.hpp"

namespace ccpred::linalg {

namespace {

/// Panel width of the blocked factorization. Orders up to kPanel take the
/// scalar diagonal-block path only, which performs the exact arithmetic of
/// the left-looking column algorithm — small factorizations are
/// bit-for-bit stable.
constexpr std::size_t kPanel = 64;

/// Row-stripe granularity for parallel panel solves / trailing updates.
constexpr std::size_t kRowStripe = 64;

/// Column-stripe granularity for parallel multi-RHS triangular solves.
/// Each stripe's working set (panel rows x stripe) stays L2-resident.
constexpr std::size_t kColStripe = 128;

/// Blocked right-looking factorization, in place on `l` (initially a copy
/// of A). Per panel: scalar diagonal-block factorization, row-wise panel
/// solve, then a GEMM-shaped trailing update through a transposed panel
/// buffer whose inner loops are contiguous (vectorizable) — unlike the
/// left-looking algorithm's serial dot-product recurrences. Panel solve and
/// trailing update fan out over the shared pool in row stripes.
void factor_blocked(Matrix& l) {
  const std::size_t n = l.rows();
  std::vector<double> panel(kPanel * n);
  for (std::size_t k = 0; k < n; k += kPanel) {
    const std::size_t kb = std::min(kPanel, n - k);
    const std::size_t k1 = k + kb;
    // Diagonal block: left-looking restricted to the panel columns (their
    // trailing updates from previous panels are already applied).
    for (std::size_t j = k; j < k1; ++j) {
      double* lj = l.row_ptr(j);
      double d = lj[j];
      for (std::size_t t = k; t < j; ++t) d -= lj[t] * lj[t];
      CCPRED_CHECK_MSG(d > 0.0, "matrix is not positive definite (pivot "
                                    << d << " at column " << j << ")");
      const double ljj = std::sqrt(d);
      lj[j] = ljj;
      const double inv = 1.0 / ljj;
      for (std::size_t i = j + 1; i < k1; ++i) {
        double* li = l.row_ptr(i);
        double s = li[j];
        for (std::size_t t = k; t < j; ++t) s -= li[t] * lj[t];
        li[j] = s * inv;
      }
    }
    if (k1 >= n) break;
    const std::size_t stripes = (n - k1 + kRowStripe - 1) / kRowStripe;
    // Transposed diagonal block (tkk[j][jj] = L(jj, k + j)) so the panel
    // solve's inner updates run contiguously.
    std::vector<double> tkk(kb * kb, 0.0);
    for (std::size_t j = 0; j < kb; ++j) {
      for (std::size_t jj = j + 1; jj < kb; ++jj) {
        tkk[j * kb + jj] = l(k + jj, k + j);
      }
    }
    // Panel solve: L[i, k:k1] = A[i, k:k1] L_kk^{-T}, right-looking per row
    // (divide by the pivot, then push the column's contribution forward).
    exec::parallel_for(0, stripes, [&](std::size_t s) {
      const std::size_t i0 = k1 + s * kRowStripe;
      const std::size_t i1 = std::min(n, i0 + kRowStripe);
      for (std::size_t i = i0; i < i1; ++i) {
        double* li = l.row_ptr(i) + k;
        for (std::size_t j = 0; j < kb; ++j) {
          const double c = li[j] / l(k + j, k + j);
          li[j] = c;
          const double* tj = tkk.data() + j * kb;
          for (std::size_t jj = j + 1; jj < kb; ++jj) li[jj] -= c * tj[jj];
        }
      }
    });
    // Transpose the sub-diagonal panel so the trailing update streams
    // contiguously: panel[t][j] = L(j, k + t).
    for (std::size_t t = 0; t < kb; ++t) {
      double* pt = panel.data() + t * n;
      for (std::size_t j = k1; j < n; ++j) pt[j] = l(j, k + t);
    }
    // Trailing update A22 -= P P^T (SYRK), lower triangle only. Four panel
    // rows per pass so each li[j] load/store is amortized over 8 flops;
    // the 2x4 register block is the simd::update2x4 primitive (FMA when
    // the AVX2 mode is active — covered by the 1e-9 agreement bound with
    // the left-looking oracle, not bit-identity). Each row's terms are
    // still accumulated in the same order, so the result is deterministic
    // for a given mode.
    const auto& ops = simd::ops();
    exec::parallel_for(0, stripes, [&](std::size_t s) {
      const std::size_t i0 = k1 + s * kRowStripe;
      const std::size_t i1 = std::min(n, i0 + kRowStripe);
      std::size_t i = i0;
      for (; i + 2 <= i1; i += 2) {
        double* la = l.row_ptr(i);
        double* lb = l.row_ptr(i + 1);
        const std::size_t len = i - k1 + 1;
        std::size_t t = 0;
        for (; t + 4 <= kb; t += 4) {
          const double* p0 = panel.data() + t * n;
          const double* p1 = p0 + n;
          const double* p2 = p1 + n;
          const double* p3 = p2 + n;
          const double* av = la + k + t;
          const double* bv = lb + k + t;
          ops.update2x4(la + k1, lb + k1, av, bv, p0 + k1, p1 + k1, p2 + k1,
                        p3 + k1, len);
          lb[i + 1] -= bv[0] * p0[i + 1] + bv[1] * p1[i + 1] +
                       bv[2] * p2[i + 1] + bv[3] * p3[i + 1];
        }
        for (; t < kb; ++t) {
          const double ca = la[k + t];
          const double cb = lb[k + t];
          const double* pt = panel.data() + t * n;
          for (std::size_t j = k1; j <= i; ++j) {
            la[j] -= ca * pt[j];
            lb[j] -= cb * pt[j];
          }
          lb[i + 1] -= cb * pt[i + 1];
        }
      }
      for (; i < i1; ++i) {
        double* li = l.row_ptr(i);
        const std::size_t len = i - k1 + 1;
        std::size_t t = 0;
        for (; t + 4 <= kb; t += 4) {
          const double* p0 = panel.data() + t * n;
          const double* p1 = p0 + n;
          const double* p2 = p1 + n;
          const double* p3 = p2 + n;
          ops.update1x4(li + k1, li + k + t, p0 + k1, p1 + k1, p2 + k1,
                        p3 + k1, len);
        }
        for (; t < kb; ++t) {
          const double c = li[k + t];
          const double* pt = panel.data() + t * n;
          for (std::size_t j = k1; j <= i; ++j) li[j] -= c * pt[j];
        }
      }
    });
  }
  // The factorization only wrote the lower triangle; clear A's upper part.
  for (std::size_t i = 0; i < n; ++i) {
    double* li = l.row_ptr(i);
    for (std::size_t j = i + 1; j < n; ++j) li[j] = 0.0;
  }
}

/// Blocked forward substitution L Y = B on the column range [c0, c1) of
/// `y`, in place. Inner loops run contiguously over the columns.
void solve_lower_cols(const Matrix& l, Matrix& y, std::size_t c0,
                      std::size_t c1) {
  const std::size_t n = l.rows();
  for (std::size_t k = 0; k < n; k += kPanel) {
    const std::size_t k1 = std::min(n, k + kPanel);
    // In-block forward solve.
    for (std::size_t i = k; i < k1; ++i) {
      double* yi = y.row_ptr(i);
      const double* li = l.row_ptr(i);
      for (std::size_t t = k; t < i; ++t) {
        const double lit = li[t];
        if (lit == 0.0) continue;
        const double* yt = y.row_ptr(t);
        for (std::size_t c = c0; c < c1; ++c) yi[c] -= lit * yt[c];
      }
      const double lii = li[i];
      for (std::size_t c = c0; c < c1; ++c) yi[c] /= lii;
    }
    // Trailing rows absorb the solved block; four block rows and two
    // trailing rows per pass amortize every load/store over 16 flops.
    std::size_t r = k1;
    for (; r + 2 <= n; r += 2) {
      double* ya = y.row_ptr(r);
      double* yb = y.row_ptr(r + 1);
      const double* la = l.row_ptr(r);
      const double* lb = l.row_ptr(r + 1);
      std::size_t t = k;
      for (; t + 4 <= k1; t += 4) {
        const double a0 = la[t];
        const double a1 = la[t + 1];
        const double a2 = la[t + 2];
        const double a3 = la[t + 3];
        const double b0 = lb[t];
        const double b1 = lb[t + 1];
        const double b2 = lb[t + 2];
        const double b3 = lb[t + 3];
        const double* y0 = y.row_ptr(t);
        const double* y1 = y.row_ptr(t + 1);
        const double* y2 = y.row_ptr(t + 2);
        const double* y3 = y.row_ptr(t + 3);
        for (std::size_t c = c0; c < c1; ++c) {
          const double q0 = y0[c];
          const double q1 = y1[c];
          const double q2 = y2[c];
          const double q3 = y3[c];
          ya[c] -= a0 * q0 + a1 * q1 + a2 * q2 + a3 * q3;
          yb[c] -= b0 * q0 + b1 * q1 + b2 * q2 + b3 * q3;
        }
      }
      for (; t < k1; ++t) {
        const double at = la[t];
        const double bt = lb[t];
        const double* yt = y.row_ptr(t);
        for (std::size_t c = c0; c < c1; ++c) {
          ya[c] -= at * yt[c];
          yb[c] -= bt * yt[c];
        }
      }
    }
    for (; r < n; ++r) {
      double* yr = y.row_ptr(r);
      const double* lr = l.row_ptr(r);
      std::size_t t = k;
      for (; t + 4 <= k1; t += 4) {
        const double a0 = lr[t];
        const double a1 = lr[t + 1];
        const double a2 = lr[t + 2];
        const double a3 = lr[t + 3];
        const double* y0 = y.row_ptr(t);
        const double* y1 = y.row_ptr(t + 1);
        const double* y2 = y.row_ptr(t + 2);
        const double* y3 = y.row_ptr(t + 3);
        for (std::size_t c = c0; c < c1; ++c) {
          yr[c] -= a0 * y0[c] + a1 * y1[c] + a2 * y2[c] + a3 * y3[c];
        }
      }
      for (; t < k1; ++t) {
        const double lrt = lr[t];
        const double* yt = y.row_ptr(t);
        for (std::size_t c = c0; c < c1; ++c) yr[c] -= lrt * yt[c];
      }
    }
  }
}

/// Blocked backward substitution L^T X = Y on the column range [c0, c1) of
/// `y`, in place.
void solve_upper_cols(const Matrix& l, Matrix& y, std::size_t c0,
                      std::size_t c1) {
  const std::size_t n = l.rows();
  const std::size_t blocks = (n + kPanel - 1) / kPanel;
  for (std::size_t b = blocks; b-- > 0;) {
    const std::size_t k = b * kPanel;
    const std::size_t k1 = std::min(n, k + kPanel);
    // Already-solved trailing rows contribute L(r, i) to block row i; four
    // trailing rows and two block rows per pass amortize each load/store
    // over 16 flops.
    std::size_t i = k;
    for (; i + 2 <= k1; i += 2) {
      double* ya = y.row_ptr(i);
      double* yb = y.row_ptr(i + 1);
      std::size_t r = k1;
      for (; r + 4 <= n; r += 4) {
        const double a0 = l(r, i);
        const double a1 = l(r + 1, i);
        const double a2 = l(r + 2, i);
        const double a3 = l(r + 3, i);
        const double b0 = l(r, i + 1);
        const double b1 = l(r + 1, i + 1);
        const double b2 = l(r + 2, i + 1);
        const double b3 = l(r + 3, i + 1);
        const double* y0 = y.row_ptr(r);
        const double* y1 = y.row_ptr(r + 1);
        const double* y2 = y.row_ptr(r + 2);
        const double* y3 = y.row_ptr(r + 3);
        for (std::size_t c = c0; c < c1; ++c) {
          const double q0 = y0[c];
          const double q1 = y1[c];
          const double q2 = y2[c];
          const double q3 = y3[c];
          ya[c] -= a0 * q0 + a1 * q1 + a2 * q2 + a3 * q3;
          yb[c] -= b0 * q0 + b1 * q1 + b2 * q2 + b3 * q3;
        }
      }
      for (; r < n; ++r) {
        const double ar = l(r, i);
        const double br = l(r, i + 1);
        const double* yr = y.row_ptr(r);
        for (std::size_t c = c0; c < c1; ++c) {
          ya[c] -= ar * yr[c];
          yb[c] -= br * yr[c];
        }
      }
    }
    for (; i < k1; ++i) {
      double* yi = y.row_ptr(i);
      std::size_t r = k1;
      for (; r + 4 <= n; r += 4) {
        const double a0 = l(r, i);
        const double a1 = l(r + 1, i);
        const double a2 = l(r + 2, i);
        const double a3 = l(r + 3, i);
        const double* y0 = y.row_ptr(r);
        const double* y1 = y.row_ptr(r + 1);
        const double* y2 = y.row_ptr(r + 2);
        const double* y3 = y.row_ptr(r + 3);
        for (std::size_t c = c0; c < c1; ++c) {
          yi[c] -= a0 * y0[c] + a1 * y1[c] + a2 * y2[c] + a3 * y3[c];
        }
      }
      for (; r < n; ++r) {
        const double lri = l(r, i);
        const double* yr = y.row_ptr(r);
        for (std::size_t c = c0; c < c1; ++c) yi[c] -= lri * yr[c];
      }
    }
    // In-block backward solve.
    for (std::size_t ii = k1; ii-- > k;) {
      double* yi = y.row_ptr(ii);
      for (std::size_t t = ii + 1; t < k1; ++t) {
        const double lti = l(t, ii);
        if (lti == 0.0) continue;
        const double* yt = y.row_ptr(t);
        for (std::size_t c = c0; c < c1; ++c) yi[c] -= lti * yt[c];
      }
      const double lii = l(ii, ii);
      for (std::size_t c = c0; c < c1; ++c) yi[c] /= lii;
    }
  }
}

/// Runs a column-striped triangular solve over all columns of `y` in
/// parallel (stripes are independent, so results are deterministic).
template <typename Solver>
void for_each_col_stripe(Matrix& y, const Solver& solver) {
  const std::size_t m = y.cols();
  const std::size_t stripes = (m + kColStripe - 1) / kColStripe;
  exec::parallel_for(0, stripes, [&](std::size_t s) {
    const std::size_t c0 = s * kColStripe;
    solver(c0, std::min(m, c0 + kColStripe));
  });
}

}  // namespace

Cholesky::Cholesky(Matrix a) : l_(std::move(a)) {
  CCPRED_CHECK_MSG(l_.rows() == l_.cols(),
                   "Cholesky requires a square matrix");
  factor_blocked(l_);
}

std::vector<double> Cholesky::solve_lower(const std::vector<double>& b) const {
  const std::size_t n = order();
  CCPRED_CHECK(b.size() == n);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double* li = l_.row_ptr(i);
    double s = b[i];
    for (std::size_t k = 0; k < i; ++k) s -= li[k] * y[k];
    y[i] = s / li[i];
  }
  return y;
}

std::vector<double> Cholesky::solve_upper(const std::vector<double>& y) const {
  const std::size_t n = order();
  CCPRED_CHECK(y.size() == n);
  std::vector<double> x = y;
  for (std::size_t ii = n; ii-- > 0;) {
    x[ii] /= l_(ii, ii);
    const double xi = x[ii];
    // Column access on L == row access on L^T.
    for (std::size_t k = 0; k < ii; ++k) x[k] -= l_(ii, k) * xi;
  }
  return x;
}

std::vector<double> Cholesky::solve(const std::vector<double>& b) const {
  return solve_upper(solve_lower(b));
}

Matrix Cholesky::solve_lower(const Matrix& b) const {
  CCPRED_CHECK(b.rows() == order());
  Matrix y = b;
  for_each_col_stripe(y, [&](std::size_t c0, std::size_t c1) {
    solve_lower_cols(l_, y, c0, c1);
  });
  return y;
}

Matrix Cholesky::solve_upper(const Matrix& y) const {
  CCPRED_CHECK(y.rows() == order());
  Matrix x = y;
  for_each_col_stripe(x, [&](std::size_t c0, std::size_t c1) {
    solve_upper_cols(l_, x, c0, c1);
  });
  return x;
}

Matrix Cholesky::solve(const Matrix& b) const {
  CCPRED_CHECK(b.rows() == order());
  Matrix x = b;
  for_each_col_stripe(x, [&](std::size_t c0, std::size_t c1) {
    solve_lower_cols(l_, x, c0, c1);
    solve_upper_cols(l_, x, c0, c1);
  });
  return x;
}

void Cholesky::extend(const Matrix& cross, const Matrix& diag) {
  const std::size_t n = order();
  const std::size_t q = cross.rows();
  CCPRED_CHECK_MSG(q > 0, "Cholesky::extend needs at least one new row");
  CCPRED_CHECK_MSG(cross.cols() == n,
                   "Cholesky::extend cross block must be q x n, got "
                       << q << "x" << cross.cols() << " for order " << n);
  CCPRED_CHECK_MSG(diag.rows() == q && diag.cols() == q,
                   "Cholesky::extend diagonal block must be q x q");
  // L21^T = L^{-1} B^T via one blocked multi-RHS forward solve: O(n^2 q).
  const Matrix y = solve_lower(cross.transposed());
  // Schur complement S = C - L21 L21^T = C - Y^T Y; its factor is L22.
  Matrix s = diag;
  s -= syrk_at_a(y);
  // Throws the standard non-PD error if the extension is not SPD.
  const Cholesky s_chol(std::move(s));
  Matrix nl(n + q, n + q);
  for (std::size_t i = 0; i < n; ++i) {
    const double* src = l_.row_ptr(i);
    std::copy(src, src + n, nl.row_ptr(i));
  }
  const Matrix& l22 = s_chol.factor();
  for (std::size_t r = 0; r < q; ++r) {
    double* dst = nl.row_ptr(n + r);
    for (std::size_t j = 0; j < n; ++j) dst[j] = y(j, r);
    for (std::size_t c = 0; c <= r; ++c) dst[n + c] = l22(r, c);
  }
  l_ = std::move(nl);
}

double Cholesky::log_determinant() const {
  double s = 0.0;
  for (std::size_t i = 0; i < order(); ++i) s += std::log(l_(i, i));
  return 2.0 * s;
}

Matrix Cholesky::inverse() const {
  return solve(Matrix::identity(order()));
}

}  // namespace ccpred::linalg
