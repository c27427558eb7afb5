#include "ccpred/linalg/blas.hpp"

#include <algorithm>

#include "ccpred/exec/parallel_for.hpp"

namespace ccpred::linalg {

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  CCPRED_CHECK(a.size() == b.size());
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

std::vector<double> gemv(const Matrix& a, const std::vector<double>& x) {
  CCPRED_CHECK(a.cols() == x.size());
  std::vector<double> y(a.rows(), 0.0);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const double* ar = a.row_ptr(r);
    double s = 0.0;
    for (std::size_t c = 0; c < a.cols(); ++c) s += ar[c] * x[c];
    y[r] = s;
  }
  return y;
}

std::vector<double> gemv_transposed(const Matrix& a,
                                    const std::vector<double>& x) {
  CCPRED_CHECK(a.rows() == x.size());
  std::vector<double> y(a.cols(), 0.0);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const double* ar = a.row_ptr(r);
    const double xr = x[r];
    for (std::size_t c = 0; c < a.cols(); ++c) y[c] += xr * ar[c];
  }
  return y;
}

namespace {

/// Accumulates the upper triangle of A[r0:r1)^T A[r0:r1) into `c`.
void syrk_at_a_rows(const Matrix& a, Matrix& c, std::size_t r0,
                    std::size_t r1) {
  const std::size_t n = a.cols();
  for (std::size_t r = r0; r < r1; ++r) {
    const double* ar = a.row_ptr(r);
    for (std::size_t i = 0; i < n; ++i) {
      const double ari = ar[i];
      if (ari == 0.0) continue;
      double* ci = c.row_ptr(i);
      for (std::size_t j = i; j < n; ++j) ci[j] += ari * ar[j];
    }
  }
}

}  // namespace

Matrix syrk_at_a(const Matrix& a) {
  const std::size_t n = a.cols();
  const std::size_t m = a.rows();
  Matrix c(n, n);
  // Row stripes with per-stripe accumulators, reduced serially in stripe
  // order afterwards — deterministic for any worker count. Small products
  // stay on the single-threaded path to skip the fork/join and the
  // accumulator allocations.
  constexpr std::size_t kStripe = 256;
  const std::size_t stripes = (m + kStripe - 1) / kStripe;
  if (stripes <= 1 || m * n * n < (1u << 18)) {
    syrk_at_a_rows(a, c, 0, m);
  } else {
    std::vector<Matrix> partial(stripes, Matrix(n, n));
    exec::parallel_for(0, stripes, [&](std::size_t s) {
      const std::size_t r0 = s * kStripe;
      syrk_at_a_rows(a, partial[s], r0, std::min(m, r0 + kStripe));
    });
    for (const auto& p : partial) c += p;
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) c(i, j) = c(j, i);
  }
  return c;
}

}  // namespace ccpred::linalg
