#include "ccpred/core/kernels.hpp"

#include <cmath>

#include <vector>

#include "ccpred/common/error.hpp"
#include "ccpred/exec/parallel_for.hpp"
#include "ccpred/simd/simd.hpp"

namespace ccpred::ml {

double Kernel::operator()(const double* x, const double* z,
                          std::size_t d) const {
  switch (type) {
    case KernelType::kRbf: {
      double s = 0.0;
      for (std::size_t i = 0; i < d; ++i) {
        const double diff = x[i] - z[i];
        s += diff * diff;
      }
      return std::exp(-gamma * s);
    }
    case KernelType::kPolynomial: {
      double s = 0.0;
      for (std::size_t i = 0; i < d; ++i) s += x[i] * z[i];
      return std::pow(gamma * s + coef0, degree);
    }
    case KernelType::kLinear: {
      double s = 0.0;
      for (std::size_t i = 0; i < d; ++i) s += x[i] * z[i];
      return s;
    }
  }
  throw Error("unknown kernel type");
}

linalg::Matrix Kernel::gram(const linalg::Matrix& a,
                            const linalg::Matrix& b) const {
  CCPRED_CHECK_MSG(a.cols() == b.cols(), "kernel feature dims differ");
  linalg::Matrix k(a.rows(), b.rows());
  const std::size_t d = a.cols();
  exec::parallel_for(0, a.rows(), [&](std::size_t i) {
    const double* ai = a.row_ptr(i);
    double* ki = k.row_ptr(i);
    for (std::size_t j = 0; j < b.rows(); ++j) {
      ki[j] = (*this)(ai, b.row_ptr(j), d);
    }
  });
  return k;
}

linalg::Matrix Kernel::gram_symmetric(const linalg::Matrix& a) const {
  const std::size_t n = a.rows();
  linalg::Matrix k(n, n);
  const std::size_t d = a.cols();
  // Upper-triangle row i holds n - i entries, so a flat split over rows
  // gives the worker owning row 0 n entries and the one owning row n-1 a
  // single one. Pairing row p with its mirror n-1-p makes every index
  // carry ~n+1 entries, so the static chunking stays balanced.
  const std::size_t half = (n + 1) / 2;
  exec::parallel_for(0, half, [&](std::size_t p) {
    const double* ap = a.row_ptr(p);
    for (std::size_t j = p; j < n; ++j) {
      k(p, j) = (*this)(ap, a.row_ptr(j), d);
    }
    const std::size_t q = n - 1 - p;
    if (q == p) return;
    const double* aq = a.row_ptr(q);
    for (std::size_t j = q; j < n; ++j) {
      k(q, j) = (*this)(aq, a.row_ptr(j), d);
    }
  });
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) k(i, j) = k(j, i);
  }
  return k;
}

std::string Kernel::name() const {
  switch (type) {
    case KernelType::kRbf:
      return "rbf";
    case KernelType::kPolynomial:
      return "poly";
    case KernelType::kLinear:
      return "linear";
  }
  return "unknown";
}

namespace {

/// Feature-major (d x n) copy of `a`'s rows, the layout simd::sqdist_row
/// streams over: lane j of a vector load is point j, so four squared
/// distances build at once with the same k-ascending accumulation order as
/// the row-pair loop.
std::vector<double> transpose_points(const linalg::Matrix& a) {
  const std::size_t n = a.rows();
  const std::size_t d = a.cols();
  std::vector<double> xt(n * d);
  for (std::size_t i = 0; i < n; ++i) {
    const double* row = a.row_ptr(i);
    for (std::size_t k = 0; k < d; ++k) xt[k * n + i] = row[k];
  }
  return xt;
}

}  // namespace

linalg::Matrix squared_distances(const linalg::Matrix& a) {
  const std::size_t n = a.rows();
  const std::size_t d = a.cols();
  linalg::Matrix k(n, n);
  const std::vector<double> xt = transpose_points(a);
  const auto& ops = simd::ops();
  // Mirror-paired rows, same balancing as Kernel::gram_symmetric.
  const std::size_t half = (n + 1) / 2;
  exec::parallel_for(0, half, [&](std::size_t p) {
    ops.sqdist_row(xt.data(), n, d, a.row_ptr(p), p, n, k.row_ptr(p));
    const std::size_t q = n - 1 - p;
    if (q == p) return;
    ops.sqdist_row(xt.data(), n, d, a.row_ptr(q), q, n, k.row_ptr(q));
  });
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) k(i, j) = k(j, i);
  }
  return k;
}

linalg::Matrix squared_distances(const linalg::Matrix& a,
                                 const linalg::Matrix& b) {
  CCPRED_CHECK_MSG(a.cols() == b.cols(), "kernel feature dims differ");
  const std::size_t d = a.cols();
  linalg::Matrix k(a.rows(), b.rows());
  const std::vector<double> bt = transpose_points(b);
  const auto& ops = simd::ops();
  exec::parallel_for(0, a.rows(), [&](std::size_t i) {
    ops.sqdist_row(bt.data(), b.rows(), d, a.row_ptr(i), 0, b.rows(),
                   k.row_ptr(i));
  });
  return k;
}

linalg::Matrix rbf_from_squared_distances(const linalg::Matrix& d2,
                                          double gamma) {
  linalg::Matrix k(d2.rows(), d2.cols());
  simd::ops().rbf_exp_map(d2.data(), k.data(), d2.size(), gamma);
  return k;
}

linalg::Matrix rbf_from_squared_distances_symmetric(const linalg::Matrix& d2,
                                                    double gamma) {
  CCPRED_CHECK_MSG(d2.rows() == d2.cols(),
                   "symmetric RBF map needs a square distance matrix");
  const std::size_t n = d2.rows();
  linalg::Matrix k(n, n);
  // exp() only the upper triangle and mirror: half the transcendental
  // cost of the dense map. Mirror-paired rows keep the split balanced.
  const auto& ops = simd::ops();
  const std::size_t half = (n + 1) / 2;
  exec::parallel_for(0, half, [&](std::size_t p) {
    ops.rbf_exp_map(d2.row_ptr(p) + p, k.row_ptr(p) + p, n - p, gamma);
    const std::size_t q = n - 1 - p;
    if (q == p) return;
    ops.rbf_exp_map(d2.row_ptr(q) + q, k.row_ptr(q) + q, n - q, gamma);
  });
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) k(i, j) = k(j, i);
  }
  return k;
}

KernelType kernel_type_from_name(const std::string& name) {
  if (name == "rbf") return KernelType::kRbf;
  if (name == "poly" || name == "polynomial") return KernelType::kPolynomial;
  if (name == "linear") return KernelType::kLinear;
  throw Error("unknown kernel name: " + name);
}

}  // namespace ccpred::ml
