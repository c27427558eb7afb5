#pragma once

/// \file blas.hpp
/// Dense level-1/2 kernels and the Gram product used by the matrix
/// factorizations and the linear and kernel models, in plain C++. syrk_at_a
/// parallelizes large products over row stripes through the global thread
/// pool, reducing the stripes in a fixed order.

#include <cstddef>
#include <vector>

#include "ccpred/linalg/matrix.hpp"

namespace ccpred::linalg {

/// Dot product of two equal-length vectors.
double dot(const std::vector<double>& a, const std::vector<double>& b);

/// Returns A * x (x.size() == A.cols()).
std::vector<double> gemv(const Matrix& a, const std::vector<double>& x);

/// Returns A^T * x (x.size() == A.rows()).
std::vector<double> gemv_transposed(const Matrix& a,
                                    const std::vector<double>& x);

/// Returns A^T * A (n x n symmetric, only needs A once).
Matrix syrk_at_a(const Matrix& a);

}  // namespace ccpred::linalg
