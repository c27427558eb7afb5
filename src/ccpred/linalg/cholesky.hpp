#pragma once

/// \file cholesky.hpp
/// Cholesky factorization of symmetric positive-definite matrices, the
/// backbone of the kernel ridge / Gaussian-process / Bayesian-ridge solvers.
///
/// The factorization is blocked and right-looking: panel factorization,
/// then GEMM-shaped trailing updates fanned out over the shared thread
/// pool. For orders up to the panel width it performs exactly the
/// arithmetic of the scalar left-looking column algorithm, which the test
/// oracle keeps as the reference.

#include <vector>

#include "ccpred/linalg/matrix.hpp"

namespace ccpred::linalg {

/// Lower-triangular Cholesky factor L with A = L L^T.
///
/// Factorizes once, then solves any number of right-hand sides in O(n^2) —
/// or a whole right-hand-side matrix per blocked sweep.
class Cholesky {
 public:
  /// Factorizes `a` (must be square, symmetric, positive definite).
  /// Taken by value: the factorization runs in place, so moving in a
  /// matrix the caller no longer needs skips a copy.
  /// Throws ccpred::Error if a non-positive pivot is encountered.
  explicit Cholesky(Matrix a);

  std::size_t order() const { return l_.rows(); }

  /// The factor L (lower triangular; upper part is zero).
  const Matrix& factor() const { return l_; }

  /// Solves A x = b.
  std::vector<double> solve(const std::vector<double>& b) const;

  /// Solves A X = B for all columns of B in one blocked sweep.
  Matrix solve(const Matrix& b) const;

  /// Solves L y = b (forward substitution).
  std::vector<double> solve_lower(const std::vector<double>& b) const;

  /// Solves L^T x = y (backward substitution).
  std::vector<double> solve_upper(const std::vector<double>& y) const;

  /// Solves L Y = B for every column of B (blocked multi-RHS forward
  /// substitution; column stripes run in parallel).
  Matrix solve_lower(const Matrix& b) const;

  /// Solves L^T X = Y for every column of Y (blocked multi-RHS backward
  /// substitution; column stripes run in parallel).
  Matrix solve_upper(const Matrix& y) const;

  /// Appends q rows/columns to the factored matrix in O(n^2 q) without
  /// refactorizing: given the new rows' covariance against the existing
  /// points (`cross`, q x n) and among themselves (`diag`, q x q), extends
  /// L for [[A, cross^T], [cross, diag]]. Throws ccpred::Error if the
  /// extended matrix is not positive definite.
  void extend(const Matrix& cross, const Matrix& diag);

  /// log(det A) = 2 * sum(log L_ii); used by GP marginal likelihood.
  double log_determinant() const;

  /// A^{-1} via one blocked multi-RHS solve of the identity (used by
  /// Bayesian ridge).
  Matrix inverse() const;

 private:
  Matrix l_;
};

}  // namespace ccpred::linalg
