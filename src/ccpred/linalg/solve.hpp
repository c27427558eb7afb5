#pragma once

/// \file solve.hpp
/// High-level solver entry points combining the factorizations.

#include <vector>

#include "ccpred/linalg/matrix.hpp"

namespace ccpred::linalg {

/// Solves the ridge system (A^T A + lambda I) x = A^T b via Cholesky on the
/// regularized Gram matrix. lambda must be >= 0; with lambda == 0 this is
/// the normal-equations least-squares solution.
std::vector<double> ridge_solve(const Matrix& a, const std::vector<double>& b,
                                double lambda);

/// Solves the SPD system K x = b, adding `jitter` to the diagonal if the
/// initial factorization fails (retry doubling jitter up to `max_tries`).
/// Returns the solution; throws if it never becomes positive definite.
std::vector<double> spd_solve_with_jitter(Matrix k, const std::vector<double>& b,
                                          double jitter = 1e-10,
                                          int max_tries = 8);

}  // namespace ccpred::linalg
