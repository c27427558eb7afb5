#include "ccpred/linalg/solve.hpp"

#include "ccpred/linalg/blas.hpp"
#include "ccpred/linalg/cholesky.hpp"

namespace ccpred::linalg {

std::vector<double> ridge_solve(const Matrix& a, const std::vector<double>& b,
                                double lambda) {
  CCPRED_CHECK_MSG(lambda >= 0.0, "ridge lambda must be >= 0");
  CCPRED_CHECK(a.rows() == b.size());
  Matrix gram = syrk_at_a(a);
  gram.add_diagonal(lambda);
  const auto rhs = gemv_transposed(a, b);
  return spd_solve_with_jitter(std::move(gram), rhs);
}

std::vector<double> spd_solve_with_jitter(Matrix k, const std::vector<double>& b,
                                          double jitter, int max_tries) {
  double added = 0.0;
  for (int attempt = 0; attempt < max_tries; ++attempt) {
    try {
      return Cholesky(k).solve(b);
    } catch (const Error&) {
      const double bump = (attempt == 0) ? jitter : added;
      k.add_diagonal(bump);
      added += bump;
    }
  }
  throw Error("spd_solve_with_jitter: matrix not positive definite even "
              "after jitter");
}

}  // namespace ccpred::linalg
