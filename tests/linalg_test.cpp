// Unit and property tests for the dense linear algebra kernels.

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "ccpred/common/rng.hpp"
#include "ccpred/linalg/blas.hpp"
#include "ccpred/linalg/cholesky.hpp"
#include "ccpred/linalg/matrix.hpp"
#include "ccpred/linalg/solve.hpp"
#include "oracle/oracle.hpp"

namespace ccpred::linalg {
namespace {

Matrix random_matrix(std::size_t r, std::size_t c, Rng& rng) {
  Matrix m(r, c);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) m(i, j) = rng.uniform(-1.0, 1.0);
  }
  return m;
}

Matrix naive_gemm(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double s = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) s += a(i, k) * b(k, j);
      c(i, j) = s;
    }
  }
  return c;
}

/// Random symmetric positive-definite matrix A = B B^T + n I.
Matrix random_spd(std::size_t n, Rng& rng) {
  const Matrix b = random_matrix(n, n, rng);
  Matrix a = naive_gemm(b, b.transposed());
  a.add_diagonal(static_cast<double>(n) * 0.1);
  return a;
}

// ---------- Matrix ----------

TEST(MatrixTest, ConstructionAndAccess) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = -2.0;
  EXPECT_DOUBLE_EQ(m.at(0, 1), -2.0);
}

TEST(MatrixTest, InitializerList) {
  const Matrix m = {{1, 2}, {3, 4}};
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
  EXPECT_THROW((Matrix{{1, 2}, {3}}), Error);
}

TEST(MatrixTest, AtOutOfRangeThrows) {
  const Matrix m(2, 2);
  EXPECT_THROW(m.at(2, 0), Error);
  EXPECT_THROW(m.at(0, 2), Error);
}

TEST(MatrixTest, Identity) {
  const Matrix i3 = Matrix::identity(3);
  EXPECT_DOUBLE_EQ(i3(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(i3(0, 2), 0.0);
}

TEST(MatrixTest, FromRowsAndRowCol) {
  const auto m = Matrix::from_rows({{1, 2, 3}, {4, 5, 6}});
  EXPECT_EQ(m.row(1), (std::vector<double>{4, 5, 6}));
  EXPECT_EQ(m.col(2), (std::vector<double>{3, 6}));
  EXPECT_THROW(Matrix::from_rows({{1}, {2, 3}}), Error);
}

TEST(MatrixTest, Transpose) {
  const Matrix m = {{1, 2, 3}, {4, 5, 6}};
  const Matrix t = m.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
}

TEST(MatrixTest, SelectRows) {
  const Matrix m = {{1, 2}, {3, 4}, {5, 6}};
  const auto s = m.select_rows({2, 0});
  EXPECT_DOUBLE_EQ(s(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(s(1, 1), 2.0);
  EXPECT_THROW(m.select_rows({3}), Error);
}

TEST(MatrixTest, Arithmetic) {
  const Matrix a = {{1, 2}, {3, 4}};
  const Matrix b = {{1, 1}, {1, 1}};
  const Matrix sum = a + b;
  EXPECT_DOUBLE_EQ(sum(1, 1), 5.0);
  const Matrix diff = a - b;
  EXPECT_DOUBLE_EQ(diff(0, 0), 0.0);
  const Matrix scaled = 2.0 * a;
  EXPECT_DOUBLE_EQ(scaled(1, 0), 6.0);
}

TEST(MatrixTest, DimensionMismatchThrows) {
  Matrix a(2, 2);
  const Matrix b(2, 3);
  EXPECT_THROW(a += b, Error);
}

TEST(MatrixTest, AddDiagonalRequiresSquare) {
  Matrix m(2, 3);
  EXPECT_THROW(m.add_diagonal(1.0), Error);
  Matrix sq(2, 2);
  sq.add_diagonal(3.0);
  EXPECT_DOUBLE_EQ(sq(1, 1), 3.0);
  EXPECT_DOUBLE_EQ(sq(0, 1), 0.0);
}

TEST(MatrixTest, FrobeniusNorm) {
  const Matrix m = {{3, 4}};
  EXPECT_DOUBLE_EQ(m.frobenius_norm(), 5.0);
}

TEST(MatrixTest, MaxAbsDiff) {
  const Matrix a = {{1, 2}};
  const Matrix b = {{1.5, 1.0}};
  EXPECT_DOUBLE_EQ(a.max_abs_diff(b), 1.0);
}

// ---------- BLAS ----------

TEST(BlasTest, Dot) {
  const std::vector<double> a = {1, 2, 3};
  const std::vector<double> b = {4, 5, 6};
  EXPECT_DOUBLE_EQ(dot(a, b), 32.0);
}

TEST(BlasTest, DotSizeMismatchThrows) {
  EXPECT_THROW(dot({1.0}, {1.0, 2.0}), Error);
}

TEST(BlasTest, GemvMatchesManual) {
  const Matrix a = {{1, 2}, {3, 4}, {5, 6}};
  const auto y = gemv(a, {1, -1});
  EXPECT_EQ(y, (std::vector<double>{-1, -1, -1}));
}

TEST(BlasTest, GemvTransposedMatchesTranspose) {
  Rng rng(5);
  const Matrix a = random_matrix(7, 4, rng);
  std::vector<double> x(7);
  for (auto& v : x) v = rng.uniform(-1, 1);
  const auto y1 = gemv_transposed(a, x);
  const auto y2 = gemv(a.transposed(), x);
  for (std::size_t i = 0; i < y1.size(); ++i) EXPECT_NEAR(y1[i], y2[i], 1e-12);
}

TEST(BlasTest, SyrkAtAMatchesGemm) {
  Rng rng(6);
  const Matrix a = random_matrix(9, 5, rng);
  const Matrix g1 = syrk_at_a(a);
  const Matrix g2 = naive_gemm(a.transposed(), a);
  EXPECT_LT(g1.max_abs_diff(g2), 1e-10);
}

// ---------- Cholesky ----------

TEST(CholeskyTest, ReconstructsMatrix) {
  Rng rng(8);
  const Matrix a = random_spd(12, rng);
  const Cholesky chol(a);
  const Matrix l = chol.factor();
  EXPECT_LT(naive_gemm(l, l.transposed()).max_abs_diff(a), 1e-9);
}

TEST(CholeskyTest, SolveRecoversSolution) {
  Rng rng(9);
  const Matrix a = random_spd(20, rng);
  std::vector<double> x_true(20);
  for (auto& v : x_true) v = rng.uniform(-2, 2);
  const auto b = gemv(a, x_true);
  const auto x = Cholesky(a).solve(b);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(x[i], x_true[i], 1e-8);
}

TEST(CholeskyTest, MatrixSolveMatchesVectorSolve) {
  Rng rng(10);
  const Matrix a = random_spd(8, rng);
  const Matrix b = random_matrix(8, 3, rng);
  const Cholesky chol(a);
  const Matrix x = chol.solve(b);
  for (std::size_t c = 0; c < 3; ++c) {
    const auto xc = chol.solve(b.col(c));
    for (std::size_t r = 0; r < 8; ++r) EXPECT_NEAR(x(r, c), xc[r], 1e-12);
  }
}

TEST(CholeskyTest, LogDeterminantMatchesKnown) {
  // diag(2, 3, 4): log det = log 24.
  Matrix d(3, 3);
  d(0, 0) = 2;
  d(1, 1) = 3;
  d(2, 2) = 4;
  EXPECT_NEAR(Cholesky(d).log_determinant(), std::log(24.0), 1e-12);
}

TEST(CholeskyTest, InverseTimesMatrixIsIdentity) {
  Rng rng(11);
  const Matrix a = random_spd(10, rng);
  const Matrix inv = Cholesky(a).inverse();
  EXPECT_LT(naive_gemm(a, inv).max_abs_diff(Matrix::identity(10)), 1e-8);
}

TEST(CholeskyTest, NonSquareThrows) {
  EXPECT_THROW(Cholesky{Matrix(2, 3)}, Error);
}

TEST(CholeskyTest, IndefiniteThrows) {
  Matrix m = {{1, 0}, {0, -1}};
  EXPECT_THROW(Cholesky{m}, Error);
}

TEST(CholeskyTest, TriangularSolvesCompose) {
  Rng rng(12);
  const Matrix a = random_spd(6, rng);
  const Cholesky chol(a);
  std::vector<double> b(6);
  for (auto& v : b) v = rng.uniform(-1, 1);
  const auto via_parts = chol.solve_upper(chol.solve_lower(b));
  const auto direct = chol.solve(b);
  for (std::size_t i = 0; i < 6; ++i) EXPECT_NEAR(via_parts[i], direct[i], 1e-12);
}

// The blocked factorization must agree with the oracle's scalar
// left-looking one across sizes spanning the panel boundary (kPanel = 64).
class CholeskyBlockedSizes : public ::testing::TestWithParam<int> {};

TEST_P(CholeskyBlockedSizes, MatchesReference) {
  const int n = GetParam();
  Rng rng(static_cast<std::uint64_t>(100 + n));
  const Matrix a = random_spd(static_cast<std::size_t>(n), rng);
  const Cholesky fast(a);
  const Matrix ref = oracle::cholesky_left_looking(a);
  double scale = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) scale = std::max(scale, a(i, i));
  EXPECT_LT(fast.factor().max_abs_diff(ref), 1e-9 * scale)
      << "blocked factor diverged from reference at n = " << n;
}

INSTANTIATE_TEST_SUITE_P(Sizes, CholeskyBlockedSizes,
                         ::testing::Values(1, 2, 63, 64, 65, 130, 200));

TEST(CholeskyTest, BlockedPreservesPositiveDefiniteMessage) {
  const Matrix m = {{1, 0}, {0, -1}};
  const auto expect_message = [](const auto& factor) {
    try {
      factor();
      FAIL() << "expected indefinite matrix to throw";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("not positive definite"),
                std::string::npos);
    }
  };
  expect_message([&] { return Cholesky(m); });
  expect_message([&] { return oracle::cholesky_left_looking(m); });
}

TEST(CholeskyTest, MultiRhsTriangularSolvesMatchVectorSolves) {
  Rng rng(42);
  const Matrix a = random_spd(150, rng);  // spans a column stripe boundary
  const Matrix b = random_matrix(150, 7, rng);
  const Cholesky chol(a);
  const Matrix lo = chol.solve_lower(b);
  const Matrix up = chol.solve_upper(b);
  for (std::size_t c = 0; c < b.cols(); ++c) {
    const auto lo_c = chol.solve_lower(b.col(c));
    const auto up_c = chol.solve_upper(b.col(c));
    for (std::size_t r = 0; r < b.rows(); ++r) {
      EXPECT_NEAR(lo(r, c), lo_c[r], 1e-12);
      EXPECT_NEAR(up(r, c), up_c[r], 1e-12);
    }
  }
}

TEST(CholeskyTest, ExtendMatchesFullRefactorization) {
  Rng rng(43);
  const std::size_t n = 90, q = 12;
  const Matrix full = random_spd(n + q, rng);
  Matrix a11(n, n), a21(q, n), a22(q, q);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) a11(i, j) = full(i, j);
  for (std::size_t i = 0; i < q; ++i) {
    for (std::size_t j = 0; j < n; ++j) a21(i, j) = full(n + i, j);
    for (std::size_t j = 0; j < q; ++j) a22(i, j) = full(n + i, n + j);
  }
  Cholesky grown(a11);
  grown.extend(a21, a22);
  const Cholesky direct(full);
  EXPECT_EQ(grown.order(), n + q);
  EXPECT_LT(grown.factor().max_abs_diff(direct.factor()), 1e-9);
}

TEST(CholeskyTest, ExtendDimensionMismatchThrows) {
  Rng rng(44);
  Cholesky chol(random_spd(5, rng));
  EXPECT_THROW(chol.extend(Matrix(2, 4), Matrix(2, 2)), Error);
  EXPECT_THROW(chol.extend(Matrix(2, 5), Matrix(3, 3)), Error);
}

TEST(MatrixTest, AppendRows) {
  Matrix m = {{1, 2}, {3, 4}};
  m.append_rows(Matrix{{5, 6}});
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_DOUBLE_EQ(m(2, 1), 6.0);
  Matrix empty;
  empty.append_rows(m);
  EXPECT_EQ(empty.rows(), 3u);
  EXPECT_THROW(m.append_rows(Matrix(1, 3)), Error);
}

// ---------- solve ----------

TEST(SolveTest, RidgeZeroLambdaMatchesLstsq) {
  // At lambda = 0 ridge_solve is least squares: on an inconsistent system
  // (40 random equations, 6 unknowns) the residual is orthogonal to A's
  // columns, A^T (b - A x) = 0.
  Rng rng(15);
  const Matrix a = random_matrix(40, 6, rng);
  std::vector<double> b(40);
  for (auto& v : b) v = rng.uniform(-1, 1);
  const auto x = ridge_solve(a, b, 0.0);
  auto r = gemv(a, x);
  double residual = 0.0;
  for (std::size_t i = 0; i < 40; ++i) {
    r[i] = b[i] - r[i];
    residual += r[i] * r[i];
  }
  ASSERT_GT(residual, 1e-3);  // inconsistent: no exact solution
  for (const double v : gemv_transposed(a, r)) EXPECT_NEAR(v, 0.0, 1e-9);
}

TEST(SolveTest, RidgeShrinksCoefficients) {
  Rng rng(16);
  const Matrix a = random_matrix(40, 6, rng);
  std::vector<double> b(40);
  for (auto& v : b) v = rng.uniform(-1, 1);
  auto norm = [](const std::vector<double>& v) {
    double s = 0;
    for (double x : v) s += x * x;
    return s;
  };
  EXPECT_LT(norm(ridge_solve(a, b, 10.0)), norm(ridge_solve(a, b, 0.01)));
}

TEST(SolveTest, RidgeNegativeLambdaThrows) {
  EXPECT_THROW(ridge_solve(Matrix(2, 2), {1, 2}, -1.0), Error);
}

TEST(SolveTest, JitterRecoversSemidefinite) {
  // Singular PSD matrix: jitter should make it solvable.
  Matrix a = {{1, 1}, {1, 1}};
  const auto x = spd_solve_with_jitter(a, {1.0, 1.0}, 1e-8);
  EXPECT_EQ(x.size(), 2u);
  EXPECT_TRUE(std::isfinite(x[0]));
}

TEST(SolveTest, JitterGivesUpOnNegativeDefinite) {
  Matrix a = {{-5, 0}, {0, -5}};
  EXPECT_THROW(spd_solve_with_jitter(a, {1.0, 1.0}, 1e-12, 3), Error);
}

}  // namespace
}  // namespace ccpred::linalg
