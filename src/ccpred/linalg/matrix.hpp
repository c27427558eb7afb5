#pragma once

/// \file matrix.hpp
/// Dense row-major matrix of doubles — the numeric workhorse for the
/// kernel-based regressors (KRR, GP, SVR), Bayesian ridge and the
/// polynomial/linear solvers. Sized for this library's regime (n up to a
/// few thousand); the hot products route through the kernels in
/// blas.hpp.

#include <cstddef>
#include <initializer_list>
#include <vector>

#include "ccpred/common/error.hpp"

namespace ccpred::linalg {

/// Row-major dense matrix with value semantics.
class Matrix {
 public:
  /// Empty 0x0 matrix.
  Matrix() = default;

  /// rows x cols matrix, zero-initialized (or filled with `fill`).
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Constructs from nested initializer lists (rows of equal width).
  Matrix(std::initializer_list<std::initializer_list<double>> init);

  /// Identity matrix of order n.
  static Matrix identity(std::size_t n);

  /// Builds a matrix from `rows` of equal-width vectors.
  static Matrix from_rows(const std::vector<std::vector<double>>& rows);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  /// Bounds-checked element access; throws on out-of-range.
  double at(std::size_t r, std::size_t c) const;

  /// Raw contiguous storage (row-major).
  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  /// Pointer to the start of row r.
  double* row_ptr(std::size_t r) { return data_.data() + r * cols_; }
  const double* row_ptr(std::size_t r) const {
    return data_.data() + r * cols_;
  }

  /// Copies row r into a vector.
  std::vector<double> row(std::size_t r) const;
  /// Copies column c into a vector.
  std::vector<double> col(std::size_t c) const;

  /// Returns the transpose.
  Matrix transposed() const;

  /// Extracts the sub-matrix of the given rows (in order).
  Matrix select_rows(const std::vector<std::size_t>& indices) const;

  /// Appends the rows of `other` below this matrix (column counts must
  /// match; appending to an empty matrix adopts other's width). Row-major
  /// storage makes this a single contiguous insert — used by the
  /// incremental GP update to grow the training set in place.
  void append_rows(const Matrix& other);

  /// Element-wise operations (dimension-checked).
  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(double scalar);

  friend Matrix operator+(Matrix a, const Matrix& b) { return a += b; }
  friend Matrix operator-(Matrix a, const Matrix& b) { return a -= b; }
  friend Matrix operator*(Matrix a, double s) { return a *= s; }
  friend Matrix operator*(double s, Matrix a) { return a *= s; }

  /// Adds `v` to every diagonal element (requires square).
  void add_diagonal(double v);

  /// Frobenius norm.
  double frobenius_norm() const;

  /// Max |a_ij - b_ij|; requires equal shapes.
  double max_abs_diff(const Matrix& other) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  // Row-major; the SIMD kernels load it unaligned, so any start will do.
  std::vector<double> data_;
};

}  // namespace ccpred::linalg
