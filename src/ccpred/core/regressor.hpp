#pragma once

/// \file regressor.hpp
/// The common interface of all ccpred regression models — the C++
/// counterpart of the scikit-learn estimator protocol the paper relies on.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ccpred/common/error.hpp"
#include "ccpred/linalg/matrix.hpp"

namespace ccpred::ml {

/// Hyper-parameter assignment. Numeric-valued (integers are stored as
/// doubles and rounded by the consuming model), which keeps grid / random /
/// Bayesian search uniform across models.
using ParamMap = std::map<std::string, double>;

/// Abstract regression model: fit on (X, y), predict on X'.
class Regressor {
 public:
  virtual ~Regressor() = default;

  /// Trains on `x` (n x d) and targets `y` (length n). May be called again
  /// to re-train from scratch.
  virtual void fit(const linalg::Matrix& x, const std::vector<double>& y) = 0;

  /// Predicts targets for each row of `x`. Requires fit() first.
  virtual std::vector<double> predict(const linalg::Matrix& x) const = 0;

  /// Fresh unfitted copy with identical hyper-parameters.
  virtual std::unique_ptr<Regressor> clone() const = 0;

  /// Short model identifier ("GB", "KR", ...).
  virtual const std::string& name() const = 0;

  /// Applies hyper-parameters by key; unknown keys throw ccpred::Error so
  /// search-space typos fail loudly.
  virtual void set_params(const ParamMap& params) = 0;

  /// True after a successful fit().
  virtual bool is_fitted() const = 0;

  /// Convenience: prediction for a single feature row.
  double predict_one(const std::vector<double>& row) const {
    linalg::Matrix x(1, row.size());
    for (std::size_t c = 0; c < row.size(); ++c) x(0, c) = row[c];
    return predict(x).front();
  }
};

/// A regressor that also reports predictive uncertainty — needed by the
/// uncertainty-sampling active-learning strategy (Algorithm 1).
class UncertaintyRegressor : public Regressor {
 public:
  /// Predictive mean and standard deviation for each row of `x`.
  virtual void predict_with_std(const linalg::Matrix& x,
                                std::vector<double>& mean,
                                std::vector<double>& std) const = 0;
};

}  // namespace ccpred::ml
