#include "ccpred/core/cross_validation.hpp"

#include <algorithm>

#include "ccpred/common/error.hpp"
#include "ccpred/exec/parallel_for.hpp"

namespace ccpred::ml {

double scoring_value(const Scores& scores, Scoring scoring) {
  switch (scoring) {
    case Scoring::kR2:
      return scores.r2;
    case Scoring::kNegMae:
      return -scores.mae;
    case Scoring::kNegMape:
      return -scores.mape;
  }
  throw Error("unknown scoring");
}

std::vector<std::vector<std::size_t>> kfold_indices(std::size_t n, int folds,
                                                    Rng& rng) {
  CCPRED_CHECK_MSG(folds >= 2, "need at least 2 folds");
  CCPRED_CHECK_MSG(static_cast<std::size_t>(folds) <= n,
                   "more folds than rows");
  auto perm = rng.permutation(n);
  std::vector<std::vector<std::size_t>> out(static_cast<std::size_t>(folds));
  for (std::size_t i = 0; i < n; ++i) {
    out[i % static_cast<std::size_t>(folds)].push_back(perm[i]);
  }
  for (auto& fold : out) std::sort(fold.begin(), fold.end());
  return out;
}

CvResult cross_validate(const Regressor& prototype, const linalg::Matrix& x,
                        const std::vector<double>& y, int folds, Rng& rng) {
  CCPRED_CHECK_MSG(x.rows() == y.size(), "X/y row mismatch");
  const auto fold_idx = kfold_indices(x.rows(), folds, rng);

  CvResult result;
  result.fold_scores.resize(fold_idx.size());
  exec::parallel_for(0, fold_idx.size(), [&](std::size_t f) {
    const auto& val_rows = fold_idx[f];
    std::vector<bool> in_val(x.rows(), false);
    for (auto i : val_rows) in_val[i] = true;
    std::vector<std::size_t> train_rows;
    train_rows.reserve(x.rows() - val_rows.size());
    for (std::size_t i = 0; i < x.rows(); ++i) {
      if (!in_val[i]) train_rows.push_back(i);
    }

    const linalg::Matrix x_train = x.select_rows(train_rows);
    const linalg::Matrix x_val = x.select_rows(val_rows);
    std::vector<double> y_train(train_rows.size());
    std::vector<double> y_val(val_rows.size());
    for (std::size_t i = 0; i < train_rows.size(); ++i) {
      y_train[i] = y[train_rows[i]];
    }
    for (std::size_t i = 0; i < val_rows.size(); ++i) y_val[i] = y[val_rows[i]];

    auto model = prototype.clone();
    model->fit(x_train, y_train);
    result.fold_scores[f] = score_all(y_val, model->predict(x_val));
  });

  for (const auto& s : result.fold_scores) {
    result.mean.r2 += s.r2;
    result.mean.mae += s.mae;
    result.mean.mape += s.mape;
    result.mean.rmse += s.rmse;
  }
  const auto k = static_cast<double>(result.fold_scores.size());
  result.mean.r2 /= k;
  result.mean.mae /= k;
  result.mean.mape /= k;
  result.mean.rmse /= k;
  return result;
}

}  // namespace ccpred::ml
