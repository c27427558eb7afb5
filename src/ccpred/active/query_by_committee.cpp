#include "ccpred/active/query_by_committee.hpp"

#include <algorithm>
#include <numeric>

#include "ccpred/common/error.hpp"
#include "ccpred/exec/parallel_for.hpp"

namespace ccpred::al {

QueryByCommittee::QueryByCommittee(const ml::Regressor& prototype,
                                   int n_committees)
    : prototype_(prototype), n_committees_(n_committees) {
  CCPRED_CHECK_MSG(n_committees >= 2, "a committee needs at least 2 members");
}

const std::string& QueryByCommittee::name() const {
  static const std::string n = "QC";
  return n;
}

std::vector<std::size_t> QueryByCommittee::select(
    const Pool& pool, const ml::Regressor& /*fitted_model*/,
    std::size_t query_size, Rng& rng) {
  const linalg::Matrix x_unlabeled = pool.unlabeled_features();
  const std::size_t n_unlabeled = x_unlabeled.rows();
  if (n_unlabeled == 0) return {};

  const auto labeled = pool.dataset().select(pool.labeled());
  const linalg::Matrix x_labeled = labeled.features();
  const auto y_labeled = labeled.targets();

  // Each member trains on a bootstrap resample of the labeled rows — the
  // disagreement source. Members train in parallel; their RNG streams are
  // pre-derived so the result is scheduling-independent.
  const auto members = static_cast<std::size_t>(n_committees_);
  std::vector<std::uint64_t> seeds(members);
  for (auto& s : seeds) s = rng.next();

  std::vector<std::vector<double>> predictions(members);
  exec::parallel_for(0, members, [&](std::size_t m) {
    Rng member_rng(seeds[m]);
    const auto boot = member_rng.bootstrap_indices(x_labeled.rows());
    const linalg::Matrix xb = x_labeled.select_rows(boot);
    std::vector<double> yb(boot.size());
    for (std::size_t i = 0; i < boot.size(); ++i) yb[i] = y_labeled[boot[i]];
    auto model = prototype_.clone();
    model->fit(xb, yb);
    predictions[m] = model->predict(x_unlabeled);
  });

  // Committee variance per unlabeled point.
  std::vector<double> variance(n_unlabeled, 0.0);
  for (std::size_t i = 0; i < n_unlabeled; ++i) {
    double mean = 0.0;
    for (std::size_t m = 0; m < members; ++m) mean += predictions[m][i];
    mean /= static_cast<double>(members);
    double var = 0.0;
    for (std::size_t m = 0; m < members; ++m) {
      var += (predictions[m][i] - mean) * (predictions[m][i] - mean);
    }
    variance[i] = var / static_cast<double>(members);
  }

  std::vector<std::size_t> order(n_unlabeled);
  std::iota(order.begin(), order.end(), std::size_t{0});
  const std::size_t k = std::min(query_size, n_unlabeled);
  std::partial_sort(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(k),
                    order.end(), [&](std::size_t a, std::size_t b) {
                      return variance[a] > variance[b];
                    });
  order.resize(k);
  return order;
}

}  // namespace ccpred::al
