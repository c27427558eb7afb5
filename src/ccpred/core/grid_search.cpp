#include "ccpred/core/grid_search.hpp"

#include <limits>

#include "ccpred/common/error.hpp"
#include "ccpred/common/stopwatch.hpp"
#include "ccpred/exec/parallel_for.hpp"

namespace ccpred::ml {
namespace detail {

/// Shared by grid/random search: evaluate the candidate list in parallel
/// over the thread pool (inner CV runs serially inside a worker — the
/// nesting guard prevents pool deadlock), pick the best, optionally refit.
/// Each candidate seeds its own fold RNG from options.seed, so trials and
/// the winner are identical to a sequential evaluation, tie-broken toward
/// the earlier candidate.
SearchResult evaluate_candidates(const Regressor& prototype,
                                 const std::vector<ParamMap>& candidates,
                                 const linalg::Matrix& x,
                                 const std::vector<double>& y,
                                 const SearchOptions& options) {
  CCPRED_CHECK_MSG(!candidates.empty(), "no candidates to search");
  Stopwatch watch;
  SearchResult result;
  result.trials.resize(candidates.size());
  exec::parallel_for(0, candidates.size(), [&](std::size_t c) {
    const auto& params = candidates[c];
    auto model = prototype.clone();
    model->set_params(params);
    Rng cv_rng(options.seed);  // same folds for every candidate
    const CvResult cv = cross_validate(*model, x, y, options.cv_folds, cv_rng);
    result.trials[c] =
        SearchTrial{.params = params,
                    .cv_scores = cv.mean,
                    .value = scoring_value(cv.mean, options.scoring)};
  });
  double best = -std::numeric_limits<double>::infinity();
  for (const auto& trial : result.trials) {
    if (trial.value > best) {
      best = trial.value;
      result.best_params = trial.params;
      result.best_cv_scores = trial.cv_scores;
    }
  }
  if (options.refit) {
    result.best_model = prototype.clone();
    result.best_model->set_params(result.best_params);
    result.best_model->fit(x, y);
  }
  result.elapsed_s = watch.elapsed_s();
  return result;
}

}  // namespace detail

SearchResult grid_search(const Regressor& prototype, const ParamGrid& grid,
                         const linalg::Matrix& x, const std::vector<double>& y,
                         const SearchOptions& options) {
  return detail::evaluate_candidates(prototype, expand_grid(grid), x, y,
                                     options);
}

}  // namespace ccpred::ml
