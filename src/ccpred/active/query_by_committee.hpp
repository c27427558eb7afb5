#pragma once

/// \file query_by_committee.hpp
/// Query by committee (QC, Algorithm 2): train a committee of models on
/// the labeled data (each on its own bootstrap resample), and query the
/// unlabeled experiments where the committee's predictions disagree the
/// most (largest variance). The paper pairs QC with gradient boosting.

#include <memory>

#include "ccpred/active/strategy.hpp"

namespace ccpred::al {

/// Committee-variance query selection.
class QueryByCommittee : public QueryStrategy {
 public:
  /// `prototype` is cloned per committee member (each gets its own RNG
  /// stream through a bootstrap resample of the labeled rows).
  explicit QueryByCommittee(const ml::Regressor& prototype,
                            int n_committees = 5);

  const std::string& name() const override;
  std::vector<std::size_t> select(const Pool& pool,
                                  const ml::Regressor& fitted_model,
                                  std::size_t query_size, Rng& rng) override;

  int committee_size() const { return n_committees_; }

 private:
  const ml::Regressor& prototype_;
  int n_committees_;
};

}  // namespace ccpred::al
