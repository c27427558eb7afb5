// Tests for the active-learning subsystem: pool bookkeeping, the three
// query strategies and the Algorithm 1/2 loop.

#include <gtest/gtest.h>

#include <set>

#include "ccpred/active/loop.hpp"
#include "ccpred/active/pool.hpp"
#include "ccpred/active/expected_model_change.hpp"
#include "ccpred/active/query_by_committee.hpp"
#include "ccpred/active/random_sampling.hpp"
#include "ccpred/active/uncertainty_sampling.hpp"
#include "ccpred/core/bayesian_ridge.hpp"
#include "ccpred/core/decision_tree.hpp"
#include "ccpred/core/gaussian_process.hpp"
#include "ccpred/core/gradient_boosting.hpp"
#include "test_util.hpp"

namespace ccpred::al {
namespace {

data::Dataset small_pool_data(std::size_t n = 120) {
  data::Dataset d;
  Rng rng(1);
  for (std::size_t i = 0; i < n; ++i) {
    const int nodes = static_cast<int>(rng.uniform_int(5, 200));
    const int tile = static_cast<int>(rng.uniform_int(40, 160));
    d.add({100, 800, nodes, tile}, 10.0 + 5000.0 / nodes + 0.1 * tile);
  }
  return d;
}

// ---------- pool ----------

TEST(PoolTest, InitialSplitSizes) {
  const auto d = small_pool_data();
  Rng rng(2);
  const Pool pool(d, 30, rng);
  EXPECT_EQ(pool.labeled().size(), 30u);
  EXPECT_EQ(pool.unlabeled().size(), 90u);
}

TEST(PoolTest, LabeledAndUnlabeledDisjoint) {
  const auto d = small_pool_data();
  Rng rng(3);
  const Pool pool(d, 40, rng);
  std::set<std::size_t> all(pool.labeled().begin(), pool.labeled().end());
  for (auto i : pool.unlabeled()) EXPECT_TRUE(all.insert(i).second);
  EXPECT_EQ(all.size(), d.size());
}

TEST(PoolTest, LabelPositionsMovesRows) {
  const auto d = small_pool_data();
  Rng rng(4);
  Pool pool(d, 10, rng);
  const auto moved_row = pool.unlabeled()[5];
  pool.label_positions({5, 0, 7});
  EXPECT_EQ(pool.labeled().size(), 13u);
  EXPECT_EQ(pool.unlabeled().size(), 107u);
  EXPECT_NE(std::find(pool.labeled().begin(), pool.labeled().end(),
                      moved_row),
            pool.labeled().end());
}

TEST(PoolTest, InvalidPositionsThrow) {
  const auto d = small_pool_data();
  Rng rng(5);
  Pool pool(d, 10, rng);
  EXPECT_THROW(pool.label_positions({3, 3}), Error);
  EXPECT_THROW(pool.label_positions({1000}), Error);
  EXPECT_THROW(Pool(d, 0, rng), Error);
  EXPECT_THROW(Pool(d, d.size() + 1, rng), Error);
}

TEST(PoolTest, MaterializedViewsMatchIndices) {
  const auto d = small_pool_data();
  Rng rng(6);
  const Pool pool(d, 25, rng);
  const auto x = pool.labeled_features();
  const auto y = pool.labeled_targets();
  ASSERT_EQ(x.rows(), 25u);
  ASSERT_EQ(y.size(), 25u);
  for (std::size_t i = 0; i < 25; ++i) {
    EXPECT_DOUBLE_EQ(y[i], d.target(pool.labeled()[i]));
    EXPECT_DOUBLE_EQ(x(i, data::kFeatNodes),
                     d.config(pool.labeled()[i]).nodes);
  }
}

// ---------- strategies ----------

TEST(RandomSamplingTest, UniquePositionsInRange) {
  const auto d = small_pool_data();
  Rng rng(7);
  Pool pool(d, 20, rng);
  ml::DecisionTreeRegressor model;
  model.fit(pool.labeled_features(), pool.labeled_targets());
  RandomSampling rs;
  const auto sel = rs.select(pool, model, 15, rng);
  EXPECT_EQ(sel.size(), 15u);
  std::set<std::size_t> uniq(sel.begin(), sel.end());
  EXPECT_EQ(uniq.size(), 15u);
  for (auto p : sel) EXPECT_LT(p, pool.unlabeled().size());
}

TEST(RandomSamplingTest, ClampsToPoolSize) {
  const auto d = small_pool_data(30);
  Rng rng(8);
  Pool pool(d, 25, rng);
  ml::DecisionTreeRegressor model;
  model.fit(pool.labeled_features(), pool.labeled_targets());
  RandomSampling rs;
  EXPECT_EQ(rs.select(pool, model, 50, rng).size(), 5u);
}

TEST(UncertaintySamplingTest, RequiresUncertaintyModel) {
  const auto d = small_pool_data();
  Rng rng(9);
  Pool pool(d, 20, rng);
  ml::GradientBoostingRegressor gb(20);
  gb.fit(pool.labeled_features(), pool.labeled_targets());
  UncertaintySampling us;
  EXPECT_THROW(us.select(pool, gb, 5, rng), Error);
}

TEST(UncertaintySamplingTest, PicksHighestStdPositions) {
  const auto d = small_pool_data();
  Rng rng(10);
  Pool pool(d, 30, rng);
  ml::GaussianProcessRegression gp(0.5, 1e-4, false);
  gp.fit(pool.labeled_features(), pool.labeled_targets());
  UncertaintySampling us;
  const auto sel = us.select(pool, gp, 10, rng);
  ASSERT_EQ(sel.size(), 10u);
  // Verify the selected positions really have the largest stds.
  std::vector<double> mean;
  std::vector<double> std;
  gp.predict_with_std(pool.unlabeled_features(), mean, std);
  std::set<std::size_t> chosen(sel.begin(), sel.end());
  double min_chosen = 1e300;
  for (auto p : sel) min_chosen = std::min(min_chosen, std[p]);
  for (std::size_t p = 0; p < std.size(); ++p) {
    if (!chosen.count(p)) {
      EXPECT_LE(std[p], min_chosen + 1e-12);
    }
  }
}

TEST(QueryByCommitteeTest, SelectsUniquePositions) {
  const auto d = small_pool_data();
  Rng rng(11);
  Pool pool(d, 30, rng);
  const ml::GradientBoostingRegressor proto(30, 0.1,
                                            ml::TreeOptions{.max_depth = 4});
  ml::GradientBoostingRegressor fitted = proto;
  fitted.fit(pool.labeled_features(), pool.labeled_targets());
  QueryByCommittee qc(proto, 4);
  const auto sel = qc.select(pool, fitted, 12, rng);
  EXPECT_EQ(sel.size(), 12u);
  std::set<std::size_t> uniq(sel.begin(), sel.end());
  EXPECT_EQ(uniq.size(), 12u);
  EXPECT_EQ(qc.committee_size(), 4);
}

TEST(QueryByCommitteeTest, NeedsAtLeastTwoMembers) {
  const ml::DecisionTreeRegressor proto;
  EXPECT_THROW(QueryByCommittee(proto, 1), Error);
}

TEST(StrategyNamesMatchPaper, Abbreviations) {
  const ml::DecisionTreeRegressor proto;
  EXPECT_EQ(RandomSampling().name(), "RS");
  EXPECT_EQ(UncertaintySampling().name(), "US");
  EXPECT_EQ(QueryByCommittee(proto, 3).name(), "QC");
  EXPECT_EQ(ExpectedModelChange().name(), "EMC");
}

TEST(ExpectedModelChangeTest, RequiresUncertaintyModel) {
  const auto d = small_pool_data();
  Rng rng(21);
  Pool pool(d, 20, rng);
  ml::GradientBoostingRegressor gb(20);
  gb.fit(pool.labeled_features(), pool.labeled_targets());
  ExpectedModelChange emc;
  EXPECT_THROW(emc.select(pool, gb, 5, rng), Error);
}

TEST(ExpectedModelChangeTest, SelectsUniquePositionsInRange) {
  const auto d = small_pool_data();
  Rng rng(22);
  Pool pool(d, 30, rng);
  ml::GaussianProcessRegression gp(0.5, 1e-4, false);
  gp.fit(pool.labeled_features(), pool.labeled_targets());
  ExpectedModelChange emc;
  const auto sel = emc.select(pool, gp, 10, rng);
  ASSERT_EQ(sel.size(), 10u);
  std::set<std::size_t> uniq(sel.begin(), sel.end());
  EXPECT_EQ(uniq.size(), 10u);
  for (auto p : sel) EXPECT_LT(p, pool.unlabeled().size());
}

TEST(ExpectedModelChangeTest, PrefersHighLeverageOverPlainUncertainty) {
  // Two unlabeled points with equal predictive std: EMC must rank the one
  // farther from the labeled centroid first. Build a labeled cloud around
  // the origin and two symmetric-but-different-radius probes.
  data::Dataset d;
  Rng noise(23);
  for (int i = 0; i < 60; ++i) {
    d.add({100, 800, 100 + (i % 5), 100}, 50.0 + noise.uniform(-1.0, 1.0));
  }
  d.add({100, 800, 104, 100}, 50.0);   // near centroid
  d.add({100, 800, 400, 100}, 50.0);   // far from centroid (high leverage)
  Rng rng(24);
  Pool pool(d, 1, rng);
  // Label every cloud row so only the two probes can remain unlabeled.
  std::vector<std::size_t> cloud_positions;
  for (std::size_t i = 0; i < pool.unlabeled().size(); ++i) {
    if (pool.unlabeled()[i] < 60) cloud_positions.push_back(i);
  }
  pool.label_positions(cloud_positions);
  // (If the single random initial label hit a probe, skip the assertion.)
  if (pool.unlabeled().size() == 2) {
    ml::BayesianRidgeRegression br;
    br.fit(pool.labeled_features(), pool.labeled_targets());
    ExpectedModelChange emc;
    const auto sel = emc.select(pool, br, 1, rng);
    ASSERT_EQ(sel.size(), 1u);
    EXPECT_EQ(d.config(pool.unlabeled()[sel[0]]).nodes, 400);
  }
}

TEST(ExpectedModelChangeTest, WorksInsideTheLoop) {
  const auto d = small_pool_data(200);
  Rng rng(25);
  data::Dataset test;
  for (int i = 0; i < 30; ++i) {
    test.add({100, 800, 10 + 5 * i, 100}, 10.0 + 5000.0 / (10 + 5 * i));
  }
  ExpectedModelChange emc;
  const ml::GaussianProcessRegression gp(0.5, 1e-4, false);
  ActiveLearningOptions opt;
  opt.n_initial = 20;
  opt.query_size = 20;
  opt.n_queries = 4;
  const auto result = run_active_learning(d, test, gp, emc, opt);
  EXPECT_EQ(result.rounds.size(), 4u);
  EXPECT_EQ(result.strategy, "EMC");
}

// ---------- loop ----------

class LoopTest : public ::testing::Test {
 protected:
  void SetUp() override { tt_ = test::small_campaign(400); }
  std::optional<data::TrainTest> tt_;
};

TEST_F(LoopTest, RecordsOneRoundPerQuery) {
  RandomSampling rs;
  const ml::DecisionTreeRegressor proto(ml::TreeOptions{.max_depth = 8});
  ActiveLearningOptions opt;
  opt.n_initial = 30;
  opt.query_size = 30;
  opt.n_queries = 5;
  const auto result =
      run_active_learning(tt_->train, tt_->test, proto, rs, opt);
  ASSERT_EQ(result.rounds.size(), 5u);
  for (std::size_t r = 0; r < result.rounds.size(); ++r) {
    EXPECT_EQ(result.rounds[r].labeled_count, 30 + 30 * r);
    EXPECT_FALSE(result.rounds[r].goal_losses.has_value());
  }
  EXPECT_EQ(result.strategy, "RS");
  EXPECT_EQ(result.model, "DT");
}

TEST_F(LoopTest, GoalRoundsCarryLosses) {
  RandomSampling rs;
  const ml::DecisionTreeRegressor proto(ml::TreeOptions{.max_depth = 8});
  ActiveLearningOptions opt;
  opt.n_initial = 40;
  opt.query_size = 40;
  opt.n_queries = 3;
  opt.goal = guide::Objective::kShortestTime;
  const auto result =
      run_active_learning(tt_->train, tt_->test, proto, rs, opt);
  for (const auto& round : result.rounds) {
    ASSERT_TRUE(round.goal_losses.has_value());
    EXPECT_GE(round.goal_losses->mape, 0.0);
  }
}

TEST_F(LoopTest, DeterministicGivenSeed) {
  RandomSampling rs;
  const ml::DecisionTreeRegressor proto(ml::TreeOptions{.max_depth = 6});
  ActiveLearningOptions opt;
  opt.n_initial = 30;
  opt.query_size = 20;
  opt.n_queries = 4;
  const auto a = run_active_learning(tt_->train, tt_->test, proto, rs, opt);
  const auto b = run_active_learning(tt_->train, tt_->test, proto, rs, opt);
  for (std::size_t r = 0; r < a.rounds.size(); ++r) {
    EXPECT_DOUBLE_EQ(a.rounds[r].train_scores.r2, b.rounds[r].train_scores.r2);
  }
}

TEST_F(LoopTest, StopsWhenPoolExhausted) {
  RandomSampling rs;
  const ml::DecisionTreeRegressor proto(ml::TreeOptions{.max_depth = 4});
  ActiveLearningOptions opt;
  opt.n_initial = 250;
  opt.query_size = 100;
  opt.n_queries = 50;  // would need 5000 rows; pool has ~300
  const auto result =
      run_active_learning(tt_->train, tt_->test, proto, rs, opt);
  EXPECT_LT(result.rounds.size(), 50u);
  EXPECT_LE(result.rounds.back().labeled_count, tt_->train.size());
}

TEST_F(LoopTest, LearningImprovesTrainFit) {
  RandomSampling rs;
  const ml::GradientBoostingRegressor proto(
      80, 0.1, ml::TreeOptions{.max_depth = 6});
  ActiveLearningOptions opt;
  opt.n_initial = 30;
  opt.query_size = 60;
  opt.n_queries = 4;
  const auto result =
      run_active_learning(tt_->train, tt_->test, proto, rs, opt);
  EXPECT_GT(result.rounds.back().train_scores.r2,
            result.rounds.front().train_scores.r2);
}

TEST_F(LoopTest, InvalidOptionsThrow) {
  RandomSampling rs;
  const ml::DecisionTreeRegressor proto;
  ActiveLearningOptions opt;
  opt.n_queries = 0;
  EXPECT_THROW(run_active_learning(tt_->train, tt_->test, proto, rs, opt),
               Error);
  ActiveLearningOptions goal_opt;
  goal_opt.goal = guide::Objective::kNodeHours;
  EXPECT_THROW(
      run_active_learning(tt_->train, data::Dataset(), proto, rs, goal_opt),
      Error);
}

}  // namespace
}  // namespace ccpred::al
