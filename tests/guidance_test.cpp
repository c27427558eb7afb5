// Tests for the guidance engine: optimal-configuration extraction,
// true-loss semantics (§3.4), the advisor and table formatting.

#include <gtest/gtest.h>

#include "ccpred/core/gradient_boosting.hpp"
#include "ccpred/core/model_zoo.hpp"
#include "ccpred/guidance/advisor.hpp"
#include "ccpred/guidance/optimal.hpp"
#include "ccpred/guidance/report.hpp"
#include "test_util.hpp"

namespace ccpred::guide {
namespace {

/// Two problems, two configurations each, hand-built so the optima are
/// known: for (10,100) config A (4 nodes, 100 s) vs B (8 nodes, 60 s) —
/// STQ picks B, BQ picks A (0.111 vs 0.133 node-hours).
data::Dataset handmade() {
  data::Dataset d;
  d.add({10, 100, 4, 40}, 100.0);  // row 0: NH = 0.1111
  d.add({10, 100, 8, 40}, 60.0);   // row 1: NH = 0.1333
  d.add({20, 200, 4, 50}, 300.0);  // row 2: NH = 0.3333
  d.add({20, 200, 16, 50}, 100.0); // row 3: NH = 0.4444
  return d;
}

TEST(ObjectiveTest, ValuesComputedCorrectly) {
  const auto d = handmade();
  EXPECT_DOUBLE_EQ(
      objective_value(d, d.targets(), 0, Objective::kShortestTime), 100.0);
  EXPECT_NEAR(objective_value(d, d.targets(), 0, Objective::kNodeHours),
              4.0 * 100.0 / 3600.0, 1e-12);
}

TEST(OptimalTest, StqPicksShortestPerProblem) {
  const auto d = handmade();
  const auto opt = get_optimal_values(d, d.targets(),
                                      Objective::kShortestTime);
  ASSERT_EQ(opt.size(), 2u);
  EXPECT_EQ(opt[0].row, 1u);  // (10,100): 60 s wins
  EXPECT_EQ(opt[1].row, 3u);  // (20,200): 100 s wins
  EXPECT_EQ(opt[0].config.nodes, 8);
}

TEST(OptimalTest, BqPicksCheapestPerProblem) {
  const auto d = handmade();
  const auto opt = get_optimal_values(d, d.targets(), Objective::kNodeHours);
  EXPECT_EQ(opt[0].row, 0u);  // 0.111 < 0.133
  EXPECT_EQ(opt[1].row, 2u);  // 0.333 < 0.444
}

TEST(OptimalTest, PredictionsCanFlipTheChoice) {
  const auto d = handmade();
  // Model thinks row 0 is faster than row 1.
  const std::vector<double> y_pred = {50.0, 60.0, 300.0, 100.0};
  const auto opt = get_optimal_values(d, y_pred, Objective::kShortestTime);
  EXPECT_EQ(opt[0].row, 0u);
}

TEST(TrueLossTest, RealizedValueUsesTrueTargetAtPredictedConfig) {
  const auto d = handmade();
  // The paper's §3.4 caveat: model predicts row 0 takes 50 s (wrongly);
  // the STQ loss must be computed at row 0's TRUE time (100 s), not 50 s.
  const std::vector<double> y_pred = {50.0, 60.0, 300.0, 100.0};
  const auto outcomes = evaluate_optima(d, y_pred, Objective::kShortestTime);
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_FALSE(outcomes[0].config_match);
  EXPECT_DOUBLE_EQ(outcomes[0].true_value, 60.0);
  EXPECT_DOUBLE_EQ(outcomes[0].realized_value, 100.0);  // not 50!
  EXPECT_TRUE(outcomes[1].config_match);
  EXPECT_DOUBLE_EQ(outcomes[1].realized_value, outcomes[1].true_value);
}

TEST(TrueLossTest, RealizedNeverBeatsTrueOptimum) {
  // Whatever the model predicts, the realized objective is >= the true
  // optimum (the optimum is the min over the same rows).
  const auto d = handmade();
  Rng rng(1);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> y_pred(d.size());
    for (auto& v : y_pred) v = rng.uniform(1.0, 500.0);
    for (auto obj : {Objective::kShortestTime, Objective::kNodeHours}) {
      for (const auto& po : evaluate_optima(d, y_pred, obj)) {
        EXPECT_GE(po.realized_value, po.true_value - 1e-12);
      }
    }
  }
}

TEST(TrueLossTest, ComputeLossesPerfectWhenAllMatch) {
  const auto d = handmade();
  const auto outcomes =
      evaluate_optima(d, d.targets(), Objective::kShortestTime);
  const auto losses = compute_losses(outcomes);
  EXPECT_DOUBLE_EQ(losses.mae, 0.0);
  EXPECT_DOUBLE_EQ(losses.mape, 0.0);
  EXPECT_DOUBLE_EQ(losses.r2, 1.0);
}

TEST(OptimalTest, TiesBreakToLowestNodesThenSmallestTile) {
  // Four configs of one problem with IDENTICAL times: the argmin must be
  // deterministic — lowest nodes first, then smallest tile — regardless of
  // row order.
  data::Dataset d;
  d.add({10, 100, 8, 50}, 60.0);   // row 0
  d.add({10, 100, 8, 40}, 60.0);   // row 1: same nodes, smaller tile
  d.add({10, 100, 4, 50}, 60.0);   // row 2: lower nodes
  d.add({10, 100, 4, 40}, 60.0);   // row 3: lower nodes, smaller tile
  const auto stq = get_optimal_values(d, d.targets(),
                                      Objective::kShortestTime);
  ASSERT_EQ(stq.size(), 1u);
  EXPECT_EQ(stq[0].row, 3u);
  EXPECT_EQ(stq[0].config.nodes, 4);
  EXPECT_EQ(stq[0].config.tile, 40);
  // Restrict to the 8-node rows: the tile decides.
  const auto sub = d.select({0, 1});
  const auto sub_opt = get_optimal_values(sub, sub.targets(),
                                          Objective::kShortestTime);
  EXPECT_EQ(sub_opt[0].config.tile, 40);
}

TEST(OptimalTest, SweepReturnsFullSurfaceAndMatchingArgmin) {
  const auto d = handmade();
  for (auto obj : {Objective::kShortestTime, Objective::kNodeHours}) {
    const auto sweeps = sweep_optimal_values(d, d.targets(), obj);
    const auto argmins = get_optimal_values(d, d.targets(), obj);
    ASSERT_EQ(sweeps.size(), argmins.size());
    std::size_t total_rows = 0;
    for (std::size_t i = 0; i < sweeps.size(); ++i) {
      ASSERT_EQ(sweeps[i].rows.size(), sweeps[i].values.size());
      total_rows += sweeps[i].rows.size();
      EXPECT_EQ(sweeps[i].best.row, argmins[i].row);
      EXPECT_DOUBLE_EQ(sweeps[i].best.value, argmins[i].value);
      for (std::size_t j = 0; j < sweeps[i].rows.size(); ++j) {
        EXPECT_DOUBLE_EQ(
            sweeps[i].values[j],
            objective_value(d, d.targets(), sweeps[i].rows[j], obj));
        EXPECT_LE(sweeps[i].best.value, sweeps[i].values[j]);
      }
    }
    EXPECT_EQ(total_rows, d.size());
  }
}

TEST(TrueLossTest, PrecomputedSweepOverloadMatchesDirectEvaluation) {
  const auto d = handmade();
  const std::vector<double> y_pred = {50.0, 60.0, 300.0, 100.0};
  for (auto obj : {Objective::kShortestTime, Objective::kNodeHours}) {
    const auto direct = evaluate_optima(d, y_pred, obj);
    const auto sweeps = sweep_optimal_values(d, d.targets(), obj);
    const auto reused = evaluate_optima(d, y_pred, obj, sweeps);
    ASSERT_EQ(direct.size(), reused.size());
    for (std::size_t i = 0; i < direct.size(); ++i) {
      EXPECT_EQ(direct[i].truth.row, reused[i].truth.row);
      EXPECT_EQ(direct[i].predicted.row, reused[i].predicted.row);
      EXPECT_DOUBLE_EQ(direct[i].realized_value, reused[i].realized_value);
      EXPECT_EQ(direct[i].config_match, reused[i].config_match);
    }
  }
}

TEST(TrueLossTest, SizeMismatchThrows) {
  const auto d = handmade();
  EXPECT_THROW(get_optimal_values(d, {1.0}, Objective::kShortestTime), Error);
  EXPECT_THROW(compute_losses({}), Error);
}

// ---------- advisor ----------

class AdvisorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tt_ = test::small_campaign(500);
    model_ = ml::make_paper_gb();
    model_->set_params({{"n_estimators", 150.0}});
    model_->fit(tt_->train.features(), tt_->train.targets());
  }
  std::optional<data::TrainTest> tt_;
  std::unique_ptr<ml::Regressor> model_;
  sim::CcsdSimulator simulator_{sim::MachineModel::aurora()};
};

TEST_F(AdvisorTest, RequiresFittedModel) {
  const auto unfitted = ml::make_model("DT");
  EXPECT_THROW(Advisor(*unfitted, simulator_), Error);
}

TEST_F(AdvisorTest, RecommendationsAreFeasible) {
  const Advisor advisor(*model_, simulator_);
  for (auto obj : {Objective::kShortestTime, Objective::kNodeHours}) {
    const auto rec = advisor.recommend(134, 951, obj);
    EXPECT_TRUE(simulator_.feasible(rec.config));
    EXPECT_EQ(rec.config.o, 134);
    EXPECT_EQ(rec.config.v, 951);
    EXPECT_GT(rec.predicted_time_s, 0.0);
    EXPECT_FALSE(rec.sweep.empty());
  }
}

TEST_F(AdvisorTest, RecommendationMinimizesOverItsOwnSweep) {
  const Advisor advisor(*model_, simulator_);
  const auto stq = advisor.shortest_time(134, 951);
  for (const auto& pt : stq.sweep) {
    EXPECT_GE(pt.predicted_time_s, stq.predicted_time_s - 1e-9);
  }
  const auto bq = advisor.cheapest_run(134, 951);
  for (const auto& pt : bq.sweep) {
    EXPECT_GE(pt.predicted_node_hours, bq.predicted_node_hours - 1e-9);
  }
}

TEST_F(AdvisorTest, StqUsesMoreNodesThanBq) {
  // Tables 3 vs 5: minimizing time picks many nodes, minimizing budget few.
  const Advisor advisor(*model_, simulator_);
  const auto stq = advisor.shortest_time(134, 951);
  const auto bq = advisor.cheapest_run(134, 951);
  EXPECT_GT(stq.config.nodes, bq.config.nodes);
}

TEST_F(AdvisorTest, InvalidProblemThrows) {
  const Advisor advisor(*model_, simulator_);
  EXPECT_THROW(advisor.shortest_time(0, 100), Error);
}

// The daemon's train-and-cache model at the paper's campaign size (aurora,
// 2,329 rows, seed 2025, 750 GB stages) predicts a negative time for some
// cells of (O=44, V=260), and both its STQ and its BQ argmin land on such a
// cell. A run that takes no time is as corrupt a prediction as a NaN: the
// advisor must refuse the sweep instead of recommending it.
TEST(PaperSizeAdvisorTest, NeverRecommendsARunPredictedToTakeNoTime) {
  const sim::CcsdSimulator simulator{sim::MachineModel::aurora()};
  const data::Dataset campaign = data::paper_dataset(simulator, 2025);
  ASSERT_EQ(campaign.size(), 2329u);
  ml::GradientBoostingRegressor model(750);
  model.fit(campaign.features(), campaign.targets());

  linalg::Matrix cell(1, data::kNumFeatures);
  cell(0, data::kFeatO) = 44;
  cell(0, data::kFeatV) = 260;
  cell(0, data::kFeatNodes) = 600;
  cell(0, data::kFeatTile) = 90;
  ASSERT_LE(model.predict(cell).front(), 0.0)
      << "premise: the model predicts no time for (44, 260, 600 nodes, "
         "tile 90)";

  const Advisor advisor(model, simulator);
  EXPECT_THROW(advisor.recommend(44, 260, Objective::kShortestTime), Error);
  EXPECT_THROW(advisor.recommend(44, 260, Objective::kNodeHours), Error);
}

// ---------- report ----------

TEST(ReportTest, ParenNotation) {
  EXPECT_EQ(paren_cell(110, 90, false), "110(90)");
  EXPECT_EQ(paren_cell(110, 110, true), "110");
  EXPECT_EQ(paren_cell(38.35, 38.78, false, 2), "38.35(38.78)");
  EXPECT_EQ(paren_cell(38.35, 38.35, true, 2), "38.35");
}

TEST(ReportTest, StqTableShape) {
  const auto d = handmade();
  const std::vector<double> y_pred = {50.0, 60.0, 300.0, 100.0};
  const auto outcomes = evaluate_optima(d, y_pred, Objective::kShortestTime);
  const auto table = format_stq_table(outcomes, "t");
  EXPECT_EQ(table.num_rows(), 2u);
  const auto s = table.str();
  EXPECT_NE(s.find("Runtime (s)"), std::string::npos);
  EXPECT_NE(s.find("("), std::string::npos);  // the mismatch row
  EXPECT_EQ(mismatch_count(outcomes), 1u);
}

TEST(ReportTest, BqTableHasNodeHours) {
  const auto d = handmade();
  const auto outcomes =
      evaluate_optima(d, d.targets(), Objective::kNodeHours);
  const auto s = format_bq_table(outcomes, "t").str();
  EXPECT_NE(s.find("Node Hours"), std::string::npos);
  EXPECT_EQ(mismatch_count(outcomes), 0u);
}

}  // namespace
}  // namespace ccpred::guide
