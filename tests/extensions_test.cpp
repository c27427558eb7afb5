// Tests for the library extensions beyond the paper's core pipeline:
// the perturbative-triples workload, feature importances (impurity and
// permutation), the Pareto frontier and the budget-constrained advisor.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "ccpred/core/gradient_boosting.hpp"
#include "ccpred/core/importance.hpp"
#include "ccpred/core/metrics.hpp"
#include "ccpred/core/model_zoo.hpp"
#include "ccpred/core/random_forest.hpp"
#include "ccpred/core/serialize.hpp"
#include "ccpred/data/generator.hpp"
#include "ccpred/guidance/advisor.hpp"
#include "ccpred/sim/contraction.hpp"
#include "ccpred/sim/solver.hpp"
#include "test_util.hpp"

namespace ccpred {
namespace {

// ---------- triples workload ----------

TEST(TriplesTest, SepticScaling) {
  // (T) flops ~ O^3 V^4: doubling V multiplies by ~16, doubling O by ~8-16.
  const double f = sim::triples_flops(100, 800);
  EXPECT_GT(sim::triples_flops(100, 1600) / f, 12.0);
  EXPECT_GT(sim::triples_flops(200, 800) / f, 7.5);
}

TEST(TriplesTest, MoreExpensiveThanCcsdIteration) {
  // The (T) correction dominates a CCSD iteration for realistic O/V.
  EXPECT_GT(sim::triples_flops(134, 951), sim::ccsd_iteration_flops(134, 951));
}

TEST(TriplesTest, SimulatorRunsWithTriplesInventory) {
  const sim::CcsdSimulator ccsd(sim::MachineModel::aurora());
  const sim::CcsdSimulator pt(sim::MachineModel::aurora(),
                              sim::triples_contractions());
  EXPECT_EQ(pt.inventory().size(), 3u);
  const sim::RunConfig cfg{85, 698, 110, 90};
  const double t_ccsd = ccsd.iteration_time(cfg);
  const double t_pt = pt.iteration_time(cfg);
  EXPECT_GT(t_pt, t_ccsd);
  EXPECT_TRUE(std::isfinite(t_pt));
}

TEST(TriplesTest, CampaignAndModelWorkOnTriples) {
  // The whole pipeline is workload-agnostic: generate a (T) campaign and
  // check GB still learns the surface.
  const sim::CcsdSimulator pt(sim::MachineModel::aurora(),
                              sim::triples_contractions());
  data::GeneratorOptions opt;
  opt.seed = 4;
  opt.target_total = 400;
  const std::vector<data::Problem> problems = {
      {44, 260}, {85, 698}, {116, 575}, {134, 951}};
  const auto ds = data::generate_dataset(pt, problems, opt);
  EXPECT_EQ(ds.size(), 400u);
  Rng rng(5);
  auto split = data::stratified_split_fraction(ds, 0.25, rng);
  data::ensure_config_coverage(ds, split);
  const auto tt = data::apply_split(ds, split);
  ml::GradientBoostingRegressor gb(200, 0.1, ml::TreeOptions{.max_depth = 8});
  gb.fit(tt.train.features(), tt.train.targets());
  const auto scores =
      ml::score_all(tt.test.targets(), gb.predict(tt.test.features()));
  EXPECT_GT(scores.r2, 0.85);
}

// ---------- job-level solver ----------

TEST(SolverTest, IterationCountFromDecay) {
  sim::ConvergenceModel c;
  c.initial_residual = 1.0;
  c.decay = 0.1;
  c.tolerance = 2e-7;  // off the exact-power boundary (float-safe)
  EXPECT_EQ(c.iterations_to_converge(), 7);   // 10^-7 overshoots 2e-7
  c.decay = 0.5;
  EXPECT_EQ(c.iterations_to_converge(), 23);  // ceil(log(2e-7)/log(0.5))
  c.max_iterations = 10;
  EXPECT_EQ(c.iterations_to_converge(), 10);  // capped
}

TEST(SolverTest, InvalidConvergenceThrows) {
  sim::ConvergenceModel c;
  c.decay = 1.0;
  EXPECT_THROW(c.iterations_to_converge(), Error);
  c.decay = 0.3;
  c.tolerance = 2.0;  // above initial residual
  EXPECT_THROW(c.iterations_to_converge(), Error);
}

TEST(SolverTest, JobEstimateComposes) {
  const sim::CcsdSimulator simulator(sim::MachineModel::aurora());
  const sim::RunConfig cfg{134, 951, 110, 90};
  const auto job = sim::estimate_job(simulator, cfg);
  EXPECT_GT(job.iterations, 1);
  EXPECT_GT(job.setup_s, 0.0);
  EXPECT_NEAR(job.total_s, job.setup_s + job.iterations * job.iteration_s,
              1e-9);
  EXPECT_NEAR(job.node_hours,
              sim::CcsdSimulator::node_hours(cfg, job.total_s), 1e-12);
  EXPECT_NEAR(job.iteration_s, simulator.iteration_time(cfg), 1e-12);
}

TEST(SolverTest, SetupShrinksWithNodes) {
  const sim::CcsdSimulator simulator(sim::MachineModel::aurora());
  EXPECT_GT(sim::setup_time_s(simulator, {134, 951, 10, 90}),
            sim::setup_time_s(simulator, {134, 951, 200, 90}));
  EXPECT_THROW(sim::setup_time_s(simulator, {134, 951, 0, 90}), Error);
}

TEST(SolverTest, TighterToleranceMeansMoreIterations) {
  sim::ConvergenceModel loose;
  loose.tolerance = 1e-5;
  sim::ConvergenceModel tight;
  tight.tolerance = 1e-9;
  EXPECT_LT(loose.iterations_to_converge(), tight.iterations_to_converge());
}

// ---------- impurity importances ----------

TEST(ImportanceTest, SingleTreePinpointsTheOnlyUsefulFeature) {
  Rng rng(6);
  linalg::Matrix x(300, 3);
  std::vector<double> y(300);
  for (std::size_t i = 0; i < 300; ++i) {
    for (std::size_t c = 0; c < 3; ++c) x(i, c) = rng.uniform(-1, 1);
    y[i] = 5.0 * x(i, 1);  // only feature 1 matters
  }
  ml::DecisionTreeRegressor tree(ml::TreeOptions{.max_depth = 6});
  tree.fit(x, y);
  const auto imp = tree.feature_importances();
  ASSERT_EQ(imp.size(), 3u);
  EXPECT_GT(imp[1], 0.95);
  EXPECT_NEAR(std::accumulate(imp.begin(), imp.end(), 0.0), 1.0, 1e-9);
}

TEST(ImportanceTest, SingleLeafTreeHasZeroImportances) {
  linalg::Matrix x(10, 2, 1.0);
  const std::vector<double> y(10, 3.0);
  ml::DecisionTreeRegressor tree;
  tree.fit(x, y);
  for (double v : tree.feature_importances()) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(ImportanceTest, EnsemblesNormalizeAndAgree) {
  const auto s = test::make_linear(300, 0.05, 7);  // 3x0 - 2x1 + 0.5x2
  ml::RandomForestRegressor forest(40, ml::TreeOptions{.max_depth = 8});
  forest.fit(s.x, s.y);
  const auto fi = forest.feature_importances();
  EXPECT_NEAR(std::accumulate(fi.begin(), fi.end(), 0.0), 1.0, 1e-9);
  // The largest-coefficient feature dominates.
  EXPECT_GT(fi[0], fi[2]);

  ml::GradientBoostingRegressor gb(60, 0.1, ml::TreeOptions{.max_depth = 4});
  gb.fit(s.x, s.y);
  const auto gi = gb.feature_importances();
  EXPECT_NEAR(std::accumulate(gi.begin(), gi.end(), 0.0), 1.0, 1e-9);
  EXPECT_GT(gi[0], gi[2]);
}

TEST(ImportanceTest, ThrowsBeforeFit) {
  ml::DecisionTreeRegressor tree;
  EXPECT_THROW(tree.feature_importances(), Error);
  ml::GradientBoostingRegressor gb(10);
  EXPECT_THROW(gb.feature_importances(), Error);
}

// ---------- permutation importance ----------

TEST(PermutationImportanceTest, RanksRelevantFeatureHighest) {
  Rng rng(8);
  linalg::Matrix x(400, 3);
  std::vector<double> y(400);
  for (std::size_t i = 0; i < 400; ++i) {
    for (std::size_t c = 0; c < 3; ++c) x(i, c) = rng.uniform(-1, 1);
    y[i] = 4.0 * x(i, 2) + 0.2 * x(i, 0);
  }
  ml::GradientBoostingRegressor gb(80, 0.1, ml::TreeOptions{.max_depth = 4});
  gb.fit(x, y);
  const auto imp = ml::permutation_importance(gb, x, y);
  ASSERT_EQ(imp.size(), 3u);
  EXPECT_GT(imp[2], imp[0]);
  EXPECT_GT(imp[2], imp[1]);
  EXPECT_GT(imp[2], 0.5);          // shuffling the key feature is fatal
  EXPECT_LT(std::abs(imp[1]), 0.1);  // irrelevant feature ~ no effect
}

TEST(PermutationImportanceTest, OnRuntimeSurfaceNodesMatter) {
  // On the CCSD surface the node count must carry real importance — it is
  // the dominant knob of wall time at fixed problem size.
  const auto tt = test::small_campaign(500, 9);
  ml::GradientBoostingRegressor gb(150, 0.1, ml::TreeOptions{.max_depth = 8});
  gb.fit(tt.train.features(), tt.train.targets());
  const auto imp = ml::permutation_importance(gb, tt.test.features(),
                                              tt.test.targets());
  EXPECT_GT(imp[data::kFeatNodes], 0.05);
}

TEST(PermutationImportanceTest, UsageErrors) {
  ml::DecisionTreeRegressor tree;
  linalg::Matrix x(5, 2, 1.0);
  const std::vector<double> y(5, 1.0);
  EXPECT_THROW(ml::permutation_importance(tree, x, y), Error);
  tree.fit(x, y);
  EXPECT_THROW(ml::permutation_importance(tree, x, std::vector<double>(4)),
               Error);
}

// ---------- serialization ----------

TEST(SerializeTest, TreeRoundTripPredictsIdentically) {
  const auto s = test::make_nonlinear(200, 0.05, 31);
  ml::DecisionTreeRegressor tree(ml::TreeOptions{.max_depth = 8});
  tree.fit(s.x, s.y);
  const auto restored = ml::deserialize_tree(ml::serialize_tree(tree));
  const auto p1 = tree.predict(s.x);
  const auto p2 = restored.predict(s.x);
  for (std::size_t i = 0; i < p1.size(); ++i) EXPECT_DOUBLE_EQ(p1[i], p2[i]);
  // Importances survive the round trip.
  const auto i1 = tree.feature_importances();
  const auto i2 = restored.feature_importances();
  ASSERT_EQ(i1.size(), i2.size());
  for (std::size_t c = 0; c < i1.size(); ++c) EXPECT_DOUBLE_EQ(i1[c], i2[c]);
}

TEST(SerializeTest, GbRoundTripPredictsIdentically) {
  const auto tt = test::small_campaign(400, 32);
  ml::GradientBoostingRegressor gb(120, 0.1, ml::TreeOptions{.max_depth = 6});
  gb.fit(tt.train.features(), tt.train.targets());
  const auto restored = ml::deserialize_gb(ml::serialize_gb(gb));
  EXPECT_EQ(restored.stage_count(), gb.stage_count());
  EXPECT_DOUBLE_EQ(restored.base_prediction(), gb.base_prediction());
  const auto p1 = gb.predict(tt.test.features());
  const auto p2 = restored.predict(tt.test.features());
  for (std::size_t i = 0; i < p1.size(); ++i) EXPECT_DOUBLE_EQ(p1[i], p2[i]);
}

TEST(SerializeTest, FileRoundTrip) {
  const auto s = test::make_linear(100, 0.0, 33);
  ml::GradientBoostingRegressor gb(30, 0.2, ml::TreeOptions{.max_depth = 4});
  gb.fit(s.x, s.y);
  const std::string path = ::testing::TempDir() + "/ccpred_model.txt";
  ml::save_gb(gb, path);
  const auto restored = ml::load_gb(path);
  EXPECT_DOUBLE_EQ(restored.predict_one(s.x.row(0)), gb.predict_one(s.x.row(0)));
  std::remove(path.c_str());
}

TEST(SerializeTest, MalformedInputThrows) {
  EXPECT_THROW(ml::deserialize_gb("not a model"), Error);
  EXPECT_THROW(ml::deserialize_tree("ccpred-gb-v1\n1 0.1 0"), Error);
  EXPECT_THROW(ml::deserialize_gb("ccpred-gb-v1\n3 0.1"), Error);  // truncated
  EXPECT_THROW(ml::deserialize_tree("ccpred-tree-v1\n2 0\n0 1.0 2.0 5 1\n"
                                    "-1 0 3.0 -1 -1\n"),
               Error);  // child index out of range
  EXPECT_THROW(ml::load_gb("/nonexistent/model.txt"), Error);

  // One-stage GB artifacts (the daemon's format) over 4 features whose
  // nodes do not form a pre-order tree: loading one must throw, not loop
  // in the tree compiler or serve reads past the row.
  const std::string stage = "ccpred-gb-v1\n1 0.1 5\n";
  const std::string importance = "0 0 0 0\n";
  const std::pair<const char*, std::string> bad_trees[] = {
      {"self-loop", "3 4\n0 0.5 1 0 2\n-1 0 2 -1 -1\n-1 0 3 -1 -1\n"},
      {"child points back at its parent",
       "3 4\n0 0.5 1 1 2\n1 0.5 2 0 2\n-1 0 3 -1 -1\n"},
      {"two parents share one child",
       "5 4\n0 0.5 1 1 2\n1 0.5 2 3 4\n1 1.5 3 3 4\n-1 0 4 -1 -1\n"
       "-1 0 5 -1 -1\n"},
      {"split feature past the importance width",
       "3 4\n4 0.5 1 1 2\n-1 0 2 -1 -1\n-1 0 3 -1 -1\n"},
      // A node no parent points to would be compiled past the tree's
      // exact node allocation.
      {"orphan leaf", "4 4\n0 0.5 1 1 2\n-1 0 2 -1 -1\n-1 0 3 -1 -1\n"
                      "-1 0 4 -1 -1\n"},
      {"orphan subtree",
       "6 4\n0 0.5 1 1 2\n-1 0 2 -1 -1\n-1 0 3 -1 -1\n1 0.5 4 4 5\n"
       "-1 0 5 -1 -1\n-1 0 6 -1 -1\n"},
  };
  for (const auto& [what, tree] : bad_trees) {
    EXPECT_THROW(ml::deserialize_gb(stage + tree + importance), Error) << what;
  }

  // A well-formed model over 10 features that splits on feature 9 loads,
  // but a batch with 4 columns cannot cover the split and must throw.
  const auto wide = ml::deserialize_gb(
      stage + "3 10\n9 0.5 1 1 2\n-1 0 2 -1 -1\n-1 0 3 -1 -1\n" +
      "0 0 0 0 0 0 0 0 0 0\n");
  EXPECT_THROW(wide.predict(linalg::Matrix(3, 4)), Error);
  EXPECT_EQ(wide.predict(linalg::Matrix(3, 10)),
            std::vector<double>(3, 5.0 + 0.1 * 2.0));
}

TEST(SerializeTest, UnfittedModelRejected) {
  ml::DecisionTreeRegressor tree;
  EXPECT_THROW(ml::serialize_tree(tree), Error);
  ml::GradientBoostingRegressor gb(10);
  EXPECT_THROW(ml::serialize_gb(gb), Error);
}

// ---------- Pareto front ----------

guide::SweepPoint make_point(double t, double nh) {
  guide::SweepPoint p;
  p.predicted_time_s = t;
  p.predicted_node_hours = nh;
  return p;
}

TEST(ParetoTest, FiltersDominatedPoints) {
  const std::vector<guide::SweepPoint> sweep = {
      make_point(10, 5), make_point(20, 3), make_point(15, 6),  // dominated
      make_point(30, 1), make_point(25, 4),                     // dominated
  };
  const auto front = guide::pareto_front(sweep);
  ASSERT_EQ(front.size(), 3u);
  EXPECT_DOUBLE_EQ(front[0].predicted_time_s, 10.0);
  EXPECT_DOUBLE_EQ(front[1].predicted_time_s, 20.0);
  EXPECT_DOUBLE_EQ(front[2].predicted_time_s, 30.0);
}

TEST(ParetoTest, FrontIsMonotone) {
  Rng rng(10);
  std::vector<guide::SweepPoint> sweep;
  for (int i = 0; i < 200; ++i) {
    sweep.push_back(make_point(rng.uniform(1, 100), rng.uniform(1, 100)));
  }
  const auto front = guide::pareto_front(sweep);
  ASSERT_FALSE(front.empty());
  for (std::size_t i = 1; i < front.size(); ++i) {
    EXPECT_GT(front[i].predicted_time_s, front[i - 1].predicted_time_s);
    EXPECT_LT(front[i].predicted_node_hours,
              front[i - 1].predicted_node_hours);
  }
}

TEST(ParetoTest, EmptyAndSingleton) {
  EXPECT_TRUE(guide::pareto_front({}).empty());
  const auto front = guide::pareto_front({make_point(5, 5)});
  EXPECT_EQ(front.size(), 1u);
}

// ---------- budget-constrained advisor ----------

class BudgetAdvisorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tt_ = test::small_campaign(500, 11);
    model_ = ml::make_paper_gb();
    model_->set_params({{"n_estimators", 150.0}});
    model_->fit(tt_->train.features(), tt_->train.targets());
  }
  std::optional<data::TrainTest> tt_;
  std::unique_ptr<ml::Regressor> model_;
  sim::CcsdSimulator simulator_{sim::MachineModel::aurora()};
};

TEST_F(BudgetAdvisorTest, RespectsBudget) {
  const guide::Advisor advisor(*model_, simulator_);
  const auto bq = advisor.cheapest_run(134, 951);
  const double budget = 2.0 * bq.predicted_node_hours;
  const auto rec = advisor.fastest_within_budget(134, 951, budget);
  EXPECT_LE(rec.predicted_node_hours, budget + 1e-9);
  // With twice the minimum budget there is room to go faster than BQ.
  EXPECT_LE(rec.predicted_time_s, bq.predicted_time_s + 1e-9);
}

TEST_F(BudgetAdvisorTest, LargeBudgetRecoversStq) {
  const guide::Advisor advisor(*model_, simulator_);
  const auto stq = advisor.shortest_time(134, 951);
  const auto rec = advisor.fastest_within_budget(134, 951, 1e9);
  EXPECT_DOUBLE_EQ(rec.predicted_time_s, stq.predicted_time_s);
}

TEST_F(BudgetAdvisorTest, ImpossibleBudgetThrows) {
  const guide::Advisor advisor(*model_, simulator_);
  EXPECT_THROW(advisor.fastest_within_budget(134, 951, 1e-9), Error);
  EXPECT_THROW(advisor.fastest_within_budget(134, 951, -1.0), Error);
}

// A NaN/Inf prediction must fail loudly instead of silently winning or
// losing the argmin (regression tests for the advisor's sweep validation).
TEST(SweepValidationTest, FromSweepRejectsNaNPredictedTime) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(guide::Advisor::from_sweep({make_point(10, 5), make_point(nan, 3)},
                                          guide::Objective::kShortestTime),
               Error);
}

TEST(SweepValidationTest, FromSweepRejectsInfiniteNodeHours) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(guide::Advisor::from_sweep({make_point(10, inf)},
                                          guide::Objective::kNodeHours),
               Error);
}

TEST(SweepValidationTest, FromSweepAcceptsFiniteSweep) {
  const auto rec = guide::Advisor::from_sweep(
      {make_point(10, 5), make_point(20, 3)}, guide::Objective::kNodeHours);
  EXPECT_DOUBLE_EQ(rec.predicted_node_hours, 3.0);
}

TEST(SweepValidationTest, FastestWithinBudgetRejectsNonFiniteSweep) {
  guide::Recommendation base;
  base.sweep = {make_point(10, 5),
                make_point(std::numeric_limits<double>::quiet_NaN(), 2)};
  EXPECT_THROW(guide::Advisor::fastest_within_budget(base, 100.0), Error);
}

// A run predicted to take no time, or to cost nothing, wins every argmin
// just as silently, so zero and negative predictions fail the sweep too.
TEST(SweepValidationTest, EveryQuestionRejectsNonPositivePredictions) {
  for (const guide::SweepPoint& bad :
       {make_point(0.0, 3), make_point(-1.58, 3), make_point(10, 0.0),
        make_point(10, -0.38)}) {
    SCOPED_TRACE(std::to_string(bad.predicted_time_s) + " s, " +
                 std::to_string(bad.predicted_node_hours) + " node-hours");
    for (const auto objective :
         {guide::Objective::kShortestTime, guide::Objective::kNodeHours}) {
      EXPECT_THROW(
          guide::Advisor::from_sweep({make_point(10, 5), bad}, objective),
          Error);
    }
    guide::Recommendation base;
    base.sweep = {make_point(10, 5), bad};
    EXPECT_THROW(guide::Advisor::fastest_within_budget(base, 100.0), Error);
  }
}

TEST_F(BudgetAdvisorTest, ParetoFrontContainsBothExtremes) {
  const guide::Advisor advisor(*model_, simulator_);
  const auto stq = advisor.shortest_time(134, 951);
  const auto front = guide::pareto_front(stq.sweep);
  ASSERT_GE(front.size(), 2u);
  // The fastest point and the cheapest point anchor the frontier.
  EXPECT_NEAR(front.front().predicted_time_s, stq.predicted_time_s, 1e-9);
  const auto bq = advisor.cheapest_run(134, 951);
  EXPECT_NEAR(front.back().predicted_node_hours, bq.predicted_node_hours,
              1e-9);
}

}  // namespace
}  // namespace ccpred
