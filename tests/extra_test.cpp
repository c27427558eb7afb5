// Second-wave tests: cross-cutting edge cases and equivalence properties
// that the per-module suites don't cover.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <queue>
#include <set>

#include "ccpred/common/error.hpp"
#include "ccpred/common/rng.hpp"
#include "ccpred/core/gradient_boosting.hpp"
#include "ccpred/core/kernel_ridge.hpp"
#include "ccpred/core/metrics.hpp"
#include "ccpred/core/model_zoo.hpp"
#include "ccpred/core/svr.hpp"
#include "ccpred/data/generator.hpp"
#include "ccpred/sim/scheduler.hpp"
#include "test_util.hpp"

namespace ccpred {
namespace {

// ---------- scheduler: bulk water-fill equals exact greedy ----------

/// Brute-force greedy list scheduler (task-by-task, min-heap).
double exact_greedy_makespan(const std::vector<sim::TaskGroup>& groups_in,
                             int workers) {
  auto groups = groups_in;
  std::sort(groups.begin(), groups.end(),
            [](const sim::TaskGroup& a, const sim::TaskGroup& b) {
              return a.duration_s > b.duration_s;
            });
  using Entry = std::pair<double, int>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  for (int i = 0; i < workers; ++i) heap.emplace(0.0, i);
  std::vector<double> load(static_cast<std::size_t>(workers), 0.0);
  for (const auto& g : groups) {
    for (std::int64_t t = 0; t < g.count; ++t) {
      auto [l, i] = heap.top();
      heap.pop();
      load[static_cast<std::size_t>(i)] = l + g.duration_s;
      heap.emplace(load[static_cast<std::size_t>(i)], i);
    }
  }
  double m = 0.0;
  for (double l : load) m = std::max(m, l);
  return m;
}

class SchedulerEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulerEquivalence, BulkPathMatchesExactGreedyWithinOneTask) {
  Rng rng(GetParam());
  std::vector<sim::TaskGroup> groups;
  double max_d = 0.0;
  for (int g = 0; g < 4; ++g) {
    const double d = rng.uniform(0.05, 2.0);
    max_d = std::max(max_d, d);
    // Counts large enough to exercise the water-fill bulk path.
    groups.push_back(sim::TaskGroup{d, rng.uniform_int(100, 5000)});
  }
  const int workers = static_cast<int>(rng.uniform_int(3, 40));
  const double fast = sim::lpt_makespan(groups, workers);
  const double exact = exact_greedy_makespan(groups, workers);
  // The bulk water-fill may deviate from task-by-task greedy by at most
  // one task duration.
  EXPECT_NEAR(fast, exact, max_d + 1e-9);
  // And never below the work lower bound.
  EXPECT_GE(fast, sim::total_work(groups) / workers - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerEquivalence,
                         ::testing::Values(1u, 7u, 23u, 91u, 1234u, 777u));

// ---------- model determinism ----------

TEST(DeterminismTest, GradientBoostingBitReproducible) {
  const auto s = test::make_nonlinear(200, 0.1, 5);
  ml::GradientBoostingRegressor a(100, 0.1, ml::TreeOptions{.max_depth = 5});
  ml::GradientBoostingRegressor b(100, 0.1, ml::TreeOptions{.max_depth = 5});
  a.fit(s.x, s.y);
  b.fit(s.x, s.y);
  const auto pa = a.predict(s.x);
  const auto pb = b.predict(s.x);
  for (std::size_t i = 0; i < pa.size(); ++i) EXPECT_DOUBLE_EQ(pa[i], pb[i]);
}

TEST(DeterminismTest, PaperDatasetStableAcrossCalls) {
  const sim::CcsdSimulator simulator(sim::MachineModel::aurora());
  const auto a = data::paper_dataset(simulator, 7);
  const auto b = data::paper_dataset(simulator, 7);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); i += 97) {
    EXPECT_DOUBLE_EQ(a.target(i), b.target(i));
  }
}

TEST(DeterminismTest, CloneTrainsToIdenticalModel) {
  const auto s = test::make_nonlinear(150, 0.05, 6);
  for (const char* key : {"DT", "RF", "GB"}) {
    auto original = ml::make_model(key);
    if (std::string(key) != "DT") {
      original->set_params({{"n_estimators", 25.0}});
    }
    auto copy = original->clone();
    original->fit(s.x, s.y);
    copy->fit(s.x, s.y);
    const auto pa = original->predict(s.x);
    const auto pb = copy->predict(s.x);
    for (std::size_t i = 0; i < pa.size(); ++i) {
      EXPECT_DOUBLE_EQ(pa[i], pb[i]) << key;
    }
  }
}

// ---------- SVR convergence controls ----------

TEST(SvrControlTest, MaxSweepsBoundsWork) {
  const auto s = test::make_nonlinear(150, 0.05, 7);
  ml::SupportVectorRegression svr(10.0, 0.05, 0.5);
  svr.set_params({{"max_sweeps", 3.0}});
  svr.fit(s.x, s.y);
  EXPECT_LE(svr.sweeps_used(), 3);
  // Loose tolerance converges in fewer sweeps than a tight one.
  ml::SupportVectorRegression loose(10.0, 0.05, 0.5);
  loose.set_params({{"tol", 1e-1}});
  loose.fit(s.x, s.y);
  ml::SupportVectorRegression tight(10.0, 0.05, 0.5);
  tight.set_params({{"tol", 1e-6}, {"max_sweeps", 500.0}});
  tight.fit(s.x, s.y);
  EXPECT_LE(loose.sweeps_used(), tight.sweeps_used());
}

// ---------- kernel ridge with polynomial kernel ----------

TEST(KernelRidgePolyTest, FitsPolynomialTarget) {
  Rng rng(8);
  linalg::Matrix x(150, 2);
  std::vector<double> y(150);
  for (std::size_t i = 0; i < 150; ++i) {
    x(i, 0) = rng.uniform(-1, 1);
    x(i, 1) = rng.uniform(-1, 1);
    y[i] = (x(i, 0) + 2.0 * x(i, 1)) * (x(i, 0) + 2.0 * x(i, 1));
  }
  ml::KernelRidgeRegression model(
      ml::Kernel{.type = ml::KernelType::kPolynomial, .gamma = 1.0,
                 .coef0 = 1.0, .degree = 2},
      1e-4);
  model.fit(x, y);
  EXPECT_GT(ml::r2_score(y, model.predict(x)), 0.999);
}

// ---------- generator: tile rotation covers the menu ----------

TEST(GeneratorCoverageTest, UnionOfProblemsCoversTileMenu) {
  const sim::CcsdSimulator simulator(sim::MachineModel::aurora());
  const auto ds = data::paper_dataset(simulator);
  std::set<int> tiles;
  for (std::size_t i = 0; i < ds.size(); ++i) tiles.insert(ds.config(i).tile);
  // Each problem sweeps only 5 tiles, but the rotated union must cover
  // most of the 15-entry machine menu.
  EXPECT_GE(tiles.size(), 10u);
}

TEST(GeneratorCoverageTest, RepeatCountsBalanced) {
  const sim::CcsdSimulator simulator(sim::MachineModel::aurora());
  data::GeneratorOptions opt;
  opt.target_total = 300;
  const std::vector<data::Problem> probs = {{134, 951}};
  const auto ds = data::generate_dataset(simulator, probs, opt);
  std::map<std::pair<int, int>, int> counts;
  for (std::size_t i = 0; i < ds.size(); ++i) {
    counts[{ds.config(i).nodes, ds.config(i).tile}]++;
  }
  int lo = 1 << 30;
  int hi = 0;
  for (const auto& [key, c] : counts) {
    lo = std::min(lo, c);
    hi = std::max(hi, c);
  }
  EXPECT_LE(hi - lo, 1);  // round-robin: counts differ by at most one
}

// ---------- predict_one convenience ----------

TEST(PredictOneTest, MatchesBatchPrediction) {
  const auto s = test::make_linear(100, 0.0, 9);
  auto model = ml::make_model("KR");
  model->fit(s.x, s.y);
  const auto batch = model->predict(s.x);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_NEAR(model->predict_one(s.x.row(i)), batch[i], 1e-12);
  }
}

// ---------- zoo: GB wins on the runtime surface against every model ----------

TEST(PaperFindingTest, GbBestOfZooOnRuntimeSurface) {
  const auto tt = test::small_campaign(600, 17);
  double gb_r2 = 0.0;
  double best_other = -1e300;
  for (const auto& entry : ml::model_zoo()) {
    auto model = entry.make();
    if (entry.key == "GB") {
      model->set_params({{"n_estimators", 300.0}});
    } else if (entry.key == "RF") {
      model->set_params({{"n_estimators", 60.0}});
    } else if (entry.key == "AB") {
      model->set_params({{"n_estimators", 30.0}});
    }
    model->fit(tt.train.features(), tt.train.targets());
    const double r2 = ml::r2_score(tt.test.targets(),
                                   model->predict(tt.test.features()));
    if (entry.key == "GB") {
      gb_r2 = r2;
    } else {
      best_other = std::max(best_other, r2);
    }
  }
  // GB need not beat every model by a margin, but it must be competitive
  // with the best and clearly positive — the paper's ranking.
  EXPECT_GT(gb_r2, 0.9);
  EXPECT_GT(gb_r2, best_other - 0.03);
}

}  // namespace
}  // namespace ccpred
