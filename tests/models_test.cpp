// Tests for the nine regression models: per-model behaviour plus the
// parameterized interface-contract suite over the whole zoo.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <utility>

#include "ccpred/common/strings.hpp"
#include "ccpred/core/adaboost.hpp"
#include "ccpred/core/bayesian_ridge.hpp"
#include "ccpred/core/decision_tree.hpp"
#include "ccpred/core/gaussian_process.hpp"
#include "ccpred/core/gradient_boosting.hpp"
#include "ccpred/core/kernel_ridge.hpp"
#include "ccpred/core/kernels.hpp"
#include "ccpred/core/linear.hpp"
#include "ccpred/core/metrics.hpp"
#include "ccpred/core/model_zoo.hpp"
#include "ccpred/core/polynomial.hpp"
#include "ccpred/core/random_forest.hpp"
#include "ccpred/core/serialize.hpp"
#include "ccpred/core/svr.hpp"
#include "test_util.hpp"

namespace ccpred::ml {
namespace {

using test::make_linear;
using test::make_nonlinear;

// ---------- kernels ----------

TEST(KernelTest, RbfSelfSimilarityIsOne) {
  const Kernel k{.type = KernelType::kRbf, .gamma = 0.7};
  const double x[] = {1.0, -2.0};
  EXPECT_DOUBLE_EQ(k(x, x, 2), 1.0);
}

TEST(KernelTest, RbfDecaysWithDistance) {
  const Kernel k{.type = KernelType::kRbf, .gamma = 1.0};
  const double a[] = {0.0};
  const double b[] = {1.0};
  const double c[] = {2.0};
  EXPECT_GT(k(a, b, 1), k(a, c, 1));
  EXPECT_NEAR(k(a, b, 1), std::exp(-1.0), 1e-12);
}

TEST(KernelTest, LinearAndPolynomial) {
  const double a[] = {1.0, 2.0};
  const double b[] = {3.0, 4.0};
  const Kernel lin{.type = KernelType::kLinear};
  EXPECT_DOUBLE_EQ(lin(a, b, 2), 11.0);
  const Kernel poly{.type = KernelType::kPolynomial, .gamma = 1.0,
                    .coef0 = 1.0, .degree = 2};
  EXPECT_DOUBLE_EQ(poly(a, b, 2), 144.0);
}

TEST(KernelTest, GramSymmetricMatchesGram) {
  Rng rng(3);
  linalg::Matrix x(15, 3);
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = rng.uniform(-1, 1);
  const Kernel k{.type = KernelType::kRbf, .gamma = 0.5};
  EXPECT_LT(k.gram_symmetric(x).max_abs_diff(k.gram(x, x)), 1e-12);
}

TEST(KernelTest, NameParsing) {
  EXPECT_EQ(kernel_type_from_name("rbf"), KernelType::kRbf);
  EXPECT_EQ(kernel_type_from_name("poly"), KernelType::kPolynomial);
  EXPECT_EQ(kernel_type_from_name("linear"), KernelType::kLinear);
  EXPECT_THROW(kernel_type_from_name("laplace"), Error);
}

// ---------- metrics ----------

TEST(MetricsTest, PerfectPredictions) {
  const std::vector<double> y = {1, 2, 3};
  const auto s = score_all(y, y);
  EXPECT_DOUBLE_EQ(s.r2, 1.0);
  EXPECT_DOUBLE_EQ(s.mae, 0.0);
  EXPECT_DOUBLE_EQ(s.mape, 0.0);
  EXPECT_DOUBLE_EQ(s.rmse, 0.0);
}

TEST(MetricsTest, HandComputedValues) {
  const std::vector<double> yt = {1, 2, 4};
  const std::vector<double> yp = {2, 2, 2};
  EXPECT_NEAR(mean_absolute_error(yt, yp), 1.0, 1e-12);
  EXPECT_NEAR(mean_absolute_percentage_error(yt, yp),
              (1.0 / 1 + 0.0 / 2 + 2.0 / 4) / 3.0, 1e-12);
  EXPECT_NEAR(root_mean_squared_error(yt, yp), std::sqrt(5.0 / 3.0), 1e-12);
  // SS_res = 5, mean = 7/3, SS_tot = (16+1+25)/9 * 3 = 14/3... compute:
  const double mean = 7.0 / 3.0;
  const double ss_tot = (1 - mean) * (1 - mean) + (2 - mean) * (2 - mean) +
                        (4 - mean) * (4 - mean);
  EXPECT_NEAR(r2_score(yt, yp), 1.0 - 5.0 / ss_tot, 1e-12);
}

TEST(MetricsTest, MeanPredictorHasZeroR2) {
  const std::vector<double> yt = {1, 2, 3, 4};
  const std::vector<double> yp(4, 2.5);
  EXPECT_NEAR(r2_score(yt, yp), 0.0, 1e-12);
}

TEST(MetricsTest, WorseThanMeanIsNegative) {
  EXPECT_LT(r2_score({1, 2, 3}, {3, 2, 1}), 0.0);
}

TEST(MetricsTest, ErrorsOnBadInput) {
  EXPECT_THROW(r2_score({}, {}), Error);
  EXPECT_THROW(mean_absolute_error({1}, {1, 2}), Error);
  EXPECT_THROW(mean_absolute_percentage_error({0.0}, {1.0}), Error);
}

// ---------- linear / polynomial ----------

TEST(RidgeTest, RecoversLinearFunction) {
  const auto s = make_linear(200);
  RidgeRegression model(1e-8);
  model.fit(s.x, s.y);
  const auto pred = model.predict(s.x);
  EXPECT_GT(r2_score(s.y, pred), 0.999);
}

TEST(RidgeTest, InterceptLearned) {
  // Constant target: prediction should be that constant.
  linalg::Matrix x(10, 1);
  for (std::size_t i = 0; i < 10; ++i) x(i, 0) = static_cast<double>(i);
  const std::vector<double> y(10, 7.5);
  RidgeRegression model(1.0);
  model.fit(x, y);
  EXPECT_NEAR(model.predict_one({3.0}), 7.5, 1e-6);
}

TEST(RidgeTest, SetParamsValidation) {
  RidgeRegression model;
  EXPECT_NO_THROW(model.set_params({{"alpha", 0.5}}));
  EXPECT_THROW(model.set_params({{"alpha", -1.0}}), Error);
  EXPECT_THROW(model.set_params({{"bogus", 1.0}}), Error);
}

TEST(PolynomialTest, MonomialEnumeration) {
  // d=2, degree=2: x, y, x^2, xy, y^2 -> 5 monomials.
  EXPECT_EQ(monomial_exponents(2, 2).size(), 5u);
  // d=4, degree=3: C(7,3)-1 = 34.
  EXPECT_EQ(monomial_exponents(4, 3).size(), 34u);
  EXPECT_THROW(monomial_exponents(0, 2), Error);
  EXPECT_THROW(monomial_exponents(2, 0), Error);
}

TEST(PolynomialTest, ExpansionValues) {
  const linalg::Matrix x = {{2.0, 3.0}};
  const auto exps = monomial_exponents(2, 2);
  const auto ex = polynomial_expand(x, exps);
  // Find the xy term (exponents {1,1}).
  bool found = false;
  for (std::size_t m = 0; m < exps.size(); ++m) {
    if (exps[m] == std::vector<int>{1, 1}) {
      EXPECT_DOUBLE_EQ(ex(0, m), 6.0);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(PolynomialTest, FitsQuadraticExactly) {
  Rng rng(4);
  linalg::Matrix x(100, 2);
  std::vector<double> y(100);
  for (std::size_t i = 0; i < 100; ++i) {
    x(i, 0) = rng.uniform(-2, 2);
    x(i, 1) = rng.uniform(-2, 2);
    y[i] = 2.0 * x(i, 0) * x(i, 0) - x(i, 0) * x(i, 1) + 3.0;
  }
  PolynomialRegression model(2, 1e-10);
  model.fit(x, y);
  EXPECT_GT(r2_score(y, model.predict(x)), 0.9999);
}

TEST(PolynomialTest, DegreeBoundsEnforced) {
  EXPECT_THROW(PolynomialRegression(0), Error);
  EXPECT_THROW(PolynomialRegression(7), Error);
  PolynomialRegression model;
  EXPECT_THROW(model.set_params({{"degree", 9.0}}), Error);
}

// ---------- kernel ridge / GP / BR ----------

TEST(KernelRidgeTest, InterpolatesSmoothFunction) {
  const auto s = make_nonlinear(300);
  KernelRidgeRegression model(Kernel{.type = KernelType::kRbf, .gamma = 0.5},
                              1e-3);
  model.fit(s.x, s.y);
  EXPECT_GT(r2_score(s.y, model.predict(s.x)), 0.99);
}

TEST(KernelRidgeTest, GeneralizesToHeldOut) {
  const auto train = make_nonlinear(400, 0.05, 21);
  const auto test = make_nonlinear(100, 0.0, 22);
  KernelRidgeRegression model(Kernel{.type = KernelType::kRbf, .gamma = 0.5},
                              1e-2);
  model.fit(train.x, train.y);
  EXPECT_GT(r2_score(test.y, model.predict(test.x)), 0.95);
}

TEST(KernelRidgeTest, AlphaMustBePositive) {
  EXPECT_THROW(KernelRidgeRegression({}, 0.0), Error);
  KernelRidgeRegression model;
  EXPECT_THROW(model.set_params({{"alpha", -0.1}}), Error);
  EXPECT_NO_THROW(model.set_params({{"kernel", 1.0}, {"degree", 2.0}}));
  EXPECT_THROW(model.set_params({{"kernel", 5.0}}), Error);
}

TEST(GaussianProcessTest, PredictsTrainingPointsWithLowNoise) {
  const auto s = make_nonlinear(150);
  GaussianProcessRegression gp(0.5, 1e-8, /*optimize=*/false);
  gp.fit(s.x, s.y);
  EXPECT_GT(r2_score(s.y, gp.predict(s.x)), 0.999);
}

TEST(GaussianProcessTest, UncertaintyGrowsAwayFromData) {
  // Train on x in [-1, 1]; std at x=4 must exceed std at x=0.
  linalg::Matrix x(20, 1);
  std::vector<double> y(20);
  for (int i = 0; i < 20; ++i) {
    x(i, 0) = -1.0 + 2.0 * i / 19.0;
    y[i] = std::sin(3.0 * x(i, 0));
  }
  GaussianProcessRegression gp(1.0, 1e-6, /*optimize=*/false);
  gp.fit(x, y);
  linalg::Matrix probes = {{0.0}, {4.0}};
  std::vector<double> mean;
  std::vector<double> std;
  gp.predict_with_std(probes, mean, std);
  EXPECT_LT(std[0], std[1]);
  EXPECT_GE(std[0], 0.0);
}

TEST(GaussianProcessTest, MarginalLikelihoodPicksReasonableGamma) {
  const auto s = make_nonlinear(200, 0.05);
  GaussianProcessRegression gp;  // optimize = true
  gp.fit(s.x, s.y);
  EXPECT_GT(gp.gamma(), 0.0);
  EXPECT_GT(r2_score(s.y, gp.predict(s.x)), 0.95);
}

TEST(GaussianProcessTest, LogTargetHandlesMultiplicativeNoise) {
  // y = exp(x) with lognormal noise: log-target GP should generalize.
  Rng rng(31);
  linalg::Matrix x(120, 1);
  std::vector<double> y(120);
  for (int i = 0; i < 120; ++i) {
    x(i, 0) = rng.uniform(0.0, 4.0);
    y[i] = std::exp(x(i, 0)) * rng.lognormal_median(1.0, 0.05);
  }
  GaussianProcessRegression gp(0.5, 1e-4, true, /*log_target=*/true);
  gp.fit(x, y);
  EXPECT_NEAR(gp.predict_one({2.0}), std::exp(2.0),
              0.15 * std::exp(2.0));
  // Negative targets are invalid in log space.
  std::vector<double> bad = y;
  bad[0] = -1.0;
  GaussianProcessRegression gp2(0.5, 1e-4, false, true);
  EXPECT_THROW(gp2.fit(x, bad), Error);
}

TEST(GaussianProcessTest, CloneAndParamsPreserveFlag) {
  // A clone of a log-target GP refit on the same rows predicts the same.
  const auto tt = test::small_campaign(200, 4);
  GaussianProcessRegression gp(0.5, 1e-4, false, /*log_target=*/true);
  gp.fit(tt.train.features(), tt.train.targets());
  auto copy = gp.clone();
  copy->fit(tt.train.features(), tt.train.targets());
  const auto p1 = gp.predict(tt.test.features());
  const auto p2 = copy->predict(tt.test.features());
  for (std::size_t i = 0; i < p1.size(); ++i) EXPECT_DOUBLE_EQ(p1[i], p2[i]);

  GaussianProcessRegression configured;
  EXPECT_NO_THROW(configured.set_params({{"log_target", 1.0}}));
  EXPECT_THROW(configured.set_params({{"log_features", 1.0}}), Error);
}

TEST(GaussianProcessTest, StdStaysPositiveAndFinite) {
  const auto tt = test::small_campaign(200, 5);
  GaussianProcessRegression gp(0.5, 1e-4, true, /*log_target=*/true);
  gp.fit(tt.train.features(), tt.train.targets());
  std::vector<double> mean;
  std::vector<double> std;
  gp.predict_with_std(tt.test.features(), mean, std);
  for (std::size_t i = 0; i < std.size(); ++i) {
    EXPECT_GE(std[i], 0.0);
    EXPECT_TRUE(std::isfinite(std[i]));
    EXPECT_GT(mean[i], 0.0);  // log-target predictions are positive
  }
}

TEST(BayesianRidgeTest, RecoversCoefficientsAndNoise) {
  const auto s = make_linear(400, 0.1);
  BayesianRidgeRegression model;
  model.fit(s.x, s.y);
  EXPECT_GT(r2_score(s.y, model.predict(s.x)), 0.99);
  // Estimated noise precision should be in the right ballpark:
  // alpha ~ 1/var(noise) in *standardized* target units.
  EXPECT_GT(model.alpha(), 1.0);
}

TEST(BayesianRidgeTest, UncertaintyPositive) {
  const auto s = make_linear(100, 0.2);
  BayesianRidgeRegression model;
  model.fit(s.x, s.y);
  std::vector<double> mean;
  std::vector<double> std;
  model.predict_with_std(s.x, mean, std);
  for (double v : std) EXPECT_GT(v, 0.0);
}

// ---------- trees & ensembles ----------

TEST(DecisionTreeTest, LearnsStepFunctionExactly) {
  linalg::Matrix x(40, 1);
  std::vector<double> y(40);
  for (int i = 0; i < 40; ++i) {
    x(i, 0) = static_cast<double>(i);
    y[i] = i < 20 ? 1.0 : 5.0;
  }
  DecisionTreeRegressor tree(TreeOptions{.max_depth = 2});
  tree.fit(x, y);
  EXPECT_DOUBLE_EQ(tree.predict_one({5.0}), 1.0);
  EXPECT_DOUBLE_EQ(tree.predict_one({30.0}), 5.0);
  EXPECT_LE(tree.depth(), 2);
}

TEST(DecisionTreeTest, DepthZeroMeansUnlimited) {
  const auto s = make_nonlinear(200);
  DecisionTreeRegressor tree(TreeOptions{.max_depth = 0});
  tree.fit(s.x, s.y);
  EXPECT_GT(r2_score(s.y, tree.predict(s.x)), 0.999);  // interpolates
}

TEST(DecisionTreeTest, MinSamplesLeafRespected) {
  const auto s = make_nonlinear(100);
  DecisionTreeRegressor tree(
      TreeOptions{.max_depth = 0, .min_samples_leaf = 25});
  tree.fit(s.x, s.y);
  // With >= 25 samples per leaf and 100 samples, at most 4 leaves.
  EXPECT_LE(tree.node_count(), 7u);
}

TEST(DecisionTreeTest, ConstantTargetIsSingleLeaf) {
  linalg::Matrix x(10, 2, 1.0);
  const std::vector<double> y(10, 3.0);
  DecisionTreeRegressor tree;
  tree.fit(x, y);
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_DOUBLE_EQ(tree.predict_one({1.0, 1.0}), 3.0);
}

TEST(DecisionTreeTest, FitRowsSubset) {
  const auto s = make_linear(50);
  DecisionTreeRegressor tree;
  tree.fit_rows(s.x, s.y, {0, 1, 2, 3, 4});
  EXPECT_TRUE(tree.is_fitted());
  EXPECT_THROW(tree.fit_rows(s.x, s.y, {999}), Error);
  DecisionTreeRegressor empty;
  EXPECT_THROW(empty.fit_rows(s.x, s.y, {}), Error);
}

TEST(DecisionTreeTest, InvalidOptionsThrow) {
  EXPECT_THROW(DecisionTreeRegressor(TreeOptions{.max_depth = -1}), Error);
  EXPECT_THROW(DecisionTreeRegressor(TreeOptions{.min_samples_split = 1}),
               Error);
  EXPECT_THROW(DecisionTreeRegressor(TreeOptions{.min_samples_leaf = 0}),
               Error);
}

TEST(RandomForestTest, BeatsSingleTreeOnNoisyData) {
  const auto train = make_nonlinear(300, 0.4, 41);
  const auto test = make_nonlinear(150, 0.0, 42);
  DecisionTreeRegressor tree(TreeOptions{.max_depth = 0});
  tree.fit(train.x, train.y);
  RandomForestRegressor forest(100, TreeOptions{.max_depth = 0});
  forest.fit(train.x, train.y);
  const double tree_r2 = r2_score(test.y, tree.predict(test.x));
  const double forest_r2 = r2_score(test.y, forest.predict(test.x));
  EXPECT_GT(forest_r2, tree_r2);
}

TEST(RandomForestTest, DeterministicGivenSeed) {
  const auto s = make_nonlinear(100, 0.1);
  RandomForestRegressor a(20, {}, true, 7);
  RandomForestRegressor b(20, {}, true, 7);
  a.fit(s.x, s.y);
  b.fit(s.x, s.y);
  const auto pa = a.predict(s.x);
  const auto pb = b.predict(s.x);
  for (std::size_t i = 0; i < pa.size(); ++i) EXPECT_DOUBLE_EQ(pa[i], pb[i]);
}

TEST(RandomForestTest, TreeCountMatches) {
  const auto s = make_linear(60);
  RandomForestRegressor forest(17);
  forest.fit(s.x, s.y);
  EXPECT_EQ(forest.tree_count(), 17u);
}

/// Training data whose features hold a NaN, with targets shifted away from
/// make_nonlinear's: every tree-ensemble fit ranks the features first and
/// throws on it.
test::Synthetic nan_feature_data() {
  auto s = make_nonlinear(60, 0.1, 62);
  s.x(7, 1) = std::numeric_limits<double>::quiet_NaN();
  for (double& v : s.y) v += 3.0;
  return s;
}

TEST(RandomForestTest, FailedRefitKeepsTheFittedForest) {
  const auto good = make_nonlinear(80, 0.1, 61);
  const auto bad = nan_feature_data();
  RandomForestRegressor forest(10);
  forest.fit(good.x, good.y);
  const auto before = forest.predict(good.x);
  const std::string bytes = serialize_rf(forest);
  EXPECT_THROW(forest.fit(bad.x, bad.y), Error);
  ASSERT_TRUE(forest.is_fitted());
  EXPECT_EQ(forest.predict(good.x), before);
  EXPECT_TRUE(serialize_rf(forest) == bytes) << "serialized forest changed";
}

TEST(RandomForestTest, FailedFirstFitLeavesTheForestUnfitted) {
  const auto bad = nan_feature_data();
  RandomForestRegressor forest(10);
  EXPECT_THROW(forest.fit(bad.x, bad.y), Error);
  EXPECT_FALSE(forest.is_fitted());
  EXPECT_THROW(forest.predict(make_nonlinear(5).x), Error);
}

TEST(GradientBoostingTest, FailedRefitKeepsTheFittedModel) {
  const auto good = make_nonlinear(80, 0.1, 61);
  const auto bad = nan_feature_data();
  GradientBoostingRegressor gb(20, 0.1, TreeOptions{.max_depth = 3});
  gb.fit(good.x, good.y);
  const auto before = gb.predict(good.x);
  const std::string bytes = serialize_gb(gb);
  EXPECT_THROW(gb.fit(bad.x, bad.y), Error);
  ASSERT_TRUE(gb.is_fitted());
  EXPECT_EQ(gb.predict(good.x), before);
  EXPECT_TRUE(serialize_gb(gb) == bytes) << "serialized model changed";
}

TEST(GradientBoostingTest, FailedFirstFitLeavesTheModelUnfitted) {
  const auto bad = nan_feature_data();
  GradientBoostingRegressor gb(20, 0.1, TreeOptions{.max_depth = 3});
  EXPECT_THROW(gb.fit(bad.x, bad.y), Error);
  EXPECT_FALSE(gb.is_fitted());
  EXPECT_THROW(gb.predict(make_nonlinear(5).x), Error);
}

TEST(AdaBoostTest, FailedRefitKeepsTheFittedModel) {
  // A NaN feature throws while the features are ranked, an infinite target
  // in the first stage's fit: neither may unfit the model.
  const auto good = make_nonlinear(80, 0.1, 61);
  auto inf_target = make_nonlinear(60, 0.1, 62);
  for (double& v : inf_target.y) v = std::numeric_limits<double>::infinity();
  AdaBoostRegressor model;
  model.fit(good.x, good.y);
  const auto before = model.predict(good.x);
  const std::size_t stages = model.stage_count();
  for (const auto& bad : {nan_feature_data(), inf_target}) {
    EXPECT_THROW(model.fit(bad.x, bad.y), Error);
    ASSERT_TRUE(model.is_fitted());
    EXPECT_EQ(model.stage_count(), stages);
    EXPECT_EQ(model.predict(good.x), before);
  }
}

TEST(AdaBoostTest, FailedFirstFitLeavesTheModelUnfitted) {
  const auto bad = nan_feature_data();
  AdaBoostRegressor model;
  EXPECT_THROW(model.fit(bad.x, bad.y), Error);
  EXPECT_FALSE(model.is_fitted());
  EXPECT_THROW(model.predict(make_nonlinear(5).x), Error);
}

TEST(GradientBoostingTest, ImprovesWithStages) {
  const auto train = make_nonlinear(300, 0.1, 51);
  const auto test = make_nonlinear(150, 0.0, 52);
  GradientBoostingRegressor gb(200, 0.1, TreeOptions{.max_depth = 3});
  gb.fit(train.x, train.y);
  const double r2_early = r2_score(test.y, gb.predict_staged(test.x, 10));
  const double r2_late = r2_score(test.y, gb.predict_staged(test.x, 200));
  EXPECT_GT(r2_late, r2_early);
  EXPECT_GT(r2_late, 0.9);
  EXPECT_THROW(gb.predict_staged(test.x, 201), Error);
}

TEST(GradientBoostingTest, PaperConfiguration) {
  const auto gb = make_paper_gb();
  EXPECT_EQ(gb->name(), "GB");
  // §4.2: 750 estimators, depth 10.
  const auto* cast = dynamic_cast<GradientBoostingRegressor*>(gb.get());
  ASSERT_NE(cast, nullptr);
  EXPECT_DOUBLE_EQ(cast->learning_rate(), 0.1);
}

TEST(GradientBoostingTest, InvalidHyperparamsThrow) {
  EXPECT_THROW(GradientBoostingRegressor(0), Error);
  EXPECT_THROW(GradientBoostingRegressor(10, 0.0), Error);
}

TEST(AdaBoostTest, LearnsNonlinearTarget) {
  const auto train = make_nonlinear(300, 0.05, 61);
  const auto test = make_nonlinear(100, 0.0, 62);
  AdaBoostRegressor model(60, 1.0, AdaBoostLoss::kLinear,
                          TreeOptions{.max_depth = 6});
  model.fit(train.x, train.y);
  EXPECT_GT(r2_score(test.y, model.predict(test.x)), 0.85);
  EXPECT_GE(model.stage_count(), 1u);
}

TEST(AdaBoostTest, LossVariantsAllWork) {
  const auto s = make_nonlinear(150, 0.05, 63);
  for (auto loss : {AdaBoostLoss::kLinear, AdaBoostLoss::kSquare,
                    AdaBoostLoss::kExponential}) {
    AdaBoostRegressor model(30, 1.0, loss, TreeOptions{.max_depth = 5});
    model.fit(s.x, s.y);
    EXPECT_GT(r2_score(s.y, model.predict(s.x)), 0.7);
  }
}

TEST(AdaBoostTest, FittedModelIsBitStable) {
  // FNV-1a over the bit patterns of the predictions of AdaBoost models
  // fitted on fixed data: the zoo default (depth 4) and a deeper square-
  // loss variant. Any change to the weighted resampling, the draws between
  // stages or a fitted tree shows up here.
  const auto train = make_nonlinear(300, 0.05, 61);
  const auto test = make_nonlinear(100, 0.0, 62);
  const std::pair<AdaBoostRegressor, std::uint64_t> cases[] = {
      {AdaBoostRegressor(), 0xf2e2bf3104dbde3dULL},
      {AdaBoostRegressor(40, 0.5, AdaBoostLoss::kSquare,
                         TreeOptions{.max_depth = 6}, 9),
       0x29d564441b0f906cULL},
  };
  for (auto [model, expect] : cases) {
    model.fit(train.x, train.y);
    std::uint64_t h = fnv1a64("");
    for (const double p : model.predict(test.x)) {
      h = fnv1a64(std::string_view(reinterpret_cast<const char*>(&p),
                                   sizeof p),
                  h);
    }
    EXPECT_EQ(h, expect) << std::hex << h << " after "
                         << model.stage_count() << " stages";
  }
}

TEST(AdaBoostTest, PerfectLearnerStopsEarly) {
  // Step function learnable exactly by one tree.
  linalg::Matrix x(20, 1);
  std::vector<double> y(20);
  for (int i = 0; i < 20; ++i) {
    x(i, 0) = i;
    y[i] = i < 10 ? 0.0 : 1.0;
  }
  AdaBoostRegressor model(50, 1.0, AdaBoostLoss::kLinear,
                          TreeOptions{.max_depth = 3});
  model.fit(x, y);
  EXPECT_LT(model.stage_count(), 50u);
  EXPECT_DOUBLE_EQ(model.predict_one({15.0}), 1.0);
}

// ---------- SVR ----------

TEST(SvrTest, FitsSmoothFunction) {
  const auto train = make_nonlinear(300, 0.05, 71);
  const auto test = make_nonlinear(100, 0.0, 72);
  SupportVectorRegression svr(10.0, 0.05, 0.5);
  svr.fit(train.x, train.y);
  EXPECT_GT(r2_score(test.y, svr.predict(test.x)), 0.9);
  EXPECT_GT(svr.support_vector_count(), 0u);
  EXPECT_LE(svr.support_vector_count(), 300u);
}

TEST(SvrTest, EpsilonTubeSparsifies) {
  const auto s = make_nonlinear(200, 0.02, 73);
  SupportVectorRegression tight(10.0, 0.01, 0.5);
  SupportVectorRegression loose(10.0, 0.5, 0.5);
  tight.fit(s.x, s.y);
  loose.fit(s.x, s.y);
  EXPECT_LT(loose.support_vector_count(), tight.support_vector_count());
}

TEST(SvrTest, ParameterValidation) {
  EXPECT_THROW(SupportVectorRegression(0.0), Error);
  EXPECT_THROW(SupportVectorRegression(1.0, -0.1), Error);
  EXPECT_THROW(SupportVectorRegression(1.0, 0.1, 0.0), Error);
  SupportVectorRegression svr;
  EXPECT_THROW(svr.set_params({{"C", -5.0}}), Error);
  EXPECT_NO_THROW(svr.set_params({{"max_sweeps", 50.0}, {"tol", 1e-3}}));
}

// ---------- interface contract over the whole zoo ----------

class ZooContract : public ::testing::TestWithParam<std::string> {};

TEST_P(ZooContract, PredictBeforeFitThrows) {
  const auto model = make_model(GetParam());
  EXPECT_FALSE(model->is_fitted());
  EXPECT_THROW(model->predict(linalg::Matrix(1, 3)), Error);
}

TEST_P(ZooContract, FitsLinearDataReasonably) {
  const auto s = make_linear(250, 0.05, 81);
  auto model = make_model(GetParam());
  // Shrink the heavy ensembles for test speed.
  if (GetParam() == "GB") model->set_params({{"n_estimators", 100.0}});
  if (GetParam() == "RF") model->set_params({{"n_estimators", 30.0}});
  model->fit(s.x, s.y);
  EXPECT_TRUE(model->is_fitted());
  const auto pred = model->predict(s.x);
  ASSERT_EQ(pred.size(), s.y.size());
  EXPECT_GT(r2_score(s.y, pred), 0.9) << GetParam();
}

TEST_P(ZooContract, CloneIsUnfittedAndIndependent) {
  const auto s = make_linear(100, 0.0, 82);
  auto model = make_model(GetParam());
  if (GetParam() == "GB") model->set_params({{"n_estimators", 50.0}});
  model->fit(s.x, s.y);
  const auto copy = model->clone();
  EXPECT_FALSE(copy->is_fitted());
  EXPECT_EQ(copy->name(), model->name());
  EXPECT_TRUE(model->is_fitted());  // original untouched
}

TEST_P(ZooContract, UnknownParameterThrows) {
  const auto model = make_model(GetParam());
  // No split-mode, bin-count, feature-sampling or row-subsampling keys:
  // trees always split exactly over every feature and every boosting stage
  // fits every row, so the tree models reject those keys like any other
  // unknown one.
  for (const char* key : {"definitely_not_a_param", "split_mode", "max_bins",
                          "max_features", "subsample"}) {
    EXPECT_THROW(model->set_params({{key, 1.0}}), Error) << key;
  }
}

TEST_P(ZooContract, GridParamsAreAccepted) {
  const auto& entry = zoo_entry(GetParam());
  const auto model = entry.make();
  for (const auto& params : expand_grid(entry.grid)) {
    EXPECT_NO_THROW(model->set_params(params));
  }
}

TEST_P(ZooContract, FitRejectsMismatchedSizes) {
  const auto model = make_model(GetParam());
  linalg::Matrix x(5, 3);
  EXPECT_THROW(model->fit(x, std::vector<double>(4, 1.0)), Error);
}

TEST_P(ZooContract, RefitReplacesOldModel) {
  const auto a = make_linear(120, 0.0, 83);
  auto b = a;
  for (auto& v : b.y) v += 100.0;  // shifted target
  auto model = make_model(GetParam());
  if (GetParam() == "GB") model->set_params({{"n_estimators", 50.0}});
  model->fit(a.x, a.y);
  const double before = model->predict_one(a.x.row(0));
  model->fit(b.x, b.y);
  const double after = model->predict_one(a.x.row(0));
  EXPECT_NEAR(after - before, 100.0, 20.0) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllModels, ZooContract,
                         ::testing::Values("PR", "KR", "DT", "RF", "GB", "AB",
                                           "GP", "BR", "SVR"),
                         [](const auto& info) { return info.param; });

TEST(ZooTest, CatalogueCompleteAndOrdered) {
  const auto& zoo = model_zoo();
  ASSERT_EQ(zoo.size(), 9u);  // §3.1: nine evaluated model families
  EXPECT_EQ(zoo.front().key, "PR");
  EXPECT_EQ(zoo.back().key, "SVR");
  EXPECT_THROW(zoo_entry("XGB"), Error);
  for (const auto& entry : zoo) {
    EXPECT_FALSE(entry.description.empty());
    EXPECT_FALSE(entry.grid.empty());
  }
}

}  // namespace
}  // namespace ccpred::ml
