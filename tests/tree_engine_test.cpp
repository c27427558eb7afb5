// Property tests for the tree-ensemble engine: bit-identity of the
// presorted exact builder against the oracle's per-node-sort builder, and
// bit-identity of CompiledEnsemble batch inference against the oracle's
// tree walk over trees that never entered a store.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "ccpred/core/compiled_ensemble.hpp"
#include "ccpred/core/decision_tree.hpp"
#include "ccpred/core/gradient_boosting.hpp"
#include "ccpred/core/grid_search.hpp"
#include "ccpred/core/random_forest.hpp"
#include "ccpred/core/serialize.hpp"
#include "oracle/oracle.hpp"
#include "test_util.hpp"

namespace ccpred {
namespace {

using ml::CompiledEnsemble;
using ml::DecisionTreeRegressor;
using ml::FeatureRanks;
using ml::GradientBoostingRegressor;
using ml::RandomForestRegressor;
using ml::TreeOptions;

// Menu-structured matrix like the paper's features: every column draws from
// a small discrete set of values.
linalg::Matrix make_menu_matrix(std::size_t n, std::size_t d,
                                std::size_t menu_size, std::uint64_t seed) {
  Rng rng(seed);
  linalg::Matrix x(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < d; ++c) {
      x(i, c) = static_cast<double>(rng.uniform_int(
                    0, static_cast<std::int64_t>(menu_size) - 1)) *
                    1.5 -
                3.0;
    }
  }
  return x;
}

// ---------- presorted exact builder vs the per-node-sort oracle ----------

/// One exact-mode training set: features drawn from a small menu (many
/// ties, like the paper's) or continuous, targets rounded to a coarse grid
/// (tied) or not, and the fit's rows: all once, a bootstrap draw, or
/// AdaBoost's weighted bootstrap (inverse-CDF sampling on skewed weights).
struct ExactCase {
  std::uint64_t seed;
  bool menu;
  bool tied;
  int rows;  // 0 all, 1 bootstrap, 2 weighted bootstrap
};

struct ExactData {
  linalg::Matrix x;
  std::vector<double> y;
  std::vector<std::size_t> rows;
};

ExactData make_exact_data(const ExactCase& c) {
  const std::size_t n = 150;
  const std::size_t d = 4;
  ExactData data{c.menu ? make_menu_matrix(n, d, 6, c.seed)
                        : linalg::Matrix(n, d),
                 std::vector<double>(n), {}};
  Rng rng(c.seed ^ 0xe7ac7);
  if (!c.menu) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t f = 0; f < d; ++f) data.x(i, f) = rng.uniform(-2, 2);
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    const double v = std::sin(data.x(i, 0)) + data.x(i, 1) * data.x(i, 2) -
                     0.5 * data.x(i, 3) + rng.normal(0.0, 0.2);
    data.y[i] = c.tied ? std::round(2.0 * v) / 2.0 : v;
  }
  if (c.rows == 0) {
    data.rows.resize(n);
    std::iota(data.rows.begin(), data.rows.end(), std::size_t{0});
  } else if (c.rows == 1) {
    data.rows = rng.bootstrap_indices(n);
  } else {
    std::vector<double> cdf(n);
    for (std::size_t i = 0; i < n; ++i) {
      cdf[i] = (i == 0 ? 0.0 : cdf[i - 1]) + std::exp(rng.normal(0.0, 1.5));
    }
    data.rows.resize(n);
    for (auto& r : data.rows) {
      r = static_cast<std::size_t>(
          std::lower_bound(cdf.begin(), cdf.end(), rng.uniform() * cdf.back()) -
          cdf.begin());
      r = std::min(r, n - 1);
    }
  }
  return data;
}

/// Every max_depth x min_samples_leaf x min_samples_split combination the
/// exact builder branches on.
std::vector<TreeOptions> exact_option_grid() {
  std::vector<TreeOptions> grid;
  for (const int max_depth : {0, 3, 10}) {
    for (const int min_leaf : {1, 3}) {
      for (const int min_split : {2, 5}) {
        grid.push_back(TreeOptions{.max_depth = max_depth,
                                   .min_samples_split = min_split,
                                   .min_samples_leaf = min_leaf});
      }
    }
  }
  return grid;
}

std::string describe(const TreeOptions& o) {
  return "max_depth=" + std::to_string(o.max_depth) +
         " min_samples_leaf=" + std::to_string(o.min_samples_leaf) +
         " min_samples_split=" + std::to_string(o.min_samples_split);
}

class PresortedOracle : public ::testing::TestWithParam<ExactCase> {};

TEST_P(PresortedOracle, TreeIsBitIdenticalToPerNodeSort) {
  const ExactData data = make_exact_data(GetParam());
  const FeatureRanks ranks = FeatureRanks::build(data.x);
  std::vector<double> train_pred(data.x.rows());
  for (const TreeOptions& opt : exact_option_grid()) {
    const auto expect = ml::serialize_tree(
        oracle::exact_tree(data.x, data.y, data.rows, opt));
    DecisionTreeRegressor standalone(opt);
    standalone.fit_rows(data.x, data.y, data.rows);
    EXPECT_EQ(ml::serialize_tree(standalone), expect) << describe(opt);

    DecisionTreeRegressor shared(opt);
    shared.fit_presorted(data.x, ranks, data.y, data.rows, train_pred.data());
    ASSERT_EQ(ml::serialize_tree(shared), expect) << describe(opt);
    // The leaves' training predictions are predict_row's, bit for bit.
    for (const std::size_t r : data.rows) {
      ASSERT_EQ(train_pred[r], shared.predict_row(data.x.row_ptr(r)))
          << describe(opt) << " row " << r;
    }
  }
}

TEST_P(PresortedOracle, GbIsBitIdenticalToPerNodeSortBoosting) {
  const ExactData data = make_exact_data(GetParam());
  const TreeOptions opt{.max_depth = 6};
  GradientBoostingRegressor gb(30, 0.1, opt);
  gb.fit(data.x, data.y);
  EXPECT_EQ(ml::serialize_gb(gb),
            ml::serialize_gb(
                oracle::exact_gb(data.x, data.y, 30, 0.1, opt).model()));
}

TEST_P(PresortedOracle, RfIsBitIdenticalToPerNodeSortForest) {
  const ExactData data = make_exact_data(GetParam());
  const TreeOptions opt{.max_depth = 8};
  for (const bool bootstrap : {true, false}) {
    RandomForestRegressor rf(12, opt, bootstrap, GetParam().seed);
    rf.fit(data.x, data.y);
    EXPECT_EQ(ml::serialize_rf(rf),
              ml::serialize_rf(oracle::exact_rf(data.x, data.y, 12, opt,
                                                bootstrap, GetParam().seed)
                                   .model()))
        << "bootstrap " << bootstrap;
  }
}

std::vector<ExactCase> exact_cases() {
  std::vector<ExactCase> cases;
  for (const std::uint64_t seed : {1u, 7u, 42u}) {
    for (const bool menu : {true, false}) {
      for (const bool tied : {true, false}) {
        for (const int rows : {0, 1, 2}) {
          cases.push_back({seed, menu, tied, rows});
        }
      }
    }
  }
  return cases;
}

std::string exact_case_name(const ::testing::TestParamInfo<ExactCase>& info) {
  const ExactCase& c = info.param;
  const char* const rows[] = {"all", "bootstrap", "weighted"};
  return "seed" + std::to_string(c.seed) + (c.menu ? "_menu" : "_continuous") +
         (c.tied ? "_tied_" : "_untied_") + rows[c.rows];
}

INSTANTIATE_TEST_SUITE_P(Cases, PresortedOracle,
                         ::testing::ValuesIn(exact_cases()), exact_case_name);

TEST(PresortedOracleEdges, ConstantColumnAndTinyFitsMatch) {
  ExactData data = make_exact_data({3u, true, false, 0});
  for (std::size_t i = 0; i < data.x.rows(); ++i) data.x(i, 2) = 7.5;
  const std::vector<std::vector<std::size_t>> row_sets = {
      data.rows, {4}, {4, 9}, {9, 9}, {4, 4, 9}};
  for (const auto& rows : row_sets) {
    for (const TreeOptions& opt : exact_option_grid()) {
      DecisionTreeRegressor tree(opt);
      tree.fit_rows(data.x, data.y, rows);
      EXPECT_EQ(ml::serialize_tree(tree), ml::serialize_tree(oracle::exact_tree(
                                              data.x, data.y, rows, opt)))
          << describe(opt) << " rows " << rows.size();
    }
  }
}

TEST(PresortedOracleEdges, NonFiniteInputsAreRejected) {
  ExactData data = make_exact_data({5u, false, false, 0});
  DecisionTreeRegressor tree;
  data.y[3] = std::nan("");
  EXPECT_THROW(tree.fit_rows(data.x, data.y, data.rows), Error);
  data.y[3] = std::numeric_limits<double>::infinity();
  EXPECT_THROW(tree.fit_rows(data.x, data.y, data.rows), Error);
  data.y[3] = 1.0;
  data.x(8, 1) = std::nan("");
  EXPECT_THROW(FeatureRanks::build(data.x), Error);
  EXPECT_THROW(tree.fit_rows(data.x, data.y, data.rows), Error);
}

// ---------- compiled inference bit-identity ----------

// The references below walk the oracle's own exact trees, which equal the
// library's fits (PresortedOracle) but never enter a CompiledEnsemble, so
// the store is checked against trees it did not produce.

class CompiledBitIdentity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CompiledBitIdentity, GbPredictIsBitIdenticalToWalk) {
  const std::uint64_t seed = GetParam();
  const auto train = test::make_nonlinear(500, 0.1, seed);
  const auto query = test::make_nonlinear(700, 0.1, seed ^ 0x51);
  TreeOptions opt;
  opt.max_depth = 5;
  GradientBoostingRegressor gb(60, 0.1, opt);
  gb.fit(train.x, train.y);

  const auto compiled = gb.predict(query.x);
  const auto walk =
      oracle::gb_walk(oracle::exact_gb(train.x, train.y, 60, 0.1, opt), query.x);
  ASSERT_EQ(compiled.size(), walk.size());
  for (std::size_t i = 0; i < walk.size(); ++i) {
    EXPECT_EQ(compiled[i], walk[i]) << "row " << i;  // bitwise, not NEAR
  }
  // Single-row entry point agrees with the batch kernel.
  for (std::size_t i = 0; i < query.x.rows(); i += 97) {
    EXPECT_EQ(gb.compiled().predict_row(query.x.row_ptr(i)), compiled[i]);
  }
}

TEST_P(CompiledBitIdentity, RfPredictIsBitIdenticalToWalk) {
  const std::uint64_t seed = GetParam();
  const auto train = test::make_nonlinear(400, 0.1, seed);
  const auto query = test::make_nonlinear(600, 0.1, seed ^ 0x52);
  TreeOptions opt;
  opt.max_depth = 7;
  RandomForestRegressor rf(30, opt, true, seed);
  rf.fit(train.x, train.y);

  const auto compiled = rf.predict(query.x);
  const auto walk = oracle::forest_walk(
      oracle::exact_rf(train.x, train.y, 30, opt, true, seed), query.x);
  ASSERT_EQ(compiled.size(), walk.size());
  for (std::size_t i = 0; i < walk.size(); ++i) {
    EXPECT_EQ(compiled[i], walk[i]) << "row " << i;
  }
  for (std::size_t i = 0; i < query.x.rows(); i += 89) {
    EXPECT_EQ(rf.compiled().predict_row(query.x.row_ptr(i)), compiled[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Cases, CompiledBitIdentity,
                         ::testing::Values(7u, 19u, 31u));

TEST(CompiledEnsembleTest, SerializationRoundTripStaysBitIdentical) {
  // The serving registry loads via from_parts; the reloaded model must
  // compile eagerly and predict exactly like the original.
  const auto train = test::make_nonlinear(300, 0.1, 77);
  const auto query = test::make_nonlinear(300, 0.1, 78);
  GradientBoostingRegressor gb(40, 0.1, TreeOptions{.max_depth = 6});
  gb.fit(train.x, train.y);
  const auto loaded = ml::deserialize_gb(ml::serialize_gb(gb));
  const auto a = gb.predict(query.x);
  const auto b = loaded.predict(query.x);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);

  RandomForestRegressor rf(20, {});
  rf.fit(train.x, train.y);
  const auto rf_loaded = ml::deserialize_rf(ml::serialize_rf(rf));
  const auto ra = rf.predict(query.x);
  const auto rb = rf_loaded.predict(query.x);
  for (std::size_t i = 0; i < ra.size(); ++i) EXPECT_EQ(ra[i], rb[i]);
}

TEST(CompiledEnsembleTest, BlockBoundarySizesAllAgree) {
  // Batch sizes that straddle the internal 4,096-row block (one short, one
  // exact, one over, two blocks and a row), plus ragged small sizes around
  // 4-, 8-, 16-, 32- and 64-row widths. Each batch is a prefix of one
  // query matrix, so every size is checked against the same walk.
  const auto train = test::make_nonlinear(300, 0.1, 55);
  GradientBoostingRegressor gb(25, 0.1, {});
  gb.fit(train.x, train.y);
  TreeOptions rf_opt;
  rf_opt.max_depth = 6;
  RandomForestRegressor rf(10, rf_opt, true, 55);
  rf.fit(train.x, train.y);

  const auto query = test::make_nonlinear(8193, 0.1, 91);
  const auto gb_walk = oracle::gb_walk(
      oracle::exact_gb(train.x, train.y, 25, 0.1, {}), query.x);
  const auto rf_walk = oracle::forest_walk(
      oracle::exact_rf(train.x, train.y, 10, rf_opt, true, 55), query.x);
  std::vector<double> out(query.x.rows());
  for (const std::size_t n : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 15u, 16u, 17u,
                              31u, 32u, 33u, 63u, 64u, 65u, 100u, 257u, 4095u,
                              4096u, 4097u, 8193u}) {
    gb.compiled().predict_batch(query.x.data(), n, query.x.cols(), out.data());
    EXPECT_EQ(std::memcmp(out.data(), gb_walk.data(), n * sizeof(double)), 0)
        << "GB, n=" << n;
    rf.compiled().predict_batch(query.x.data(), n, query.x.cols(), out.data());
    EXPECT_EQ(std::memcmp(out.data(), rf_walk.data(), n * sizeof(double)), 0)
        << "RF, n=" << n;
  }
}

/// Writes NaN, +inf and -inf into `x`: single cells in some rows, whole
/// rows in others.
void plant_non_finite(linalg::Matrix& x) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < x.rows(); ++i) {
    if (i % 3 == 0) x(i, i % x.cols()) = nan;
    if (i % 5 == 1) x(i, (i / 5) % x.cols()) = inf;
    if (i % 7 == 2) x(i, (i / 7) % x.cols()) = -inf;
    for (const auto& [period, value] :
         {std::pair{17u, nan}, std::pair{19u, inf}, std::pair{23u, -inf}}) {
      if (i % period != 0) continue;
      for (std::size_t c = 0; c < x.cols(); ++c) x(i, c) = value;
    }
  }
}

TEST(CompiledEnsembleTest, NanFeaturesFollowTheWalk) {
  // A NaN feature value fails every `<=`, so the walk takes the right
  // child at each split on it; +inf goes right and -inf left like any
  // large value. The batch kernel has no NaN pre-scan: its leaves step on
  // the NaN column it prepends to each row, whatever the row holds, so
  // rows holding NaN or an infinity in any column, and rows of one of
  // them alone, match the walk bit for bit.
  const auto train = test::make_nonlinear(300, 0.1, 23);
  const TreeOptions opt{.max_depth = 6};
  GradientBoostingRegressor gb(30, 0.1, opt);
  gb.fit(train.x, train.y);
  RandomForestRegressor rf(12, opt, true, 23);
  rf.fit(train.x, train.y);

  auto query = test::make_nonlinear(257, 0.1, 24);
  plant_non_finite(query.x);
  const auto gb_walk = oracle::gb_walk(
      oracle::exact_gb(train.x, train.y, 30, 0.1, opt), query.x);
  const auto rf_walk = oracle::forest_walk(
      oracle::exact_rf(train.x, train.y, 12, opt, true, 23), query.x);
  const auto gb_out = gb.predict(query.x);
  const auto rf_out = rf.predict(query.x);
  for (std::size_t i = 0; i < query.x.rows(); ++i) {
    EXPECT_EQ(gb_out[i], gb_walk[i]) << "GB row " << i;
    EXPECT_EQ(rf_out[i], rf_walk[i]) << "RF row " << i;
    EXPECT_EQ(gb.compiled().predict_row(query.x.row_ptr(i)), gb_walk[i])
        << "GB row " << i;
    EXPECT_EQ(rf.compiled().predict_row(query.x.row_ptr(i)), rf_walk[i])
        << "RF row " << i;
  }
}

TEST(CompiledEnsembleTest, LeafOnlyTreesMatchTheWalkAndRoundTrip) {
  // A constant target leaves nothing to split: every GB stage fits zero
  // residuals and every forest member the constant, each as one leaf at
  // depth 0. The batch kernel then takes no step and reads the root, and
  // predict_row stops at it, on finite rows and non-finite ones alike.
  auto train = test::make_nonlinear(120, 0.1, 29);
  std::fill(train.y.begin(), train.y.end(), 3.25);
  GradientBoostingRegressor gb(8, 0.1, {});
  gb.fit(train.x, train.y);
  RandomForestRegressor rf(6, {}, true, 29);
  rf.fit(train.x, train.y);
  ASSERT_EQ(gb.compiled().node_count(), 8u);
  ASSERT_EQ(rf.compiled().node_count(), 6u);

  auto query = test::make_nonlinear(60, 0.1, 30);
  plant_non_finite(query.x);
  const auto gb_walk = oracle::gb_walk(
      oracle::exact_gb(train.x, train.y, 8, 0.1, {}), query.x);
  const auto rf_walk = oracle::forest_walk(
      oracle::exact_rf(train.x, train.y, 6, {}, true, 29), query.x);
  const auto gb_out = gb.predict(query.x);
  const auto rf_out = rf.predict(query.x);
  for (std::size_t i = 0; i < query.x.rows(); ++i) {
    EXPECT_EQ(gb_out[i], gb_walk[i]) << "GB row " << i;
    EXPECT_EQ(rf_out[i], rf_walk[i]) << "RF row " << i;
    EXPECT_EQ(gb.compiled().predict_row(query.x.row_ptr(i)), gb_walk[i])
        << "GB row " << i;
    EXPECT_EQ(rf.compiled().predict_row(query.x.row_ptr(i)), rf_walk[i])
        << "RF row " << i;
  }
  EXPECT_EQ(rf_out[0], 3.25);

  // The writer reads each leaf back out of its node: the canonical leaf
  // record, once per member, and the same bytes after a load.
  const auto leaves = [](const std::string& text, const std::string& leaf) {
    std::size_t count = 0;
    for (auto at = text.find(leaf); at != std::string::npos;
         at = text.find(leaf, at + 1)) {
      ++count;
    }
    return count;
  };
  const std::string gb_bytes = ml::serialize_gb(gb);
  const std::string rf_bytes = ml::serialize_rf(rf);
  EXPECT_EQ(leaves(gb_bytes, "\n-1 0 0 -1 -1\n"), 8u);
  EXPECT_EQ(leaves(rf_bytes, "\n-1 0 3.25 -1 -1\n"), 6u);
  EXPECT_EQ(ml::serialize_gb(ml::deserialize_gb(gb_bytes)), gb_bytes);
  EXPECT_EQ(ml::serialize_rf(ml::deserialize_rf(rf_bytes)), rf_bytes);
}

TEST(CompiledEnsembleTest, CountsMatchSourceModel) {
  const auto train = test::make_nonlinear(200, 0.1, 66);
  GradientBoostingRegressor gb(15, 0.1, {});
  gb.fit(train.x, train.y);
  const auto exact = oracle::exact_gb(train.x, train.y, 15, 0.1, {});
  std::size_t nodes = 0;
  for (const auto& t : exact.stages) nodes += t.node_count();
  EXPECT_EQ(gb.compiled().tree_count(), exact.stages.size());
  EXPECT_EQ(gb.stage_count(), exact.stages.size());
  EXPECT_EQ(gb.compiled().node_count(), nodes);
}

// ---------- parallel search determinism ----------

TEST(ParallelSearchTest, GridSearchIsDeterministicAcrossRuns) {
  const auto s = test::make_nonlinear(240, 0.1, 13);
  GradientBoostingRegressor proto(20, 0.1, {});
  ml::ParamGrid grid;
  grid["max_depth"] = {2.0, 3.0, 4.0};
  grid["learning_rate"] = {0.05, 0.1};
  ml::SearchOptions opt;
  opt.cv_folds = 3;
  opt.refit = false;
  const auto a = ml::grid_search(proto, grid, s.x, s.y, opt);
  const auto b = ml::grid_search(proto, grid, s.x, s.y, opt);
  ASSERT_EQ(a.trials.size(), 6u);
  ASSERT_EQ(a.trials.size(), b.trials.size());
  for (std::size_t i = 0; i < a.trials.size(); ++i) {
    EXPECT_EQ(a.trials[i].value, b.trials[i].value);
    EXPECT_EQ(a.trials[i].params, b.trials[i].params);
  }
  EXPECT_EQ(a.best_params, b.best_params);
  // The winner is the best-valued trial, earliest on ties.
  double best = a.trials[0].value;
  for (const auto& t : a.trials) best = std::max(best, t.value);
  EXPECT_EQ(ml::scoring_value(a.best_cv_scores, opt.scoring), best);
}

}  // namespace
}  // namespace ccpred
