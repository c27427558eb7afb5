// Tests for the fast kernel-model engine: GP agreement with the oracle's
// ReferenceGp, KRR refits that equal fresh fits, and incremental GP
// updates.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "ccpred/core/gaussian_process.hpp"
#include "ccpred/core/kernel_ridge.hpp"
#include "ccpred/core/kernels.hpp"
#include "oracle/oracle.hpp"
#include "test_util.hpp"

namespace ccpred::ml {
namespace {

constexpr double kRelTol = 1e-9;

void expect_close_rel(const std::vector<double>& a,
                      const std::vector<double>& b, double rel,
                      const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double scale = std::max({std::abs(a[i]), std::abs(b[i]), 1e-12});
    EXPECT_LT(std::abs(a[i] - b[i]) / scale, rel)
        << what << " diverged at index " << i << ": " << a[i] << " vs "
        << b[i];
  }
}

// ---------- distance helpers ----------

TEST(SquaredDistancesTest, MatchesKernelGram) {
  Rng rng(31);
  linalg::Matrix x(130, 4);  // spans the mirror-pairing boundary
  for (std::size_t i = 0; i < x.rows(); ++i) {
    for (std::size_t c = 0; c < x.cols(); ++c) x(i, c) = rng.uniform(-2, 2);
  }
  Kernel rbf;
  rbf.type = KernelType::kRbf;
  rbf.gamma = 0.7;
  const linalg::Matrix d2 = squared_distances(x);
  const linalg::Matrix k = rbf_from_squared_distances(d2, rbf.gamma);
  const linalg::Matrix k_ref = rbf.gram_symmetric(x);
  // The squared distances share the kernel's summation order bit-for-bit;
  // the exp map may run the vectorized polynomial exp (max relative error
  // ~3e-16 vs libm), so the Gram comparison carries a tolerance far below
  // the engine-wide 1e-9. RBF entries are in (0, 1], so absolute error
  // bounds relative error here.
  EXPECT_LT(k.max_abs_diff(k_ref), 1e-14);
  const linalg::Matrix k_sym = rbf_from_squared_distances_symmetric(d2, rbf.gamma);
  EXPECT_LT(k_sym.max_abs_diff(k_ref), 1e-14);
  // The two map variants run the same exp on the same distances.
  EXPECT_DOUBLE_EQ(k.max_abs_diff(k_sym), 0.0);
}

TEST(SquaredDistancesTest, RectangularMatchesSymmetric) {
  Rng rng(32);
  linalg::Matrix x(20, 3);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    for (std::size_t c = 0; c < x.cols(); ++c) x(i, c) = rng.uniform(-1, 1);
  }
  const linalg::Matrix sym = squared_distances(x);
  const linalg::Matrix rect = squared_distances(x, x);
  EXPECT_DOUBLE_EQ(sym.max_abs_diff(rect), 0.0);
}

// ---------- GP vs the oracle's ReferenceGp ----------

class GpEngineTest : public ::testing::Test {
 protected:
  void SetUp() override { tt_ = test::small_campaign(350); }
  std::optional<data::TrainTest> tt_;
};

TEST_F(GpEngineTest, FastMatchesReferenceWithOptimization) {
  // The Fig. 3 US configuration: optimized hyper-parameters, log target.
  GaussianProcessRegression fast(0.5, 1e-4, true, true);
  oracle::ReferenceGp ref(0.5, 1e-4, true, true);
  fast.fit(tt_->train.features(), tt_->train.targets());
  ref.fit(tt_->train.features(), tt_->train.targets());

  const auto x_test = tt_->test.features();
  expect_close_rel(fast.predict(x_test), ref.predict(x_test), kRelTol,
                   "predict");

  std::vector<double> mean_f, std_f, mean_r, std_r;
  fast.predict_with_std(x_test, mean_f, std_f);
  ref.predict_with_std(x_test, mean_r, std_r);
  expect_close_rel(mean_f, mean_r, kRelTol, "predict_with_std mean");
  // Variances subtract near-equal quantities; compare on the mean's scale.
  ASSERT_EQ(std_f.size(), std_r.size());
  for (std::size_t i = 0; i < std_f.size(); ++i) {
    const double scale = std::max(std::abs(mean_f[i]), 1e-12);
    EXPECT_LT(std::abs(std_f[i] - std_r[i]) / scale, kRelTol)
        << "std diverged at " << i;
  }
}

TEST_F(GpEngineTest, FastMatchesReferenceFixedHyperparams) {
  GaussianProcessRegression fast(0.8, 1e-3, false);
  oracle::ReferenceGp ref(0.8, 1e-3, false);
  fast.fit(tt_->train.features(), tt_->train.targets());
  ref.fit(tt_->train.features(), tt_->train.targets());
  expect_close_rel(fast.predict(tt_->test.features()),
                   ref.predict(tt_->test.features()), kRelTol, "predict");
}

// ---------- GP incremental update ----------

TEST(GpUpdateTest, InterpolatesOldAndNewPointsAfterUpdate) {
  // With near-zero noise a GP interpolates its training data; a broken
  // factor extension or stale alpha would destroy this immediately.
  const auto s = test::make_nonlinear(120, 0.0, 7);
  linalg::Matrix x0(80, s.x.cols()), x1(40, s.x.cols());
  std::vector<double> y0(80), y1(40);
  for (std::size_t i = 0; i < 120; ++i) {
    auto& dst_x = i < 80 ? x0 : x1;
    auto& dst_y = i < 80 ? y0 : y1;
    const std::size_t r = i < 80 ? i : i - 80;
    for (std::size_t c = 0; c < s.x.cols(); ++c) dst_x(r, c) = s.x(i, c);
    dst_y[r] = s.y[i];
  }
  GaussianProcessRegression gp(1.0, 1e-8, false);
  gp.fit(x0, y0);
  gp.update(x1, y1);
  const auto pred0 = gp.predict(x0);
  const auto pred1 = gp.predict(x1);
  for (std::size_t i = 0; i < y0.size(); ++i)
    EXPECT_NEAR(pred0[i], y0[i], 1e-4);
  for (std::size_t i = 0; i < y1.size(); ++i)
    EXPECT_NEAR(pred1[i], y1[i], 1e-4);
}

TEST(GpUpdateTest, UpdateBeforeFitThrows) {
  GaussianProcessRegression gp(0.5, 1e-4, false);
  EXPECT_THROW(gp.update(linalg::Matrix(1, 2), {1.0}), Error);
}

// ---------- GP incremental update edge cases ----------

linalg::Matrix tile_rows(const linalg::Matrix& x, int times) {
  linalg::Matrix out(x.rows() * static_cast<std::size_t>(times), x.cols());
  for (int t = 0; t < times; ++t) {
    for (std::size_t i = 0; i < x.rows(); ++i) {
      for (std::size_t c = 0; c < x.cols(); ++c) {
        out(static_cast<std::size_t>(t) * x.rows() + i, c) = x(i, c);
      }
    }
  }
  return out;
}

std::vector<double> tile_vec(const std::vector<double>& y, int times) {
  std::vector<double> out;
  out.reserve(y.size() * static_cast<std::size_t>(times));
  for (int t = 0; t < times; ++t) out.insert(out.end(), y.begin(), y.end());
  return out;
}

TEST(GpUpdateEdgeCases, ChainedDuplicateUpdatesMatchFullRefit) {
  // The feature/target scalers divide by the POPULATION std, so
  // replicating the whole training set changes neither mean nor std: the
  // incremental path's frozen scalers equal a fresh fit's, and
  // fit(A); update(A); update(A) must agree with fit(A+A+A) to solver
  // precision. This exercises duplicate training points (K is kept
  // positive definite by the white noise alone) and update-after-update
  // chains against the from-scratch factorization.
  const auto s = test::make_nonlinear(60, 0.05, 21);
  const auto probe = test::make_nonlinear(25, 0.0, 22);

  GaussianProcessRegression inc(1.0, 1e-4, false);
  inc.fit(s.x, s.y);
  inc.update(s.x, s.y);
  inc.update(s.x, s.y);

  GaussianProcessRegression full(1.0, 1e-4, false);
  full.fit(tile_rows(s.x, 3), tile_vec(s.y, 3));

  expect_close_rel(inc.predict(probe.x), full.predict(probe.x), kRelTol,
                   "chained duplicate updates vs full refit");
  std::vector<double> mean_i, std_i, mean_f, std_f;
  inc.predict_with_std(probe.x, mean_i, std_i);
  full.predict_with_std(probe.x, mean_f, std_f);
  expect_close_rel(mean_i, mean_f, kRelTol, "mean after duplicate chain");
  ASSERT_EQ(std_i.size(), std_f.size());
  for (std::size_t i = 0; i < std_i.size(); ++i) {
    const double scale = std::max(std::abs(mean_i[i]), 1e-12);
    EXPECT_LT(std::abs(std_i[i] - std_f[i]) / scale, kRelTol)
        << "std diverged at " << i;
  }
}

TEST(GpUpdateEdgeCases, ManySmallUpdatesMatchOneBigUpdate) {
  // Both sides share the same frozen scalers (fit on the same base), so
  // absorbing 40 rows as 8 batches of 5 must equal absorbing them at once.
  const auto base = test::make_nonlinear(80, 0.05, 23);
  const auto extra = test::make_nonlinear(40, 0.05, 24);
  const auto probe = test::make_nonlinear(20, 0.0, 25);

  GaussianProcessRegression chained(1.0, 1e-4, false);
  GaussianProcessRegression big(1.0, 1e-4, false);
  chained.fit(base.x, base.y);
  big.fit(base.x, base.y);

  for (std::size_t start = 0; start < 40; start += 5) {
    linalg::Matrix xb(5, extra.x.cols());
    std::vector<double> yb(5);
    for (std::size_t i = 0; i < 5; ++i) {
      for (std::size_t c = 0; c < extra.x.cols(); ++c) {
        xb(i, c) = extra.x(start + i, c);
      }
      yb[i] = extra.y[start + i];
    }
    chained.update(xb, yb);
  }
  big.update(extra.x, extra.y);

  expect_close_rel(chained.predict(probe.x), big.predict(probe.x), kRelTol,
                   "8x5 chained updates vs one 40-row update");
}

TEST(GpUpdateEdgeCases, ZeroVarianceBatchStaysFinite) {
  // A batch of identical rows with one repeated target: zero variance in
  // both features and target. The frozen scalers make the transform safe
  // (no division by a batch std) and the noise keeps the extended factor
  // positive definite.
  const auto s = test::make_nonlinear(80, 0.05, 26);
  GaussianProcessRegression gp(1.0, 1e-4, false);
  gp.fit(s.x, s.y);

  linalg::Matrix xb(12, s.x.cols());
  for (std::size_t i = 0; i < xb.rows(); ++i) {
    for (std::size_t c = 0; c < xb.cols(); ++c) xb(i, c) = s.x(0, c);
  }
  const std::vector<double> yb(12, 3.25);
  gp.update(xb, yb);

  const auto pred = gp.predict(s.x);
  for (const double p : pred) EXPECT_TRUE(std::isfinite(p));
  std::vector<double> mean, std;
  gp.predict_with_std(s.x, mean, std);
  for (const double v : std) EXPECT_TRUE(std::isfinite(v));

  // Twelve repeated low-noise observations dominate the posterior there.
  std::vector<double> row0(s.x.cols());
  for (std::size_t c = 0; c < s.x.cols(); ++c) row0[c] = s.x(0, c);
  EXPECT_GT(gp.predict_one(row0), 2.0);
}

// ---------- KRR refits ----------

TEST(KernelRidgeCacheTest, RefitOnSameDataMatchesFreshFit) {
  const auto s = test::make_nonlinear(150, 0.05, 9);
  const auto probe = test::make_nonlinear(40, 0.0, 10);

  // Grid-search usage: set_params + fit over and over on the same rows.
  KernelRidgeRegression warm;
  warm.fit(s.x, s.y);
  warm.set_params({{"alpha", 0.01}, {"gamma", 0.3}});
  warm.fit(s.x, s.y);

  Kernel k;
  k.type = KernelType::kRbf;
  k.gamma = 0.3;
  KernelRidgeRegression fresh(k, 0.01);
  fresh.fit(s.x, s.y);

  expect_close_rel(warm.predict(probe.x), fresh.predict(probe.x), 1e-12,
                   "KRR refit");
}

TEST(KernelRidgeCacheTest, RefitOnDifferentDataInvalidatesCache) {
  const auto a = test::make_nonlinear(100, 0.05, 11);
  const auto b = test::make_nonlinear(120, 0.05, 12);
  const auto probe = test::make_nonlinear(30, 0.0, 13);
  KernelRidgeRegression warm;
  warm.fit(a.x, a.y);
  warm.fit(b.x, b.y);  // different rows: nothing of the first fit leaks
  KernelRidgeRegression fresh;
  fresh.fit(b.x, b.y);
  expect_close_rel(warm.predict(probe.x), fresh.predict(probe.x), 1e-12,
                   "KRR refit on new data");
}

}  // namespace
}  // namespace ccpred::ml
