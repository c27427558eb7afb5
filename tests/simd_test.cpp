/// Contracts of the runtime-dispatched SIMD kernel tables (simd.hpp).
///
/// Each of the four kernel families is exercised across ragged and
/// boundary sizes — below, at and above the vector width — comparing the
/// scalar and AVX2 tables directly via ops_for(). The family documented
/// bit-identical (sqdist_row) is compared with memcmp; the transcendental
/// and FMA-fused families against their documented tolerances. The
/// cache-line alignment of the hot containers (linalg::Matrix,
/// AlignedVector) is pinned along with serialization stability over the
/// aligned storage.
///
/// On hosts without AVX2+FMA, ops_for(kAvx2) is the scalar table, so the
/// cross-mode comparisons degrade to tautologies rather than failures.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>
#include <vector>

#include "ccpred/common/aligned.hpp"
#include "ccpred/core/gradient_boosting.hpp"
#include "ccpred/core/serialize.hpp"
#include "ccpred/linalg/matrix.hpp"
#include "ccpred/simd/simd.hpp"

namespace {

using namespace ccpred;
using simd::Mode;

/// Ragged sizes around the 4-lane vector width and unroll boundaries.
const std::vector<std::size_t> kRaggedSizes = {0,  1,  2,  3,  4,  5,  7, 8,
                                               9,  15, 16, 17, 31, 32, 33,
                                               63, 64, 65, 100, 257};

std::mt19937_64 seeded_rng(std::uint64_t salt) {
  return std::mt19937_64(0x5eed2026ull ^ salt);
}

std::vector<double> random_doubles(std::size_t n, std::uint64_t salt,
                                   double lo = -10.0, double hi = 10.0) {
  auto rng = seeded_rng(salt);
  std::uniform_real_distribution<double> dist(lo, hi);
  std::vector<double> v(n);
  for (auto& x : v) x = dist(rng);
  return v;
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

}  // namespace

TEST(SimdDispatch, ModeReportingIsConsistent) {
  const Mode active = simd::active_mode();
  EXPECT_TRUE(active == Mode::kScalar || active == Mode::kAvx2);
  EXPECT_STREQ(simd::mode_name(Mode::kScalar), "scalar");
  EXPECT_STREQ(simd::mode_name(Mode::kAvx2), "avx2");
  // ops() is the table active_mode() names.
  EXPECT_EQ(&simd::ops(), &simd::ops_for(active));
  if (!simd::avx2_available()) {
    // Without AVX2+FMA the avx2 table degrades to the scalar one and the
    // active mode can only be scalar.
    EXPECT_EQ(active, Mode::kScalar);
    EXPECT_EQ(&simd::ops_for(Mode::kAvx2), &simd::ops_for(Mode::kScalar));
  }
}

TEST(SimdDispatch, SetModeForTestingSwapsActiveTable) {
  const Mode before = simd::active_mode();
  simd::set_mode_for_testing(Mode::kScalar);
  EXPECT_EQ(simd::active_mode(), Mode::kScalar);
  EXPECT_EQ(&simd::ops(), &simd::ops_for(Mode::kScalar));
  simd::set_mode_for_testing(before);
  EXPECT_EQ(simd::active_mode(), before);
}

TEST(SimdKernels, RbfExpMapAgreesAcrossModesAndWithLibm) {
  const auto& sc = simd::ops_for(Mode::kScalar);
  const auto& vx = simd::ops_for(Mode::kAvx2);
  const double gamma = 0.37;
  for (const std::size_t n : kRaggedSizes) {
    auto dist2 = random_doubles(n, 101 + n, 0.0, 60.0);
    // Salt in the regimes that stress a polynomial exp: exact zero,
    // denormal-producing magnitudes, and full underflow.
    if (n > 0) dist2[0] = 0.0;
    if (n > 2) dist2[2] = 1e4;    // exp underflows to +0
    if (n > 4) dist2[4] = 1905.0; // result lands near the denormal range
    std::vector<double> out_s(n, -1.0), out_v(n, -2.0);
    sc.rbf_exp_map(dist2.data(), out_s.data(), n, gamma);
    vx.rbf_exp_map(dist2.data(), out_v.data(), n, gamma);
    for (std::size_t i = 0; i < n; ++i) {
      // The scalar table replicates the shipped std::exp path exactly.
      EXPECT_EQ(out_s[i], std::exp(-gamma * dist2[i])) << "n=" << n;
      const double ref = out_s[i];
      const double tol = 1e-12 * std::max(std::abs(ref), 1e-300);
      EXPECT_NEAR(out_v[i], ref, tol) << "n=" << n << " i=" << i;
    }
  }
}

TEST(SimdKernels, SqdistRowBitIdenticalAcrossModes) {
  const auto& sc = simd::ops_for(Mode::kScalar);
  const auto& vx = simd::ops_for(Mode::kAvx2);
  for (const std::size_t d : {1u, 2u, 3u, 4u, 5u, 8u}) {
    for (const std::size_t n : {1u, 2u, 3u, 5u, 8u, 9u, 17u, 33u}) {
      const auto xt = random_doubles(d * n, 202 + d * 100 + n);
      const auto row = random_doubles(d, 203 + d);
      // Sub-ranges exercise unaligned starts and empty spans.
      const std::size_t ranges[][2] = {
          {0, n}, {1, n}, {0, n - 1}, {n / 2, n / 2}, {n / 3, (2 * n) / 3}};
      for (const auto& jr : ranges) {
        const std::size_t j0 = std::min(jr[0], n), j1 = std::min(jr[1], n);
        if (j0 > j1) continue;
        std::vector<double> out_s(n, -1.0), out_v(n, -1.0);
        sc.sqdist_row(xt.data(), n, d, row.data(), j0, j1, out_s.data());
        vx.sqdist_row(xt.data(), n, d, row.data(), j0, j1, out_v.data());
        EXPECT_TRUE(bitwise_equal(out_s, out_v))
            << "d=" << d << " n=" << n << " j0=" << j0 << " j1=" << j1;
      }
    }
  }
}

TEST(SimdKernels, CholeskyUpdatesWithinReferenceTolerance) {
  const auto& sc = simd::ops_for(Mode::kScalar);
  const auto& vx = simd::ops_for(Mode::kAvx2);
  for (const std::size_t len : kRaggedSizes) {
    const auto a = random_doubles(4, 808, -2.0, 2.0);
    const auto b = random_doubles(4, 809, -2.0, 2.0);
    const auto y0 = random_doubles(len, 810 + len);
    const auto y1 = random_doubles(len, 811 + len);
    const auto y2 = random_doubles(len, 812 + len);
    const auto y3 = random_doubles(len, 813 + len);
    const auto base_a = random_doubles(len, 814 + len);
    const auto base_b = random_doubles(len, 815 + len);

    auto ya_s = base_a, yb_s = base_b, ya_v = base_a, yb_v = base_b;
    sc.update2x4(ya_s.data(), yb_s.data(), a.data(), b.data(), y0.data(),
                 y1.data(), y2.data(), y3.data(), len);
    vx.update2x4(ya_v.data(), yb_v.data(), a.data(), b.data(), y0.data(),
                 y1.data(), y2.data(), y3.data(), len);
    auto yr_s = base_a, yr_v = base_a;
    sc.update1x4(yr_s.data(), a.data(), y0.data(), y1.data(), y2.data(),
                 y3.data(), len);
    vx.update1x4(yr_v.data(), a.data(), y0.data(), y1.data(), y2.data(),
                 y3.data(), len);
    for (std::size_t i = 0; i < len; ++i) {
      EXPECT_NEAR(ya_v[i], ya_s[i], 1e-9) << "len=" << len;
      EXPECT_NEAR(yb_v[i], yb_s[i], 1e-9) << "len=" << len;
      EXPECT_NEAR(yr_v[i], yr_s[i], 1e-9) << "len=" << len;
    }
  }
}

TEST(AlignedStorage, MatrixDataIsCacheLineAligned) {
  const auto aligned = [](const double* p) {
    return reinterpret_cast<std::uintptr_t>(p) % kCacheLineAlign == 0;
  };
  linalg::Matrix m(5, 7, 1.5);
  EXPECT_TRUE(aligned(m.data()));

  // Growth through append_rows (including a reallocation) stays aligned.
  linalg::Matrix grown(1, 7, 0.0);
  for (int i = 0; i < 50; ++i) grown.append_rows(m);
  EXPECT_TRUE(aligned(grown.data()));
  EXPECT_EQ(grown.rows(), 1u + 50u * 5u);

  // Moves and copies land on aligned storage as well.
  linalg::Matrix moved(std::move(grown));
  EXPECT_TRUE(aligned(moved.data()));
  linalg::Matrix copied = moved;
  EXPECT_TRUE(aligned(copied.data()));
  EXPECT_TRUE(aligned(linalg::Matrix::identity(9).data()));
}

TEST(AlignedStorage, AlignedVectorStaysAlignedAcrossGrowth) {
  // The allocator behind Matrix: every allocation it hands out is 64-byte
  // aligned, across reallocations.
  AlignedVector<double> v;
  for (int i = 0; i < 1000; ++i) {
    v.push_back(static_cast<double>(i));
    ASSERT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % kCacheLineAlign,
              0u);
  }
  // A 16-byte record, wider than its own alignment.
  struct Node16 {
    double threshold;
    std::int32_t feature;
    std::int32_t left;
  };
  AlignedVector<Node16> nodes(37);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(nodes.data()) % kCacheLineAlign,
            0u);
}

TEST(AlignedStorage, SerializationBytesUnchangedByAlignedStorage) {
  // Regression for the aligned-allocator change: serialization reads only
  // values, so bytes must be stable through a round trip and the restored
  // model must predict bit-identically.
  const std::size_t n = 200, d = 4;
  linalg::Matrix x(n, d);
  auto rng = seeded_rng(1010);
  std::uniform_real_distribution<double> dist(0.0, 1.0);
  std::vector<double> y(n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < d; ++c) x(r, c) = dist(rng);
    y[r] = x(r, 0) * 3.0 - x(r, 3) + dist(rng);
  }
  ml::TreeOptions opt;
  opt.max_depth = 5;
  ml::GradientBoostingRegressor gb(15, 0.1, opt);
  gb.fit(x, y);

  const std::string text = ml::serialize_gb(gb);
  const auto restored = ml::deserialize_gb(text);
  EXPECT_EQ(ml::serialize_gb(restored), text);
  EXPECT_TRUE(bitwise_equal(gb.predict(x), restored.predict(x)));
}
