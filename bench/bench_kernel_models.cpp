/// Kernel-model engine bench: the fast GP path (cached squared distances,
/// blocked Cholesky, batched variances) against the test oracle's
/// ReferenceGp (the original scalar per-candidate / per-row computation),
/// on the paper's Aurora campaign.
///
/// Two timed engine sections, the two halves of an active-learning round:
///   - GP fit with the (gamma, noise) grid search (Fig. 3 hyper-parameter
///     optimization), fast vs reference
///   - pool-sized batch predict_with_std, fast vs reference
///
/// Gates (exit nonzero on failure):
///   - GP grid fit: fast >= 3x faster than reference
///   - batch predict_with_std: fast >= 4x faster than reference
///   - fast and reference predictions agree to 1e-9 relative
///   - RBF exp map: AVX2 table >= 2x the scalar table, <= 1e-12 relative
///   - squared-distance build: AVX2 table >= 2x the scalar table,
///     bit-identical (the two SIMD gates apply only on AVX2+FMA hosts)
///
/// Emits the measurements to BENCH_kernel_engine.json.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "ccpred/data/generator.hpp"
#include "ccpred/common/stopwatch.hpp"
#include "ccpred/common/table.hpp"
#include "ccpred/common/thread_pool.hpp"
#include "ccpred/core/gaussian_process.hpp"
#include "ccpred/simd/simd.hpp"
#include "oracle/oracle.hpp"

namespace {

/// Best-of-`reps` wall time for one call of `fn`.
template <typename Fn>
double best_time_s(int reps, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    ccpred::Stopwatch watch;
    fn();
    best = std::min(best, watch.elapsed_s());
  }
  return best;
}

double max_rel_diff(const std::vector<double>& a,
                    const std::vector<double>& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double scale = std::max({std::abs(a[i]), std::abs(b[i]), 1e-12});
    worst = std::max(worst, std::abs(a[i] - b[i]) / scale);
  }
  return worst;
}

}  // namespace

int main() {
  using namespace ccpred;

  const bool fast_mode = bench::fast_mode();
  const auto data = bench::load_paper_data("aurora");
  const std::size_t threads = ThreadPool::global().size();

  // The fit/predict sections use a fixed-size campaign in both modes: the
  // engine's algorithmic advantage is an asymptotic property, so shrinking
  // the matrices would just measure fixed overheads. ~1s of reference
  // factorization is still smoke-sized.
  data::GeneratorOptions gen_opt;
  gen_opt.seed = 2025;
  gen_opt.target_total = 1800;
  const auto campaign = data::generate_dataset(
      data.simulator, data::problems_for(data.simulator.machine().name),
      gen_opt);
  const std::size_t n_fit = std::min<std::size_t>(1100, campaign.size());
  std::vector<std::size_t> fit_rows(n_fit);
  std::iota(fit_rows.begin(), fit_rows.end(), std::size_t{0});
  const auto fit_set = campaign.select(fit_rows);
  const linalg::Matrix x_fit = fit_set.features();
  const std::vector<double> y_fit = fit_set.targets();

  // Query batch: the whole campaign, the advisor's sweep shape.
  const linalg::Matrix x_pool = campaign.features();

  std::printf(
      "== Kernel-model engine (aurora campaign, n_fit=%zu, pool=%zu, "
      "%zu threads%s) ==\n\n",
      n_fit, x_pool.rows(), threads, fast_mode ? ", fast mode" : "");

  // ---- GP fit with the (gamma, noise) grid (Fig. 3 US model) ----
  ml::GaussianProcessRegression gp_fast(0.5, 1e-4, true, true);
  oracle::ReferenceGp gp_ref(0.5, 1e-4, true, true);

  const int fit_reps = fast_mode ? 1 : 2;
  const double fit_fast_s =
      best_time_s(fit_reps, [&] { gp_fast.fit(x_fit, y_fit); });
  const double fit_ref_s =
      best_time_s(fit_reps, [&] { gp_ref.fit(x_fit, y_fit); });
  const double fit_speedup = fit_ref_s / fit_fast_s;

  // ---- pool-sized batch predict_with_std ----
  const int predict_reps = fast_mode ? 5 : 3;
  std::vector<double> mean_fast, std_fast, mean_ref, std_ref;
  const double predict_fast_s = best_time_s(
      predict_reps, [&] { gp_fast.predict_with_std(x_pool, mean_fast, std_fast); });
  const double predict_ref_s = best_time_s(
      predict_reps, [&] { gp_ref.predict_with_std(x_pool, mean_ref, std_ref); });
  const double predict_speedup = predict_ref_s / predict_fast_s;

  const double mean_rel = max_rel_diff(mean_fast, mean_ref);
  double std_rel = 0.0;  // variances on the mean's scale (cancellation)
  for (std::size_t i = 0; i < std_fast.size(); ++i) {
    const double scale = std::max(std::abs(mean_fast[i]), 1e-12);
    std_rel = std::max(std_rel, std::abs(std_fast[i] - std_ref[i]) / scale);
  }

  // ---- dispatched numeric kernels: scalar vs AVX2 tables ----
  // The two kernels behind the fast GP path, timed table-vs-table on the
  // fit set's geometry: the full n x n squared-distance build (feature-
  // major block, row sweep) and the RBF exp map over the resulting
  // distances. sqdist keeps multiply/add separate in both tables and must
  // be bit-identical; the AVX2 exp map is a Cephes-style polynomial
  // (~3e-16 vs libm), gated far below the engine-wide 1e-9.
  const std::size_t kn = x_fit.rows();
  const std::size_t kd = x_fit.cols();
  std::vector<double> xt(kd * kn);
  for (std::size_t r = 0; r < kn; ++r) {
    for (std::size_t k = 0; k < kd; ++k) xt[k * kn + r] = x_fit(r, k);
  }
  std::vector<double> d2_scalar(kn * kn), d2_avx2(kn * kn);
  const auto run_sqdist = [&](simd::Mode mode, double* out) {
    const auto& t = simd::ops_for(mode);
    for (std::size_t i = 0; i < kn; ++i) {
      t.sqdist_row(xt.data(), kn, kd, x_fit.row_ptr(i), 0, kn, out + i * kn);
    }
  };
  const int kernel_reps = fast_mode ? 3 : 5;
  const double sqdist_scalar_s = best_time_s(
      kernel_reps, [&] { run_sqdist(simd::Mode::kScalar, d2_scalar.data()); });
  const double sqdist_avx2_s = best_time_s(
      kernel_reps, [&] { run_sqdist(simd::Mode::kAvx2, d2_avx2.data()); });
  const double sqdist_speedup = sqdist_scalar_s / sqdist_avx2_s;
  const bool sqdist_identical =
      std::memcmp(d2_scalar.data(), d2_avx2.data(),
                  d2_scalar.size() * sizeof(double)) == 0;

  std::vector<double> exp_scalar(kn * kn), exp_avx2(kn * kn);
  // Bandwidth matched to the data (1/mean distance) so the mapped values
  // span (0, 1] the way a fitted kernel's do, instead of mostly
  // underflowing to zero and flattering the polynomial path.
  double mean_d2 = 0.0;
  for (double v : d2_scalar) mean_d2 += v;
  mean_d2 /= static_cast<double>(d2_scalar.size());
  const double gamma = 1.0 / std::max(mean_d2, 1e-12);
  const double exp_scalar_s = best_time_s(kernel_reps, [&] {
    simd::ops_for(simd::Mode::kScalar)
        .rbf_exp_map(d2_scalar.data(), exp_scalar.data(), kn * kn, gamma);
  });
  const double exp_avx2_s = best_time_s(kernel_reps, [&] {
    simd::ops_for(simd::Mode::kAvx2)
        .rbf_exp_map(d2_scalar.data(), exp_avx2.data(), kn * kn, gamma);
  });
  const double exp_speedup = exp_scalar_s / exp_avx2_s;
  const double exp_rel = max_rel_diff(exp_scalar, exp_avx2);
  const bool simd_gated = simd::avx2_available();

  TextTable table({"section", "path", "seconds", "speedup"},
                  "Kernel-model engine vs reference");
  table.add_row({"GP grid fit", "reference", TextTable::cell(fit_ref_s, 3),
                 "1.0x"});
  table.add_row({"GP grid fit", "fast", TextTable::cell(fit_fast_s, 3),
                 TextTable::cell(fit_speedup, 1) + "x"});
  table.add_row({"predict_with_std", "reference",
                 TextTable::cell(predict_ref_s, 4), "1.0x"});
  table.add_row({"predict_with_std", "fast",
                 TextTable::cell(predict_fast_s, 4),
                 TextTable::cell(predict_speedup, 1) + "x"});
  table.add_row({"sqdist build", "scalar", TextTable::cell(sqdist_scalar_s, 4),
                 "1.0x"});
  table.add_row({"sqdist build", "avx2", TextTable::cell(sqdist_avx2_s, 4),
                 TextTable::cell(sqdist_speedup, 1) + "x"});
  table.add_row({"RBF exp map", "scalar", TextTable::cell(exp_scalar_s, 4),
                 "1.0x"});
  table.add_row({"RBF exp map", "avx2", TextTable::cell(exp_avx2_s, 4),
                 TextTable::cell(exp_speedup, 1) + "x"});
  table.print();

  const bool agree_ok = mean_rel <= 1e-9 && std_rel <= 1e-9;
  const bool fit_ok = fit_speedup >= 3.0;
  const bool predict_ok = predict_speedup >= 4.0;
  const bool sqdist_ok =
      !simd_gated || (sqdist_speedup >= 2.0 && sqdist_identical);
  const bool exp_ok = !simd_gated || (exp_speedup >= 2.0 && exp_rel <= 1e-12);
  std::printf(
      "\nfast vs reference agreement: mean %.2e, std %.2e (target <= 1e-9): "
      "%s\n"
      "GP grid-fit speedup %.1fx (target >= 3x): %s\n"
      "batch predict_with_std speedup %.1fx (target >= 4x): %s\n"
      "sqdist avx2 vs scalar %.1fx, identical %s (target >= 2x): %s\n"
      "RBF exp map avx2 vs scalar %.1fx, rel %.2e (target >= 2x, <= 1e-12): "
      "%s\n",
      mean_rel, std_rel, agree_ok ? "PASS" : "FAIL", fit_speedup,
      fit_ok ? "PASS" : "FAIL", predict_speedup, predict_ok ? "PASS" : "FAIL",
      sqdist_speedup, sqdist_identical ? "yes" : "NO",
      simd_gated ? (sqdist_ok ? "PASS" : "FAIL") : "not gated (no AVX2)",
      exp_speedup, exp_rel,
      simd_gated ? (exp_ok ? "PASS" : "FAIL") : "not gated (no AVX2)");

  const bool pass =
      agree_ok && fit_ok && predict_ok && sqdist_ok && exp_ok;
  std::FILE* json = std::fopen("BENCH_kernel_engine.json", "w");
  if (json != nullptr) {
    std::fprintf(
        json,
        "{\n"
        "  \"machine\": \"aurora\",\n"
        "  \"fast_mode\": %s,\n"
        "  \"threads\": %zu,\n"
        "  \"fit\": {\"n\": %zu, \"reference_s\": %.6f, \"fast_s\": %.6f, "
        "\"speedup\": %.3f},\n"
        "  \"predict_with_std\": {\"batch\": %zu, \"reference_s\": %.6f, "
        "\"fast_s\": %.6f, \"speedup\": %.3f, \"mean_rel_diff\": %.3e, "
        "\"std_rel_diff\": %.3e},\n"
        "  \"simd_kernels\": {\"n\": %zu, "
        "\"sqdist_scalar_s\": %.6f, \"sqdist_avx2_s\": %.6f, "
        "\"sqdist_speedup\": %.3f, \"sqdist_identical\": %s, "
        "\"exp_scalar_s\": %.6f, \"exp_avx2_s\": %.6f, "
        "\"exp_speedup\": %.3f, \"exp_rel_diff\": %.3e, \"gated\": %s},\n"
        "  \"provenance\": %s,\n"
        "  \"pass\": %s\n"
        "}\n",
        fast_mode ? "true" : "false", threads, n_fit, fit_ref_s, fit_fast_s,
        fit_speedup, x_pool.rows(), predict_ref_s, predict_fast_s,
        predict_speedup, mean_rel, std_rel, kn, sqdist_scalar_s,
        sqdist_avx2_s, sqdist_speedup, sqdist_identical ? "true" : "false",
        exp_scalar_s, exp_avx2_s, exp_speedup, exp_rel,
        simd_gated ? "true" : "false", bench::provenance_json().c_str(),
        pass ? "true" : "false");
    std::fclose(json);
    std::printf("\nwrote BENCH_kernel_engine.json\n");
  }

  return pass ? 0 : 1;
}
