/// Tree-ensemble engine bench: the library's exact (presorted) training vs
/// the exact reference, and compiled SoA batch inference vs the per-row
/// tree walk (the oracle's gb_walk and forest_walk over its own trees).
///
/// The exact reference is the oracle's per-node-sort builder
/// (oracle::exact_gb / exact_rf). Trains GB and RF on the paper's Aurora
/// campaign both ways, asserting the presorted fit serializes identically
/// to the oracle's, and times a sweep-shaped batch prediction of those
/// presorted models (the models the daemon serves) through both inference
/// paths, asserting the compiled path is bit-identical to the walk. Emits
/// the measurements to BENCH_tree_engine.json next to the binary's working
/// directory. Set CCPRED_BENCH_FAST=1 (environment variable) for a reduced
/// workload.
///
/// Gates (exit nonzero on failure):
///   - GB and RF fit: presorted exact >= 3x faster than the exact
///     reference, with byte-identical serialized models (the fit calls no
///     SIMD kernel, so both dispatch modes read alike)
///   - batch predict: compiled >= 5x faster than walk, bit-identical

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "ccpred/common/stopwatch.hpp"
#include "ccpred/common/table.hpp"
#include "ccpred/common/thread_pool.hpp"
#include "ccpred/core/gradient_boosting.hpp"
#include "ccpred/core/random_forest.hpp"
#include "ccpred/core/serialize.hpp"
#include "oracle/oracle.hpp"

namespace {

/// Best-of-`reps` wall time for one call of `fn` (first call may include
/// cold caches; the minimum is the stable figure).
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

}  // namespace

int main() {
  using namespace ccpred;

  const bool fast = bench::fast_mode();
  // Full campaign rows even in fast mode: the presort-vs-oracle fit ratio
  // is not scale-free in n, and its committed baseline was measured at
  // full rows. Fast mode keeps its reduced stage counts instead.
  const auto data = bench::load_paper_data("aurora", 2025, /*full_rows=*/true);
  const linalg::Matrix x = data.full.features();
  const std::vector<double>& y = data.full.targets();
  const std::size_t n = x.rows();
  const std::size_t threads = ThreadPool::global().size();

  const int gb_stages = fast ? 60 : 200;
  const int rf_trees = fast ? 40 : 100;
  ml::TreeOptions exact_opt;
  exact_opt.max_depth = 10;

  std::printf("== Tree-ensemble engine (aurora campaign, n=%zu, %zu threads%s) ==\n\n",
              n, threads, fast ? ", fast mode" : "");

  // ---- training: exact reference vs presorted exact ----
  // Fits take best-of-2: one timer outlier (or a cold first call) should
  // not fail the run. The forest oracle call repeats the library class's
  // default seed (42) and bootstrap (on).
  const int fit_reps = 2;
  std::optional<oracle::ExactGb> gb_oracle;
  const double gb_oracle_s = best_time_s(fit_reps, [&] {
    gb_oracle = oracle::exact_gb(x, y, gb_stages, 0.1, exact_opt);
  });
  ml::GradientBoostingRegressor gb_exact(gb_stages, 0.1, exact_opt);
  const double gb_presort_s =
      best_time_s(fit_reps, [&] { gb_exact.fit(x, y); });
  const double gb_presort_speedup = gb_oracle_s / gb_presort_s;
  const bool gb_identical =
      ml::serialize_gb(gb_exact) == ml::serialize_gb(gb_oracle->model());

  std::optional<oracle::ExactRf> rf_oracle;
  const double rf_oracle_s = best_time_s(fit_reps, [&] {
    rf_oracle = oracle::exact_rf(x, y, rf_trees, exact_opt, true, 42);
  });
  ml::RandomForestRegressor rf_exact(rf_trees, exact_opt);
  const double rf_presort_s =
      best_time_s(fit_reps, [&] { rf_exact.fit(x, y); });
  const double rf_presort_speedup = rf_oracle_s / rf_presort_s;
  const bool rf_identical =
      ml::serialize_rf(rf_exact) == ml::serialize_rf(rf_oracle->model());

  // ---- inference: compiled SoA batch vs per-row tree walk ----
  // A sweep-shaped query batch: every campaign row is a (O, V, nodes, tile)
  // point, just like the advisor's enumerate-and-predict sweep. The walks
  // run over the oracle's trees, which serialize identically to the
  // library's (checked above) and never enter a compiled store.
  const int predict_reps = fast ? 5 : 10;
  const auto gb_walk = [&] { return oracle::gb_walk(*gb_oracle, x); };
  const double walk_s = best_time_s(predict_reps, gb_walk);
  const double compiled_s =
      best_time_s(predict_reps, [&] { gb_exact.predict(x); });
  const double predict_speedup = walk_s / compiled_s;

  const auto walk_out = gb_walk();
  const auto compiled_out = gb_exact.predict(x);
  bool bit_identical = walk_out.size() == compiled_out.size();
  for (std::size_t i = 0; bit_identical && i < walk_out.size(); ++i) {
    bit_identical = walk_out[i] == compiled_out[i];
  }

  const double rf_walk_s =
      best_time_s(predict_reps, [&] { oracle::forest_walk(*rf_oracle, x); });
  const double rf_compiled_s =
      best_time_s(predict_reps, [&] { rf_exact.predict(x); });
  const double rf_predict_speedup = rf_walk_s / rf_compiled_s;

  TextTable table({"model", "path", "seconds", "speedup"},
                  "Exact training and compiled inference");
  table.add_row({"GB fit", "exact (oracle)", TextTable::cell(gb_oracle_s, 3),
                 "1.0x"});
  table.add_row({"GB fit", "exact (presorted)",
                 TextTable::cell(gb_presort_s, 3),
                 TextTable::cell(gb_presort_speedup, 1) + "x"});
  table.add_row({"RF fit", "exact (oracle)", TextTable::cell(rf_oracle_s, 3),
                 "1.0x"});
  table.add_row({"RF fit", "exact (presorted)",
                 TextTable::cell(rf_presort_s, 3),
                 TextTable::cell(rf_presort_speedup, 1) + "x"});
  table.add_row({"GB predict", "walk", TextTable::cell(walk_s, 4), "1.0x"});
  table.add_row({"GB predict", "compiled", TextTable::cell(compiled_s, 4),
                 TextTable::cell(predict_speedup, 1) + "x"});
  table.add_row({"RF predict", "walk", TextTable::cell(rf_walk_s, 4), "1.0x"});
  table.add_row({"RF predict", "compiled", TextTable::cell(rf_compiled_s, 4),
                 TextTable::cell(rf_predict_speedup, 1) + "x"});
  table.print();

  const bool gb_presort_ok = gb_presort_speedup >= 3.0 && gb_identical;
  const bool rf_presort_ok = rf_presort_speedup >= 3.0 && rf_identical;
  const bool predict_ok = predict_speedup >= 5.0;
  std::printf(
      "\nbit-identical compiled vs walk: %s\n"
      "GB presorted exact fit %.1fx, identical %s (target >= 3x): %s\n"
      "RF presorted exact fit %.1fx, identical %s (target >= 3x): %s\n"
      "GB batch-predict speedup %.1fx (target >= 5x): %s\n",
      bit_identical ? "yes" : "NO", gb_presort_speedup,
      gb_identical ? "yes" : "NO", gb_presort_ok ? "PASS" : "FAIL",
      rf_presort_speedup, rf_identical ? "yes" : "NO",
      rf_presort_ok ? "PASS" : "FAIL", predict_speedup,
      predict_ok ? "PASS" : "FAIL");
  const bool pass =
      gb_presort_ok && rf_presort_ok && predict_ok && bit_identical;

  std::FILE* json = std::fopen("BENCH_tree_engine.json", "w");
  if (json != nullptr) {
    std::fprintf(
        json,
        "{\n"
        "  \"machine\": \"aurora\",\n"
        "  \"fast_mode\": %s,\n"
        "  \"threads\": %zu,\n"
        "  \"n_rows\": %zu,\n"
        "  \"gb\": {\"stages\": %d, \"exact_fit_s\": %.6f, "
        "\"presort_fit_s\": %.6f, \"presort_speedup\": %.3f, "
        "\"presort_identical\": %s},\n"
        "  \"rf\": {\"trees\": %d, \"exact_fit_s\": %.6f, "
        "\"presort_fit_s\": %.6f, \"presort_speedup\": %.3f, "
        "\"presort_identical\": %s},\n"
        "  \"predict\": {\"rows\": %zu, \"gb_walk_s\": %.6f, "
        "\"gb_compiled_s\": %.6f, \"gb_speedup\": %.3f, "
        "\"rf_walk_s\": %.6f, \"rf_compiled_s\": %.6f, "
        "\"rf_speedup\": %.3f, \"bit_identical\": %s},\n"
        "  \"provenance\": %s,\n"
        "  \"pass\": %s\n"
        "}\n",
        fast ? "true" : "false", threads, n, gb_stages, gb_oracle_s,
        gb_presort_s, gb_presort_speedup, gb_identical ? "true" : "false",
        rf_trees, rf_oracle_s, rf_presort_s, rf_presort_speedup,
        rf_identical ? "true" : "false", n, walk_s, compiled_s,
        predict_speedup, rf_walk_s, rf_compiled_s, rf_predict_speedup,
        bit_identical ? "true" : "false", bench::provenance_json().c_str(),
        pass ? "true" : "false");
    std::fclose(json);
    std::printf("\nwrote BENCH_tree_engine.json\n");
  }

  return pass ? 0 : 1;
}
