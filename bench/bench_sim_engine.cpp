/// Simulation-engine bench: the memoized/batched/parallel SimEngine against
/// serial from-scratch simulation, on the paper's Aurora reproduction
/// workloads.
///
/// Two timed sections:
///   - campaign generation: the figure pipeline regenerates the paper
///     campaign once per bench binary; we time two regenerations, reference
///     (the oracle's campaign_labels: one from-scratch simulation per row)
///     vs fast (one shared engine whose SimCache persists across
///     regenerations)
///   - STQ/BQ true-optima sweeps: the paper's exhaustive ground-truth sweep
///     over the machine menu, repeated for several evaluation rounds (the
///     AL goal evaluation used to recompute it every round), one fast
///     engine vs a reference of one from-scratch iteration_time per swept
///     point, per round and objective
///
/// Gates (exit nonzero on failure):
///   - campaign generation: fast >= 4x faster than reference
///   - STQ/BQ sweep rounds: fast >= 3x faster than reference
///   - fast results bit-identical (operator==) to the reference results
///   - work: each section's cache entries and hits and its engine's graph
///     builds and evaluations equal the values recorded for the mode.
///     They depend on the workload alone, not on the host or the thread
///     count, so a cache that stops hitting or a graph built per row
///     fails here on any runner.
///
/// Emits the measurements to BENCH_sim_engine.json.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "ccpred/common/stopwatch.hpp"
#include "ccpred/common/table.hpp"
#include "ccpred/common/thread_pool.hpp"
#include "ccpred/data/generator.hpp"
#include "ccpred/data/problems.hpp"
#include "ccpred/guidance/optimal.hpp"
#include "ccpred/sim/sim_engine.hpp"
#include "oracle/oracle.hpp"

using namespace ccpred;

int main() {
  const bool fast_mode = bench::fast_mode();
  const auto simulator = bench::make_simulator("aurora");
  const auto& problems = data::problems_for("aurora");
  const std::size_t threads = ThreadPool::global().size();

  std::printf("== Simulation engine vs serial reference (aurora, %zu threads%s) ==\n\n",
              threads, fast_mode ? ", fast mode" : "");

  // ---- campaign generation: two figure-pipeline regenerations ----
  // Fast mode shrinks the PROBLEM SET, not the row target: the fast path's
  // advantage rides on the campaign's repeat ratio (rows per distinct
  // config), and thinning rows across the full problem list would measure
  // a repeat-free workload no pipeline actually runs.
  const int regens = 2;
  const auto campaign_problems =
      fast_mode ? bench::smallest_problems(problems, 6) : problems;
  data::GeneratorOptions opt;
  opt.seed = 2025;
  opt.target_total =
      fast_mode ? data::paper_total_rows("aurora") / 4
                : data::paper_total_rows("aurora");

  // The campaign's rows (untimed), which the reference labels from scratch.
  const data::Dataset rows =
      data::generate_dataset(simulator, campaign_problems, opt);
  std::vector<double> ref_labels;
  Stopwatch campaign_ref_watch;
  for (int r = 0; r < regens; ++r) {
    ref_labels = oracle::campaign_labels(simulator, rows, opt.seed);
  }
  const double campaign_ref_s = campaign_ref_watch.elapsed_s();

  data::GeneratorOptions fast_opt = opt;
  sim::SimEngine shared_engine(simulator);
  fast_opt.shared_engine = &shared_engine;

  data::Dataset fast_campaign;
  Stopwatch campaign_fast_watch;
  for (int r = 0; r < regens; ++r) {
    fast_campaign = data::generate_dataset(simulator, campaign_problems, fast_opt);
  }
  const double campaign_fast_s = campaign_fast_watch.elapsed_s();
  const double campaign_speedup = campaign_ref_s / campaign_fast_s;
  const bool campaign_identical =
      bench::campaign_matches(fast_campaign, rows, ref_labels);
  const auto campaign_cache = shared_engine.cache().stats();

  // ---- STQ/BQ true-optima sweeps across evaluation rounds ----
  const int rounds = 4;
  const auto sweep_problems =
      bench::smallest_problems(problems, fast_mode ? 3 : 6);

  sim::SimEngine fast_engine(simulator);
  std::vector<guide::TrueOptimaSweep> fast_stq, fast_bq;
  Stopwatch sweep_fast_watch;
  for (int r = 0; r < rounds; ++r) {
    fast_stq = guide::true_optima_sweeps(fast_engine, sweep_problems,
                                         guide::Objective::kShortestTime);
    fast_bq = guide::true_optima_sweeps(fast_engine, sweep_problems,
                                        guide::Objective::kNodeHours);
  }
  const double sweep_fast_s = sweep_fast_watch.elapsed_s();

  std::vector<double> ref_stq, ref_bq;
  Stopwatch sweep_ref_watch;
  for (int r = 0; r < rounds; ++r) {
    ref_stq = bench::reference_times(simulator, fast_stq);
    ref_bq = bench::reference_times(simulator, fast_bq);
  }
  const double sweep_ref_s = sweep_ref_watch.elapsed_s();
  const double sweep_speedup = sweep_ref_s / sweep_fast_s;
  const bool sweep_identical =
      bench::sweeps_match(fast_stq, ref_stq,
                          guide::Objective::kShortestTime) &&
      bench::sweeps_match(fast_bq, ref_bq, guide::Objective::kNodeHours);
  std::size_t sweep_configs = 0;
  for (const auto& sw : fast_stq) sweep_configs += sw.points.size();
  const auto sweep_cache = fast_engine.cache().stats();

  TextTable table({"section", "path", "seconds", "speedup"},
                  "Simulation engine vs reference");
  table.add_row({"campaign x2", "reference",
                 TextTable::cell(campaign_ref_s, 3), "1.0x"});
  table.add_row({"campaign x2", "fast (shared cache)",
                 TextTable::cell(campaign_fast_s, 3),
                 TextTable::cell(campaign_speedup, 1) + "x"});
  table.add_row({"STQ/BQ sweep x4", "reference",
                 TextTable::cell(sweep_ref_s, 3), "1.0x"});
  table.add_row({"STQ/BQ sweep x4", "fast (memoized)",
                 TextTable::cell(sweep_fast_s, 3),
                 TextTable::cell(sweep_speedup, 1) + "x"});
  table.print();

  // Deterministic work: {fast mode, full mode} values of each counter.
  const auto campaign_work = shared_engine.stats();
  const auto sweep_work = fast_engine.stats();
  struct WorkGate {
    const char* name;
    std::uint64_t value;
    std::uint64_t expect[2];
  };
  const WorkGate work_gates[] = {
      {"campaign cache entries", campaign_cache.entries, {792, 3099}},
      {"campaign cache hits", campaign_cache.hits, {1002, 3869}},
      {"campaign graph builds", campaign_work.graph_builds, {30, 110}},
      {"campaign evaluations", campaign_work.evaluations, {210, 770}},
      {"sweep cache entries", sweep_cache.entries, {1440, 2880}},
      {"sweep cache hits", sweep_cache.hits, {10080, 20160}},
      {"sweep graph builds", sweep_work.graph_builds, {45, 90}},
      {"sweep evaluations", sweep_work.evaluations, {1440, 2880}},
  };
  bool work_ok = true;
  for (const auto& g : work_gates) {
    work_ok = work_ok && g.value == g.expect[fast_mode ? 0 : 1];
  }

  const bool campaign_ok = campaign_speedup >= 4.0;
  const bool sweep_ok = sweep_speedup >= 3.0;
  const bool identical_ok = campaign_identical && sweep_identical;
  std::printf(
      "\ncampaign rows %zu x%d regens; engine cache: %zu entries, %llu hits; "
      "%llu graph builds, %llu evaluations\n"
      "sweep problems %zu, %zu configs x%d rounds x2 objectives; cache: %zu "
      "entries, %llu hits; %llu graph builds, %llu evaluations\n"
      "campaign generation speedup %.1fx (target >= 4x): %s\n"
      "STQ/BQ sweep speedup %.1fx (target >= 3x): %s\n"
      "fast vs reference bit-identity (campaign %s, sweeps %s): %s\n",
      rows.size(), regens, campaign_cache.entries,
      static_cast<unsigned long long>(campaign_cache.hits),
      static_cast<unsigned long long>(campaign_work.graph_builds),
      static_cast<unsigned long long>(campaign_work.evaluations),
      sweep_problems.size(), sweep_configs, rounds, sweep_cache.entries,
      static_cast<unsigned long long>(sweep_cache.hits),
      static_cast<unsigned long long>(sweep_work.graph_builds),
      static_cast<unsigned long long>(sweep_work.evaluations),
      campaign_speedup, campaign_ok ? "PASS" : "FAIL", sweep_speedup,
      sweep_ok ? "PASS" : "FAIL", campaign_identical ? "yes" : "NO",
      sweep_identical ? "yes" : "NO", identical_ok ? "PASS" : "FAIL");
  for (const auto& g : work_gates) {
    const std::uint64_t expect = g.expect[fast_mode ? 0 : 1];
    std::printf("work: %s %llu (expect %llu): %s\n", g.name,
                static_cast<unsigned long long>(g.value),
                static_cast<unsigned long long>(expect),
                g.value == expect ? "PASS" : "FAIL");
  }

  const bool pass = campaign_ok && sweep_ok && identical_ok && work_ok;
  std::FILE* json = std::fopen("BENCH_sim_engine.json", "w");
  if (json != nullptr) {
    std::fprintf(
        json,
        "{\n"
        "  \"machine\": \"aurora\",\n"
        "  \"fast_mode\": %s,\n"
        "  \"threads\": %zu,\n"
        "  \"campaign\": {\"rows\": %zu, \"regens\": %d, \"reference_s\": "
        "%.6f, \"fast_s\": %.6f, \"speedup\": %.3f, \"identical\": %s,\n"
        "    \"cache_entries\": %zu, \"cache_hits\": %llu, \"graph_builds\": "
        "%llu, \"evaluations\": %llu},\n"
        "  \"sweep\": {\"problems\": %zu, \"configs\": %zu, \"rounds\": %d, "
        "\"reference_s\": %.6f, \"fast_s\": %.6f, \"speedup\": %.3f, "
        "\"identical\": %s,\n"
        "    \"cache_entries\": %zu, \"cache_hits\": %llu, \"graph_builds\": "
        "%llu, \"evaluations\": %llu},\n"
        "  \"work_ok\": %s,\n"
        "  \"provenance\": %s,\n"
        "  \"pass\": %s\n"
        "}\n",
        fast_mode ? "true" : "false", threads, rows.size(), regens,
        campaign_ref_s, campaign_fast_s, campaign_speedup,
        campaign_identical ? "true" : "false", campaign_cache.entries,
        static_cast<unsigned long long>(campaign_cache.hits),
        static_cast<unsigned long long>(campaign_work.graph_builds),
        static_cast<unsigned long long>(campaign_work.evaluations),
        sweep_problems.size(), sweep_configs, rounds, sweep_ref_s,
        sweep_fast_s, sweep_speedup, sweep_identical ? "true" : "false",
        sweep_cache.entries,
        static_cast<unsigned long long>(sweep_cache.hits),
        static_cast<unsigned long long>(sweep_work.graph_builds),
        static_cast<unsigned long long>(sweep_work.evaluations),
        work_ok ? "true" : "false", bench::provenance_json().c_str(),
        pass ? "true" : "false");
    std::fclose(json);
    std::printf("\nwrote BENCH_sim_engine.json\n");
  }

  return pass ? 0 : 1;
}
