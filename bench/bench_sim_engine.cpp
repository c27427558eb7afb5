/// Simulation-engine bench: batched simulation against serial from-scratch
/// simulation, on the paper's Aurora reproduction workloads, one call per
/// workload as the programs make it.
///
/// Two timed sections:
///   - campaign generation: one generate_dataset call (one batched
///     simulation of the campaign's rows) against the oracle's
///     campaign_labels, one from-scratch simulation per row
///   - STQ/BQ true-optima sweeps: the paper's exhaustive ground-truth
///     sweep over the machine menu, one true_optima_sweeps call per
///     objective, against one from-scratch iteration_time per swept point
///
/// Times and ratios are printed, not gated: a single call's ratio moves
/// with the host and the worker count.
///
/// Gates (exit nonzero on failure):
///   - fast results bit-identical (operator==) to the reference results
///   - work: the task-graph builds and evaluations one simulate_batch call
///     does on each workload's configuration list equal the values
///     recorded for the mode. They depend on the workload alone, not on
///     the host or the thread count, so a dedupe that stops collapsing a
///     campaign's repeats or a graph built per configuration fails here on
///     any runner.
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

  std::printf("== Batched simulation vs serial reference (aurora, %zu threads%s) ==\n\n",
              threads, fast_mode ? ", fast mode" : "");

  // ---- campaign generation: one call ----
  // Fast mode shrinks the PROBLEM SET, not the row target: the batch's
  // dedupe rides on the campaign's repeat ratio (rows per distinct
  // config), and thinning rows across the full problem list would measure
  // a repeat-free workload no pipeline actually runs.
  const auto campaign_problems =
      fast_mode ? bench::smallest_problems(problems, 6) : problems;
  data::GeneratorOptions opt;
  opt.seed = 2025;
  opt.target_total =
      fast_mode ? data::paper_total_rows("aurora") / 4
                : data::paper_total_rows("aurora");

  Stopwatch campaign_fast_watch;
  const data::Dataset campaign =
      data::generate_dataset(simulator, campaign_problems, opt);
  const double campaign_fast_s = campaign_fast_watch.elapsed_s();

  // The reference labels the campaign's own rows from scratch.
  Stopwatch campaign_ref_watch;
  const std::vector<double> ref_labels =
      oracle::campaign_labels(simulator, campaign, opt.seed);
  const double campaign_ref_s = campaign_ref_watch.elapsed_s();
  const double campaign_speedup = campaign_ref_s / campaign_fast_s;
  const bool campaign_identical =
      bench::campaign_matches(campaign, campaign, ref_labels);

  // The batch the campaign simulates: one entry per row.
  std::vector<sim::RunConfig> campaign_configs;
  for (std::size_t i = 0; i < campaign.size(); ++i) {
    campaign_configs.push_back(campaign.config(i));
  }
  sim::BatchWork campaign_work;
  sim::simulate_batch(simulator, campaign_configs, &campaign_work);

  // ---- STQ/BQ true-optima sweeps: one call per objective ----
  const auto sweep_problems =
      bench::smallest_problems(problems, fast_mode ? 3 : 6);

  Stopwatch stq_watch;
  const auto fast_stq = guide::true_optima_sweeps(
      simulator, sweep_problems, guide::Objective::kShortestTime);
  const double stq_fast_s = stq_watch.elapsed_s();
  Stopwatch bq_watch;
  const auto fast_bq = guide::true_optima_sweeps(
      simulator, sweep_problems, guide::Objective::kNodeHours);
  const double bq_fast_s = bq_watch.elapsed_s();
  const double sweep_fast_s = stq_fast_s + bq_fast_s;

  Stopwatch sweep_ref_watch;
  const std::vector<double> ref_stq = bench::reference_times(simulator, fast_stq);
  const std::vector<double> ref_bq = bench::reference_times(simulator, fast_bq);
  const double sweep_ref_s = sweep_ref_watch.elapsed_s();
  const double sweep_speedup = sweep_ref_s / sweep_fast_s;
  const bool sweep_identical =
      bench::sweeps_match(fast_stq, ref_stq,
                          guide::Objective::kShortestTime) &&
      bench::sweeps_match(fast_bq, ref_bq, guide::Objective::kNodeHours);

  // The batch one sweep call simulates (the same grid for either
  // objective): every feasible menu point of every problem.
  std::vector<sim::RunConfig> sweep_configs;
  for (const auto& sw : fast_stq) {
    for (const auto& pt : sw.points) sweep_configs.push_back(pt.config);
  }
  sim::BatchWork sweep_work;
  sim::simulate_batch(simulator, sweep_configs, &sweep_work);

  TextTable table({"section", "path", "seconds", "speedup"},
                  "Batched simulation vs reference, one call");
  table.add_row({"campaign", "reference",
                 TextTable::cell(campaign_ref_s, 3), "1.0x"});
  table.add_row({"campaign", "batched",
                 TextTable::cell(campaign_fast_s, 3),
                 TextTable::cell(campaign_speedup, 1) + "x"});
  table.add_row({"STQ+BQ sweep", "reference",
                 TextTable::cell(sweep_ref_s, 3), "1.0x"});
  table.add_row({"STQ+BQ sweep", "batched",
                 TextTable::cell(sweep_fast_s, 3),
                 TextTable::cell(sweep_speedup, 1) + "x"});
  table.print();

  // Deterministic work: {fast mode, full mode} values of each counter.
  struct WorkGate {
    const char* name;
    std::uint64_t value;
    std::uint64_t expect[2];
  };
  const WorkGate work_gates[] = {
      {"campaign graph builds", campaign_work.graph_builds, {30, 110}},
      {"campaign evaluations", campaign_work.evaluations, {210, 770}},
      {"sweep graph builds", sweep_work.graph_builds, {45, 90}},
      {"sweep evaluations", sweep_work.evaluations, {1440, 2880}},
  };
  bool work_ok = true;
  for (const auto& g : work_gates) {
    work_ok = work_ok && g.value == g.expect[fast_mode ? 0 : 1];
  }

  const bool identical_ok = campaign_identical && sweep_identical;
  std::printf(
      "\ncampaign rows %zu: %llu graph builds, %llu evaluations; "
      "speedup %.1fx\n"
      "sweep problems %zu, %zu configs per call: %llu graph builds, %llu "
      "evaluations; STQ %.3f s + BQ %.3f s, speedup %.1fx\n"
      "fast vs reference bit-identity (campaign %s, sweeps %s): %s\n",
      campaign.size(),
      static_cast<unsigned long long>(campaign_work.graph_builds),
      static_cast<unsigned long long>(campaign_work.evaluations),
      campaign_speedup, sweep_problems.size(), sweep_configs.size(),
      static_cast<unsigned long long>(sweep_work.graph_builds),
      static_cast<unsigned long long>(sweep_work.evaluations), stq_fast_s,
      bq_fast_s, sweep_speedup, campaign_identical ? "yes" : "NO",
      sweep_identical ? "yes" : "NO", identical_ok ? "PASS" : "FAIL");
  for (const auto& g : work_gates) {
    const std::uint64_t expect = g.expect[fast_mode ? 0 : 1];
    std::printf("work: %s %llu (expect %llu): %s\n", g.name,
                static_cast<unsigned long long>(g.value),
                static_cast<unsigned long long>(expect),
                g.value == expect ? "PASS" : "FAIL");
  }

  const bool pass = identical_ok && work_ok;
  std::FILE* json = std::fopen("BENCH_sim_engine.json", "w");
  if (json != nullptr) {
    std::fprintf(
        json,
        "{\n"
        "  \"machine\": \"aurora\",\n"
        "  \"fast_mode\": %s,\n"
        "  \"threads\": %zu,\n"
        "  \"campaign\": {\"rows\": %zu, \"reference_s\": %.6f, "
        "\"fast_s\": %.6f, \"speedup\": %.3f, \"identical\": %s,\n"
        "    \"graph_builds\": %llu, \"evaluations\": %llu},\n"
        "  \"sweep\": {\"problems\": %zu, \"configs\": %zu, "
        "\"reference_s\": %.6f, \"fast_s\": %.6f, \"speedup\": %.3f, "
        "\"identical\": %s,\n"
        "    \"graph_builds\": %llu, \"evaluations\": %llu},\n"
        "  \"work_ok\": %s,\n"
        "  \"provenance\": %s,\n"
        "  \"pass\": %s\n"
        "}\n",
        fast_mode ? "true" : "false", threads, campaign.size(),
        campaign_ref_s, campaign_fast_s, campaign_speedup,
        campaign_identical ? "true" : "false",
        static_cast<unsigned long long>(campaign_work.graph_builds),
        static_cast<unsigned long long>(campaign_work.evaluations),
        sweep_problems.size(), sweep_configs.size(), sweep_ref_s,
        sweep_fast_s, sweep_speedup, sweep_identical ? "true" : "false",
        static_cast<unsigned long long>(sweep_work.graph_builds),
        static_cast<unsigned long long>(sweep_work.evaluations),
        work_ok ? "true" : "false", bench::provenance_json().c_str(),
        pass ? "true" : "false");
    std::fclose(json);
    std::printf("\nwrote BENCH_sim_engine.json\n");
  }

  return pass ? 0 : 1;
}
