/// Allocation bench: proves the exec arena/cache rewiring actually removed
/// the malloc traffic, not just the wall time, and that a fitted boosted
/// model holds each of its nodes once.
///
/// This translation unit interposes the global allocation operators with
/// counting wrappers (atomic, thread-safe — pool workers allocate too), so
/// every `new` anywhere in the process is observed, and the live heap
/// bytes behind them: each allocation and each free is sized the same way,
/// by malloc_usable_size, so the live count returns exactly to where it
/// was. Two allocation-count workloads, one call each as the programs
/// make it, batched (the fast path) against a from-scratch reference:
///
///   - campaign generation: one generate_dataset call, which simulates the
///     campaign's rows in one batch and keeps the batch's dedupe and
///     grouping scratch in a per-thread Arena; the reference labels the
///     same rows with the oracle's campaign_labels, one from-scratch
///     simulation per row
///   - STQ/BQ true-optima sweeps: one true_optima_sweeps call per
///     objective, each one batch that builds one task graph per
///     (O, V, tile); the reference runs one from-scratch iteration_time
///     per swept point and objective
///
/// and one footprint: the heap bytes a daemon-default GB fit keeps live
/// once it returns (the serving registry's default campaign for aurora,
/// 750 stages), per node of the fitted model. The model's compiled store
/// takes 13 bytes a node (per breadth-first slot an 8-byte value, a
/// split's threshold or a leaf's prediction, a 4-byte left child and a
/// 1-byte feature slot, in one exact allocation per tree) plus each tree's
/// small header and importance record, about 13.4 in all; a store that
/// also kept the internal nodes' values reads about 17.5, the earlier
/// 16-byte-node store with those values beside it about 20.7, and a model
/// that also kept its fitted trees' node vectors (32-byte nodes and their
/// growth slack) about 80.
///
/// Gates (exit nonzero on failure):
///   - fast allocates >= 4x fewer times than reference on the campaign
///     (about 4.5x; a dedupe that stops collapsing its repeats reads
///     1.6-1.8x, a task graph built per configuration 2.8-3.0x) and
///     >= 1.5x fewer on the sweeps (about 2.0-2.4x; a task graph per
///     configuration reads 1.0x)
///   - fast results bit-identical (operator==) to the reference results
///   - the GB fit keeps <= 14 live heap bytes per node
///
/// Wall-time/QPS regressions are covered by bench_sim_engine and
/// bench_serve_fleet; this binary gates only allocation counts and bytes,
/// which are deterministic per build and immune to a noisy host.
///
/// Emits the measurements to BENCH_exec.json.

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "bench_util.hpp"
#include "ccpred/common/table.hpp"
#include "ccpred/common/thread_pool.hpp"
#include "ccpred/core/compiled_ensemble.hpp"
#include "ccpred/core/gradient_boosting.hpp"
#include "ccpred/data/generator.hpp"
#include "ccpred/data/problems.hpp"
#include "ccpred/guidance/optimal.hpp"
#include "ccpred/serve/model_registry.hpp"
#include "oracle/oracle.hpp"

// ---------------------------------------------------------------------------
// Counting allocator interposition (whole process, all threads)
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::int64_t> g_live_bytes{0};

void* counted(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_live_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  return p;
}

void* counted_alloc(std::size_t size) {
  return counted(std::malloc(size == 0 ? 1 : size));
}

void* counted_alloc(std::size_t size, std::align_val_t align) {
  const std::size_t a = static_cast<std::size_t>(align);
  return counted(
      std::aligned_alloc(a, ((size == 0 ? 1 : size) + a - 1) / a * a));
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  std::free(p);
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc(size, align);
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}

// ---------------------------------------------------------------------------

namespace {

using namespace ccpred;

/// Allocation count of one callable, as a delta of the process counter.
template <typename Fn>
std::uint64_t allocations_of(Fn&& fn) {
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

}  // namespace

int main() {
  const bool fast_mode = bench::fast_mode();
  const auto simulator = bench::make_simulator("aurora");
  const auto& problems = data::problems_for("aurora");
  const std::size_t threads = ThreadPool::global().size();

  std::printf(
      "== Executor-layer allocation counts (aurora, %zu threads%s) ==\n\n",
      threads, fast_mode ? ", fast mode" : "");

  // ---- workload A: campaign generation, one call ----
  const auto campaign_problems =
      fast_mode ? bench::smallest_problems(problems, 6) : problems;
  data::GeneratorOptions opt;
  opt.seed = 2025;
  opt.target_total = fast_mode ? data::paper_total_rows("aurora") / 4
                               : data::paper_total_rows("aurora");

  data::Dataset campaign;
  const std::uint64_t campaign_fast_allocs = allocations_of([&] {
    campaign = data::generate_dataset(simulator, campaign_problems, opt);
  });
  // The reference labels the campaign's own rows from scratch.
  std::vector<double> ref_labels;
  const std::uint64_t campaign_ref_allocs = allocations_of([&] {
    ref_labels = oracle::campaign_labels(simulator, campaign, opt.seed);
  });
  const double campaign_ratio =
      static_cast<double>(campaign_ref_allocs) /
      static_cast<double>(std::max<std::uint64_t>(1, campaign_fast_allocs));
  const bool campaign_identical =
      bench::campaign_matches(campaign, campaign, ref_labels);

  // ---- workload B: STQ then BQ true-optima sweep, one call each ----
  const auto sweep_problems =
      bench::smallest_problems(problems, fast_mode ? 3 : 6);

  std::vector<guide::TrueOptimaSweep> fast_stq, fast_bq;
  const std::uint64_t sweep_fast_allocs = allocations_of([&] {
    fast_stq = guide::true_optima_sweeps(simulator, sweep_problems,
                                         guide::Objective::kShortestTime);
    fast_bq = guide::true_optima_sweeps(simulator, sweep_problems,
                                        guide::Objective::kNodeHours);
  });

  std::vector<double> ref_stq, ref_bq;
  const std::uint64_t sweep_ref_allocs = allocations_of([&] {
    ref_stq = bench::reference_times(simulator, fast_stq);
    ref_bq = bench::reference_times(simulator, fast_bq);
  });
  const double sweep_ratio =
      static_cast<double>(sweep_ref_allocs) /
      static_cast<double>(std::max<std::uint64_t>(1, sweep_fast_allocs));
  const bool sweep_identical =
      bench::sweeps_match(fast_stq, ref_stq,
                          guide::Objective::kShortestTime) &&
      bench::sweeps_match(fast_bq, ref_bq, guide::Objective::kNodeHours);

  // ---- footprint: the heap a daemon-default GB fit keeps live ----
  // The serving registry's train-and-cache campaign and model for aurora
  // (ModelRegistry::fit_fallback). The fit runs on this thread while the
  // pool idles, so the live-byte delta repeats per build to within a few
  // hundred bytes (0.01 B per node).
  const serve::RegistryOptions daemon;
  data::GeneratorOptions daemon_gen;
  daemon_gen.seed = daemon.fallback_seed;
  daemon_gen.target_total = daemon.fallback_rows;
  const data::Dataset daemon_campaign =
      data::generate_dataset(simulator, problems, daemon_gen);
  const linalg::Matrix daemon_x = daemon_campaign.features();
  ml::GradientBoostingRegressor gb(daemon.gb_estimators);
  const std::int64_t live_before = g_live_bytes.load();
  gb.fit(daemon_x, daemon_campaign.targets());
  const std::int64_t gb_live_bytes = g_live_bytes.load() - live_before;
  const std::size_t gb_nodes = gb.compiled().node_count();
  const double gb_bytes_per_node =
      static_cast<double>(gb_live_bytes) / static_cast<double>(gb_nodes);

  TextTable table({"workload", "path", "allocations", "ratio"},
                  "Global operator-new counts");
  table.add_row({"campaign", "reference",
                 std::to_string(campaign_ref_allocs), "1.0x"});
  table.add_row({"campaign", "batched (arena)",
                 std::to_string(campaign_fast_allocs),
                 TextTable::cell(campaign_ratio, 1) + "x"});
  table.add_row({"STQ+BQ sweep", "reference",
                 std::to_string(sweep_ref_allocs), "1.0x"});
  table.add_row({"STQ+BQ sweep", "batched",
                 std::to_string(sweep_fast_allocs),
                 TextTable::cell(sweep_ratio, 1) + "x"});
  table.print();

  constexpr double kMinCampaignRatio = 4.0;
  constexpr double kMinSweepRatio = 1.5;
  const bool campaign_ok = campaign_ratio >= kMinCampaignRatio;
  const bool sweep_ok = sweep_ratio >= kMinSweepRatio;
  const bool identical_ok = campaign_identical && sweep_identical;
  constexpr double kMaxBytesPerNode = 14.0;
  const bool footprint_ok = gb_bytes_per_node <= kMaxBytesPerNode;
  std::printf(
      "\ncampaign rows %zu\n"
      "campaign allocation ratio %.1fx (target >= %.1fx): %s\n"
      "STQ+BQ sweep allocation ratio %.1fx (target >= %.1fx): %s\n"
      "fast vs reference bit-identity (campaign %s, sweeps %s): %s\n"
      "GB fit (%d stages, %zu rows) keeps %lld heap bytes for %zu nodes: "
      "%.2f B per node (target <= %.0f): %s\n",
      campaign.size(), campaign_ratio, kMinCampaignRatio,
      campaign_ok ? "PASS" : "FAIL", sweep_ratio, kMinSweepRatio,
      sweep_ok ? "PASS" : "FAIL",
      campaign_identical ? "yes" : "NO", sweep_identical ? "yes" : "NO",
      identical_ok ? "PASS" : "FAIL", daemon.gb_estimators,
      daemon_campaign.size(), static_cast<long long>(gb_live_bytes), gb_nodes,
      gb_bytes_per_node, kMaxBytesPerNode, footprint_ok ? "PASS" : "FAIL");

  const bool pass = campaign_ok && sweep_ok && identical_ok && footprint_ok;
  std::FILE* json = std::fopen("BENCH_exec.json", "w");
  if (json != nullptr) {
    std::fprintf(
        json,
        "{\n"
        "  \"machine\": \"aurora\",\n"
        "  \"fast_mode\": %s,\n"
        "  \"threads\": %zu,\n"
        "  \"campaign\": {\"rows\": %zu,\n"
        "    \"reference_allocations\": %llu, \"fast_allocations\": %llu,\n"
        "    \"ratio\": %.3f, \"identical\": %s},\n"
        "  \"sweeps\": {\"problems\": %zu,\n"
        "    \"reference_allocations\": %llu, \"fast_allocations\": %llu,\n"
        "    \"ratio\": %.3f, \"identical\": %s},\n"
        "  \"gb_footprint\": {\"stages\": %d, \"rows\": %zu, \"nodes\": %zu,\n"
        "    \"live_bytes\": %lld, \"bytes_per_node\": %.3f, "
        "\"max_bytes_per_node\": %.0f},\n"
        "  \"pass\": %s,\n"
        "  \"provenance\": %s\n"
        "}\n",
        fast_mode ? "true" : "false", threads, campaign.size(),
        static_cast<unsigned long long>(campaign_ref_allocs),
        static_cast<unsigned long long>(campaign_fast_allocs), campaign_ratio,
        campaign_identical ? "true" : "false", sweep_problems.size(),
        static_cast<unsigned long long>(sweep_ref_allocs),
        static_cast<unsigned long long>(sweep_fast_allocs), sweep_ratio,
        sweep_identical ? "true" : "false", daemon.gb_estimators,
        daemon_campaign.size(), gb_nodes,
        static_cast<long long>(gb_live_bytes), gb_bytes_per_node,
        kMaxBytesPerNode, pass ? "true" : "false",
        bench::provenance_json().c_str());
    std::fclose(json);
    std::printf("\nwrote BENCH_exec.json\n");
  }
  return pass ? 0 : 1;
}
