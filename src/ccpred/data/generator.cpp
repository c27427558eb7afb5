#include "ccpred/data/generator.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "ccpred/common/error.hpp"
#include "ccpred/sim/contraction.hpp"
#include "ccpred/sim/sim_engine.hpp"

namespace ccpred::data {
namespace {

/// At most this many node counts and tile sizes are swept per problem.
constexpr std::size_t kMaxNodeValues = 7;
constexpr std::size_t kMaxTileValues = 5;

/// Work-based cap on the node counts worth sweeping for a problem: jobs
/// saturate once per-GPU work gets small, so the campaign stops there.
int max_useful_nodes(const sim::CcsdSimulator& simulator, const Problem& p) {
  const double flops = sim::ccsd_iteration_flops(p.o, p.v);
  // ~2e13 flops of CCSD work per node keeps iterations in the tens of
  // seconds; sweeping past flops / 1e14 per node is wasted allocation.
  const double cap = flops / 1.0e14;
  const int lo = 90;
  const int hi = 900;
  const int min_feasible = simulator.min_nodes(p.o, p.v);
  return std::max(min_feasible,
                  std::clamp(static_cast<int>(cap), lo, hi));
}

/// Work-based floor: below this node count an iteration would run for tens
/// of minutes, which no measurement campaign pays for. The floor is capped
/// at `n_max`: for very large problems the raw work floor can exceed the
/// sweep ceiling, and an uncapped floor would invert the range into an
/// empty grid.
int min_useful_nodes(const sim::CcsdSimulator& simulator, const Problem& p,
                     int n_max) {
  const double flops = sim::ccsd_iteration_flops(p.o, p.v);
  const int floor_nodes = std::max(5, static_cast<int>(flops / 1.2e16));
  return std::max(simulator.min_nodes(p.o, p.v), std::min(floor_nodes, n_max));
}

}  // namespace

std::vector<int> node_grid(const sim::CcsdSimulator& simulator,
                           const Problem& p) {
  const int n_max = max_useful_nodes(simulator, p);
  const int n_min = min_useful_nodes(simulator, p, n_max);
  std::vector<int> grid;
  for (int n : simulator.machine().node_menu()) {
    if (n >= n_min && n <= n_max) grid.push_back(n);
  }
  CCPRED_CHECK_MSG(!grid.empty(), "empty node grid for O=" << p.o
                                      << " V=" << p.v);
  return grid;
}

namespace {

/// Evenly-spaced subset of `values` with at most `k >= 2` entries, always
/// keeping the first and last.
std::vector<int> evenly_spaced(const std::vector<int>& values, std::size_t k) {
  if (values.size() <= k) return values;
  std::vector<int> out;
  out.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t idx = i * (values.size() - 1) / (k - 1);
    out.push_back(values[idx]);
  }
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace

Dataset generate_dataset(const sim::CcsdSimulator& simulator,
                         const std::vector<Problem>& problems,
                         const GeneratorOptions& options) {
  CCPRED_CHECK_MSG(!problems.empty(), "need at least one problem");

  // Per problem, the campaign sweeps a modest grid of node counts and tile
  // sizes (batch queues are expensive) and measures configurations
  // repeatedly across the sweep — so the same (nodes, tile) point appears
  // multiple times with independent run-to-run noise, exactly like a real
  // trace collection.
  std::vector<std::vector<sim::RunConfig>> per_problem(problems.size());
  for (std::size_t pi = 0; pi < problems.size(); ++pi) {
    const auto& p = problems[pi];
    const auto nodes = evenly_spaced(node_grid(simulator, p), kMaxNodeValues);
    // Rotate which tiles each problem sweeps so the union covers the full
    // menu while each individual campaign stays small.
    const auto& menu = simulator.machine().tile_menu();
    std::vector<int> tiles;
    const std::size_t k = std::min(kMaxTileValues, menu.size());
    for (std::size_t i = 0; i < k; ++i) {
      tiles.push_back(menu[(pi + i * menu.size() / k) % menu.size()]);
    }
    std::sort(tiles.begin(), tiles.end());
    for (int n : nodes) {
      for (int t : tiles) {
        const sim::RunConfig cfg{.o = p.o, .v = p.v, .nodes = n, .tile = t};
        if (simulator.feasible(cfg)) per_problem[pi].push_back(cfg);
      }
    }
    CCPRED_CHECK_MSG(!per_problem[pi].empty(),
                     "no feasible configurations for O=" << p.o
                         << " V=" << p.v);
  }

  // Rows per problem: equal shares of the target (the first
  // target_total mod P problems take one more), or one measurement per
  // configuration when no target is set.
  std::vector<std::size_t> quota(problems.size());
  if (options.target_total == 0) {
    for (std::size_t pi = 0; pi < problems.size(); ++pi) {
      quota[pi] = per_problem[pi].size();
    }
  } else {
    const std::size_t base = options.target_total / problems.size();
    std::size_t rem = options.target_total % problems.size();
    for (std::size_t pi = 0; pi < problems.size(); ++pi) {
      quota[pi] = base + (pi < rem ? 1 : 0);
    }
  }

  // The campaign's rows, round-robin per problem: row k goes to
  // configuration k mod n, so repeat counts differ by at most one across a
  // problem's configurations (the balanced campaign protocol).
  std::vector<sim::RunConfig> rows;
  rows.reserve(std::accumulate(quota.begin(), quota.end(), std::size_t{0}));
  for (std::size_t pi = 0; pi < problems.size(); ++pi) {
    const auto& configs = per_problem[pi];
    for (std::size_t k = 0; k < quota[pi]; ++k) {
      rows.push_back(configs[k % configs.size()]);
    }
  }

  // One batched simulation of the whole campaign: the batch dedupes the
  // repeats and builds one task graph per (O, V, tile).
  const std::vector<double> times = sim::simulate_batch(simulator, rows);

  // Row k of a configuration is its k-th draw from its own measurement
  // stream (seeded on (campaign seed, config)), so the values do not
  // depend on evaluation order or thread count.
  Dataset out;
  std::size_t first = 0;  // the problem's first row
  for (std::size_t pi = 0; pi < problems.size(); ++pi) {
    const auto& configs = per_problem[pi];
    const std::size_t n = configs.size();
    std::vector<std::vector<double>> series(std::min(n, quota[pi]));
    for (std::size_t ci = 0; ci < series.size(); ++ci) {
      const int reps =
          static_cast<int>(quota[pi] / n + (ci < quota[pi] % n ? 1 : 0));
      series[ci] = sim::measured_series(simulator.machine(),
                                        times[first + ci], options.seed,
                                        configs[ci], reps);
    }
    for (std::size_t k = 0; k < quota[pi]; ++k) {
      out.add(rows[first + k], series[k % n][k / n]);
    }
    first += quota[pi];
  }
  return out;
}

Dataset paper_dataset(const sim::CcsdSimulator& simulator,
                      std::uint64_t seed) {
  GeneratorOptions opt;
  opt.seed = seed;
  opt.target_total = paper_total_rows(simulator.machine().name);
  return generate_dataset(simulator, problems_for(simulator.machine().name),
                          opt);
}

std::size_t paper_total_rows(const std::string& machine_name) {
  if (machine_name == "aurora") return 2329;
  if (machine_name == "frontier") return 2454;
  throw Error("unknown machine name: " + machine_name);
}

std::size_t paper_test_rows(const std::string& machine_name) {
  if (machine_name == "aurora") return 583;
  if (machine_name == "frontier") return 614;
  throw Error("unknown machine name: " + machine_name);
}

}  // namespace ccpred::data
