#pragma once

/// \file generator.hpp
/// Trace-collection campaign generator: sweeps (nodes, tile) configurations
/// for every problem size on a simulated machine and records one measured
/// CCSD-iteration time per configuration — the stand-in for the paper's
/// batch-queue experiment campaigns on Aurora and Frontier (Table 1).

#include <cstdint>
#include <vector>

#include "ccpred/data/dataset.hpp"
#include "ccpred/data/problems.hpp"
#include "ccpred/sim/ccsd_simulator.hpp"

namespace ccpred::data {

/// Campaign parameters.
struct GeneratorOptions {
  std::uint64_t seed = 2025;
  /// Total rows to generate, split equally across the problems (the first
  /// target_total mod P of the P problems get one row more). Row k of a
  /// problem measures its configuration k mod n, in ascending (nodes,
  /// tile) order: a problem whose share is below its n configurations
  /// never measures its largest node counts, and rows past n are repeated
  /// (independent-noise) measurements. 0 means "one measurement per
  /// feasible configuration".
  std::size_t target_total = 0;
};

/// Node counts swept for one problem on one machine: the machine's node
/// menu clipped to [memory-feasible minimum, work-dependent maximum] —
/// nobody queues a 44-orbital molecule on 800 nodes.
std::vector<int> node_grid(const sim::CcsdSimulator& simulator,
                           const Problem& p);

/// Generates the measurement campaign for `problems` on `simulator`: per
/// problem, at most 7 evenly spaced node counts of node_grid() times at
/// most 5 tile sizes. Rows are deterministic given options.seed —
/// independent of thread count and evaluation order. Row k of a config is
/// its k-th draw: iteration_time(cfg) times the k-th noise factor of the
/// config's measurement stream (see sim::measurement_stream_seed).
Dataset generate_dataset(const sim::CcsdSimulator& simulator,
                         const std::vector<Problem>& problems,
                         const GeneratorOptions& options);

/// The paper's dataset for a machine ("aurora" -> 2329 rows, "frontier" ->
/// 2454 rows, per Table 1), using that machine's problem list.
Dataset paper_dataset(const sim::CcsdSimulator& simulator,
                      std::uint64_t seed = 2025);

/// Paper Table 1 totals.
std::size_t paper_total_rows(const std::string& machine_name);
/// Paper Table 1 test-set sizes.
std::size_t paper_test_rows(const std::string& machine_name);

}  // namespace ccpred::data
