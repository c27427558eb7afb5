#pragma once

/// \file sim_engine.hpp
/// Batched simulation: the stateless, batch-oriented front end to
/// CcsdSimulator that campaign generation and the STQ/BQ true-optima
/// sweeps go through. Each reproduction artifact simulates its
/// configuration list once, so nothing here remembers a result between
/// calls:
///
///  * simulate_batch — dedupes a config list, groups it by (O, V, tile) so
///    the tiling/task-graph decomposition is built once per group instead
///    of once per point, and deals the evaluations round-robin over the
///    shared ThreadPool's workers, so one costly group is spread over all
///    of them.
///  * measurement_stream_seed / measured_series — a per-config RNG stream
///    derivation, so a config's noise draws do not depend on which other
///    configs are simulated, in which order, or on how many threads ran
///    them.
///
/// CcsdSimulator::iteration_time, one from-scratch simulation per call,
/// is the ground truth the tests and bench gates compare against with
/// operator==.

#include <cstdint>
#include <vector>

#include "ccpred/sim/ccsd_simulator.hpp"

namespace ccpred::sim {

/// Deterministic per-(campaign-seed, config) RNG stream seed. Mixing uses
/// the splitmix64 finalizer so nearby configs land in unrelated streams.
/// Every path draws a config's noise from this stream, which is what makes
/// campaigns independent of evaluation order and thread count.
std::uint64_t measurement_stream_seed(std::uint64_t campaign_seed,
                                      const RunConfig& cfg);

/// Work one simulate_batch call did (read by tests and bench gates).
struct BatchWork {
  std::uint64_t graph_builds = 0;  ///< task-graph decompositions built
  std::uint64_t evaluations = 0;   ///< breakdowns evaluated (distinct configs)
};

/// Noise-free times for a config list, bit-identical to one
/// simulator.iteration_time per entry: dedupes, reuses one task graph per
/// (O, V, tile) group across its node counts and deals the evaluations
/// over the shared ThreadPool. Adds the call's work to `*work` when given.
std::vector<double> simulate_batch(const CcsdSimulator& simulator,
                                   const std::vector<RunConfig>& configs,
                                   BatchWork* work = nullptr);

/// The first `reps` simulated measurements of `cfg` under `campaign_seed`:
/// `noise_free_s` (its iteration_time) times the config's measurement
/// stream's noise factors, drawn in order from the start of the stream.
std::vector<double> measured_series(const MachineModel& machine,
                                    double noise_free_s,
                                    std::uint64_t campaign_seed,
                                    const RunConfig& cfg, int reps);

}  // namespace ccpred::sim
