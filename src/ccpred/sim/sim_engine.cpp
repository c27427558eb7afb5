#include "ccpred/sim/sim_engine.hpp"

#include <algorithm>
#include <numeric>
#include <tuple>

#include "ccpred/common/error.hpp"
#include "ccpred/common/thread_pool.hpp"
#include "ccpred/exec/parallel_for.hpp"
#include "ccpred/exec/sharded_cache.hpp"
#include "ccpred/sim/noise.hpp"

namespace ccpred::sim {
namespace {

using exec::kGoldenGamma;
using exec::splitmix64;

/// Batches with fewer (O, V, tile) groups than this run serially: the
/// pool handoff costs more than it saves.
constexpr std::size_t kMinParallelBatch = 4;

std::tuple<int, int, int, int> sort_key(const RunConfig& c) {
  return {c.o, c.v, c.tile, c.nodes};
}

bool same_group(const RunConfig& a, const RunConfig& b) {
  return a.o == b.o && a.v == b.v && a.tile == b.tile;
}

}  // namespace

std::uint64_t measurement_stream_seed(std::uint64_t campaign_seed,
                                      const RunConfig& cfg) {
  std::uint64_t h = campaign_seed ^ 0x6a09e667f3bcc909ULL;
  h = splitmix64(h + kGoldenGamma * static_cast<std::uint64_t>(cfg.o));
  h = splitmix64(h + kGoldenGamma * static_cast<std::uint64_t>(cfg.v));
  h = splitmix64(h + kGoldenGamma * static_cast<std::uint64_t>(cfg.nodes));
  h = splitmix64(h + kGoldenGamma * static_cast<std::uint64_t>(cfg.tile));
  return h;
}

std::vector<double> simulate_batch(const CcsdSimulator& simulator,
                                   const std::vector<RunConfig>& configs,
                                   BatchWork* work) {
  std::vector<double> out(configs.size(), 0.0);
  if (configs.empty()) return out;
  const std::size_t n = configs.size();

  // Sorting by (O, V, tile, nodes) makes duplicates adjacent and keeps
  // every unique of one (O, V, tile) group contiguous, so dedupe and
  // grouping are both single sorted walks.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&configs](std::size_t a, std::size_t b) {
              return sort_key(configs[a]) < sort_key(configs[b]);
            });

  // Dedupe: one evaluation per distinct configuration.
  std::vector<std::size_t> uid(n);   // config -> unique
  std::vector<std::size_t> urep(n);  // unique -> config
  std::size_t nu = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t i = order[k];
    if (k == 0 || !(configs[order[k - 1]] == configs[i])) urep[nu++] = i;
    uid[i] = nu - 1;
  }

  // Group the uniques by (O, V, tile): one task-graph build per group,
  // evaluated at each of the group's node counts. Uniques are in sorted
  // order, so a group is a run of consecutive uniques sharing (O, V, tile).
  // A graph is a few buckets per contraction, so every group's graph is
  // built before any evaluation and stays until the call returns.
  std::vector<std::size_t> ugroup(nu);  // -> group
  std::vector<TaskGraph> graphs;
  for (std::size_t u = 0; u < nu; ++u) {
    const RunConfig& c = configs[urep[u]];
    if (u == 0 || !same_group(configs[urep[u - 1]], c)) {
      graphs.push_back(simulator.build_task_graph(c.o, c.v, c.tile));
    }
    ugroup[u] = graphs.size() - 1;
  }
  const std::size_t ngroups = graphs.size();

  std::vector<double> uval(nu);
  const auto eval = [&](std::size_t u) {
    const int nodes = configs[urep[u]].nodes;
    uval[u] = simulator.breakdown(graphs[ugroup[u]], nodes).total_s();
  };
  if (ngroups >= kMinParallelBatch) {
    // The evaluations are dealt round-robin over one lane per worker. In
    // sorted order one group's node counts are adjacent, and a single
    // group can cost more than all the others together (O = 81, tile 80
    // on aurora), so contiguous chunks would leave it to one worker.
    const std::size_t lanes =
        std::clamp<std::size_t>(ThreadPool::global().size(), 1, nu);
    exec::parallel_for(0, lanes, [&](std::size_t lane) {
      for (std::size_t u = lane; u < nu; u += lanes) eval(u);
    });
  } else {
    for (std::size_t u = 0; u < nu; ++u) eval(u);
  }
  if (work != nullptr) {
    work->graph_builds += ngroups;
    work->evaluations += nu;
  }

  for (std::size_t i = 0; i < n; ++i) out[i] = uval[uid[i]];
  return out;
}

std::vector<double> measured_series(const MachineModel& machine,
                                    double noise_free_s,
                                    std::uint64_t campaign_seed,
                                    const RunConfig& cfg, int reps) {
  CCPRED_CHECK_MSG(reps >= 0, "repeat count must be non-negative");
  std::vector<double> out(static_cast<std::size_t>(reps), 0.0);
  Rng stream(measurement_stream_seed(campaign_seed, cfg));
  for (double& value : out) value = noise_free_s * noise_factor(machine, stream);
  return out;
}

}  // namespace ccpred::sim
