// Tests for batched simulation: task-graph reuse, dedupe, per-config
// measurement streams, and bit-identity of the batched, parallel path with
// the simulator's from-scratch iteration_time (campaigns through the
// oracle's campaign_labels).

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "ccpred/common/error.hpp"
#include "ccpred/common/rng.hpp"
#include "ccpred/data/generator.hpp"
#include "ccpred/data/problems.hpp"
#include "ccpred/guidance/optimal.hpp"
#include "ccpred/sim/machine.hpp"
#include "ccpred/sim/noise.hpp"
#include "ccpred/sim/sim_engine.hpp"
#include "oracle/oracle.hpp"

namespace ccpred::sim {
namespace {

CcsdSimulator aurora_sim() { return CcsdSimulator(MachineModel::aurora()); }

const std::vector<data::Problem>& small_problems() {
  static const std::vector<data::Problem> problems = {{.o = 44, .v = 260},
                                                      {.o = 60, .v = 300}};
  return problems;
}

// ---------- task-graph reuse ----------

TEST(TaskGraphTest, ReusedGraphMatchesFromScratchAcrossNodeMenu) {
  const auto simulator = aurora_sim();
  for (const int tile : {40, 90, 180}) {
    const TaskGraph graph = simulator.build_task_graph(44, 260, tile);
    for (const int nodes : simulator.machine().node_menu()) {
      const RunConfig cfg{.o = 44, .v = 260, .nodes = nodes, .tile = tile};
      if (!simulator.feasible(cfg)) continue;
      const auto from_graph = simulator.breakdown(graph, nodes);
      const auto from_scratch = simulator.breakdown(cfg);
      EXPECT_EQ(from_graph.total_s(), from_scratch.total_s())
          << "nodes=" << nodes << " tile=" << tile;
      EXPECT_EQ(from_graph.tasks, from_scratch.tasks);
      EXPECT_EQ(from_graph.contraction_s, from_scratch.contraction_s);
      EXPECT_EQ(from_graph.collective_s, from_scratch.collective_s);
    }
  }
}

TEST(TaskGraphTest, MismatchedInventoryThrows) {
  const auto ccsd = aurora_sim();
  const CcsdSimulator triples(MachineModel::aurora(), triples_contractions());
  const TaskGraph graph = ccsd.build_task_graph(20, 120, 40);
  EXPECT_THROW(triples.breakdown(graph, 50), Error);
}

// ---------- engine ----------

TEST(SimEngineTest, BatchMatchesSingleAndReference) {
  const auto simulator = aurora_sim();

  std::vector<RunConfig> batch;
  for (const int nodes : {90, 128, 256}) {
    for (const int tile : {40, 90}) {
      batch.push_back({.o = 44, .v = 260, .nodes = nodes, .tile = tile});
    }
  }
  batch.push_back(batch.front());  // duplicate: served by the dedupe

  BatchWork work;
  const auto fast_times = simulate_batch(simulator, batch, &work);
  ASSERT_EQ(fast_times.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(fast_times[i], simulator.iteration_time(batch[i])) << "i=" << i;
  }
  EXPECT_EQ(fast_times.front(), fast_times.back());
  // The duplicate and the repeated (o, v, tile) pairs collapse: one graph
  // per (o, v, tile), one evaluation per distinct config.
  EXPECT_EQ(work.graph_builds, 2u);
  EXPECT_EQ(work.evaluations, batch.size() - 1);
}

TEST(SimEngineTest, MeasuredSeriesIsDeterministicAndSeedSensitive) {
  const auto simulator = aurora_sim();
  const MachineModel& machine = simulator.machine();
  const RunConfig cfg{.o = 44, .v = 260, .nodes = 128, .tile = 60};
  const double base = simulator.iteration_time(cfg);

  const auto first = measured_series(machine, base, 42, cfg, 5);
  // The simulator's time times the config's own noise stream, drawn in
  // order.
  Rng stream(measurement_stream_seed(42, cfg));
  std::vector<double> ref(5);
  for (double& r : ref) r = base * noise_factor(machine, stream);
  ASSERT_EQ(first.size(), 5u);
  EXPECT_EQ(first, ref);
  // A shorter series is a prefix: rep r does not depend on how many reps
  // were asked for.
  const auto prefix = measured_series(machine, base, 42, cfg, 3);
  EXPECT_EQ(prefix, std::vector<double>(first.begin(), first.begin() + 3));

  const auto other_seed = measured_series(machine, base, 43, cfg, 5);
  EXPECT_NE(first, other_seed);
  // Streams are per-config: a different config draws different noise.
  RunConfig other_cfg = cfg;
  other_cfg.nodes = 256;
  const double other_base = simulator.iteration_time(other_cfg);
  const auto other = measured_series(machine, other_base, 42, other_cfg, 1);
  EXPECT_NE(first[0] / base, other[0] / other_base);
  EXPECT_THROW(measured_series(machine, base, 42, cfg, -1), Error);
}

// ---------- campaign bit-identity ----------

TEST(SimEngineTest, CampaignMatchesOracleLabelsAtSeeds) {
  const auto simulator = aurora_sim();
  for (const std::uint64_t seed : {1ull, 7ull, 42ull}) {
    data::GeneratorOptions opt;
    opt.seed = seed;
    opt.target_total = 90;
    const auto campaign =
        data::generate_dataset(simulator, small_problems(), opt);
    const auto labels = oracle::campaign_labels(simulator, campaign, seed);
    ASSERT_EQ(campaign.size(), 90u) << "seed=" << seed;
    for (std::size_t i = 0; i < campaign.size(); ++i) {
      ASSERT_EQ(campaign.target(i), labels[i])
          << "seed=" << seed << " row=" << i;
    }
  }
}

// ---------- true-optima sweeps ----------

TEST(TrueOptimaSweepTest, MatchesSimulatorAndFindsMenuOptimum) {
  const auto simulator = aurora_sim();
  const std::vector<data::Problem> problems = {{.o = 44, .v = 260}};

  const auto sweeps = guide::true_optima_sweeps(
      simulator, problems, guide::Objective::kShortestTime);
  ASSERT_EQ(sweeps.size(), 1u);
  ASSERT_FALSE(sweeps[0].points.empty());
  for (const auto& pt : sweeps[0].points) {
    EXPECT_EQ(pt.time_s, simulator.iteration_time(pt.config));
    // The argmin really is the minimum of the surface.
    EXPECT_LE(sweeps[0].best.value, pt.value);
  }
}

}  // namespace
}  // namespace ccpred::sim
