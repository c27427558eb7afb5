// Tests for the simulation engine: SimCache correctness, task-graph reuse,
// per-config measurement streams, and bit-identity of the memoized,
// batched, parallel engine with the simulator's from-scratch
// iteration_time (campaigns through the oracle's campaign_labels).

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <thread>
#include <tuple>
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

// ---------- SimCache ----------

TEST(SimCacheTest, RandomizedOpsMatchUncachedReference) {
  SimCache cache;
  std::map<std::tuple<int, int, int, std::uint64_t>, double> reference;
  Rng rng(99);
  std::uint64_t expected_hits = 0;
  std::uint64_t expected_misses = 0;
  for (int step = 0; step < 2000; ++step) {
    // A small key space so lookups hit both present and absent keys.
    const int o = static_cast<int>(rng.uniform_int(1, 4));
    const int nodes = static_cast<int>(rng.uniform_int(1, 5));
    const int tile = static_cast<int>(rng.uniform_int(1, 3));
    const auto seed = static_cast<std::uint64_t>(rng.uniform_int(0, 2));
    const SimCache::Key key{.machine = 7u,
                            .o = o,
                            .v = o * 10,
                            .nodes = nodes,
                            .tile = tile,
                            .seed = seed};
    const auto ref_key = std::make_tuple(o, nodes, tile, seed);
    double value = 0.0;
    const bool hit = cache.lookup(key, &value);
    const auto it = reference.find(ref_key);
    ASSERT_EQ(hit, it != reference.end()) << "step " << step;
    if (hit) {
      EXPECT_EQ(value, it->second);
      ++expected_hits;
    } else {
      const double fresh = static_cast<double>(step) + 0.25;
      cache.insert(key, fresh);
      reference.emplace(ref_key, fresh);
      ++expected_misses;
    }
  }
  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, reference.size());
  EXPECT_EQ(stats.hits, expected_hits);
  EXPECT_EQ(stats.misses, expected_misses);
}

TEST(SimCacheTest, DistinguishesMachineAndSeed) {
  SimCache cache;
  const SimCache::Key a{.machine = 1, .o = 2, .v = 3, .nodes = 4, .tile = 5};
  SimCache::Key b = a;
  b.machine = 2;
  SimCache::Key c = a;
  c.seed = 17;
  cache.insert(a, 1.0);
  double value = 0.0;
  EXPECT_FALSE(cache.lookup(b, &value));
  EXPECT_FALSE(cache.lookup(c, &value));
  EXPECT_TRUE(cache.lookup(a, &value));
  EXPECT_EQ(value, 1.0);
}

TEST(SimCacheTest, ConcurrentInsertLookupStorm) {
  // Hammer a small key set from several threads; first writer wins, and
  // every subsequent lookup must observe that first value. Run under TSAN.
  SimCache cache;
  constexpr int kThreads = 4;
  constexpr int kOps = 3000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      Rng rng(1000 + static_cast<std::uint64_t>(t));
      for (int step = 0; step < kOps; ++step) {
        const int o = static_cast<int>(rng.uniform_int(1, 8));
        const int nodes = static_cast<int>(rng.uniform_int(1, 8));
        const SimCache::Key key{
            .machine = 3u, .o = o, .v = 9, .nodes = nodes, .tile = 2};
        const double canonical = static_cast<double>(o * 100 + nodes);
        double value = 0.0;
        if (cache.lookup(key, &value)) {
          ASSERT_EQ(value, canonical);
        } else {
          cache.insert(key, canonical);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_LE(cache.stats().entries, 64u);
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
  SimEngine fast(simulator);

  std::vector<RunConfig> batch;
  for (const int nodes : {90, 128, 256}) {
    for (const int tile : {40, 90}) {
      batch.push_back({.o = 44, .v = 260, .nodes = nodes, .tile = tile});
    }
  }
  batch.push_back(batch.front());  // duplicate: served from the dedup/cache

  const auto fast_times = fast.simulate_batch(batch);
  ASSERT_EQ(fast_times.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(fast_times[i], simulator.iteration_time(batch[i])) << "i=" << i;
  }
  EXPECT_EQ(fast_times.front(), fast_times.back());
  // The duplicate and the repeated (o, v, tile) pairs collapse: one graph
  // per (o, v, tile), one evaluation per distinct config.
  EXPECT_EQ(fast.stats().graph_builds, 2u);
  EXPECT_EQ(fast.stats().evaluations, batch.size() - 1);
}

TEST(SimEngineTest, MeasuredSeriesIsDeterministicAndSeedSensitive) {
  const auto simulator = aurora_sim();
  SimEngine fast(simulator);
  const RunConfig cfg{.o = 44, .v = 260, .nodes = 128, .tile = 60};

  const auto first = fast.measured_series(cfg, 42, 5);
  const auto cached = fast.measured_series(cfg, 42, 5);  // cache replay
  // The simulator's time times the config's own noise stream, drawn in
  // order.
  Rng stream(measurement_stream_seed(42, cfg));
  std::vector<double> ref(5);
  for (double& r : ref) {
    r = simulator.iteration_time(cfg) *
        noise_factor(simulator.machine(), stream);
  }
  ASSERT_EQ(first.size(), 5u);
  EXPECT_EQ(first, cached);
  EXPECT_EQ(first, ref);
  EXPECT_EQ(fast.measured_time(cfg, 42, 3), first[3]);

  const auto other_seed = fast.measured_series(cfg, 43, 5);
  EXPECT_NE(first, other_seed);
  // Streams are per-config: a different config draws different noise.
  RunConfig other_cfg = cfg;
  other_cfg.nodes = 256;
  const auto other = fast.measured_series(other_cfg, 42, 1);
  EXPECT_NE(first[0] / simulator.iteration_time(cfg),
            other[0] / simulator.iteration_time(other_cfg));
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

TEST(SimEngineTest, SharedEngineCampaignMatchesPrivateEngine) {
  const auto simulator = aurora_sim();
  data::GeneratorOptions opt;
  opt.seed = 11;
  opt.target_total = 60;

  SimEngine shared(simulator);
  data::GeneratorOptions shared_opt = opt;
  shared_opt.shared_engine = &shared;

  const auto a = data::generate_dataset(simulator, small_problems(), opt);
  const auto b =
      data::generate_dataset(simulator, small_problems(), shared_opt);
  // Regenerating through the warmed shared cache must not change a bit.
  const auto c =
      data::generate_dataset(simulator, small_problems(), shared_opt);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.target(i), b.target(i));
    EXPECT_EQ(a.target(i), c.target(i));
  }
  EXPECT_GT(shared.cache().stats().hits, 0u);

  // A shared engine wrapping a different simulator is rejected.
  const CcsdSimulator other(MachineModel::frontier());
  SimEngine wrong(other);
  data::GeneratorOptions bad = opt;
  bad.shared_engine = &wrong;
  EXPECT_THROW(data::generate_dataset(simulator, small_problems(), bad),
               Error);
}

// ---------- true-optima sweeps ----------

TEST(TrueOptimaSweepTest, MatchesSimulatorAndFindsMenuOptimum) {
  const auto simulator = aurora_sim();
  SimEngine engine(simulator);
  const std::vector<data::Problem> problems = {{.o = 44, .v = 260}};

  const auto sweeps = guide::true_optima_sweeps(
      engine, problems, guide::Objective::kShortestTime);
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
