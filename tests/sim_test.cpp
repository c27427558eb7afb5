// Unit and property tests for the CCSD performance simulator.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <exception>
#include <future>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "ccpred/common/error.hpp"
#include "ccpred/common/rng.hpp"
#include "ccpred/data/generator.hpp"
#include "ccpred/data/problems.hpp"
#include "ccpred/sim/ccsd_simulator.hpp"
#include "ccpred/sim/contraction.hpp"
#include "ccpred/sim/machine.hpp"
#include "ccpred/sim/network.hpp"
#include "ccpred/sim/noise.hpp"
#include "ccpred/sim/scheduler.hpp"
#include "ccpred/sim/tiling.hpp"
#include "lpt_reference.hpp"

namespace ccpred::sim {
namespace {

// ---------- tiling ----------

TEST(TilingTest, ExactDivision) {
  const auto d = decompose(120, 40);
  EXPECT_EQ(d.full_tiles, 3);
  EXPECT_EQ(d.remainder, 0);
  EXPECT_EQ(d.count(), 3);
  EXPECT_EQ(d.extents(), (std::vector<int>{40, 40, 40}));
}

TEST(TilingTest, RaggedRemainder) {
  const auto d = decompose(100, 40);
  EXPECT_EQ(d.full_tiles, 2);
  EXPECT_EQ(d.remainder, 20);
  EXPECT_EQ(d.count(), 3);
  EXPECT_EQ(d.tile_extent(2), 20);
}

TEST(TilingTest, ExtentSmallerThanTile) {
  const auto d = decompose(30, 40);
  EXPECT_EQ(d.full_tiles, 0);
  EXPECT_EQ(d.remainder, 30);
  EXPECT_EQ(d.count(), 1);
}

TEST(TilingTest, ExtentsSumToExtent) {
  for (int extent : {1, 7, 40, 99, 260, 1568}) {
    for (int tile : {1, 40, 73, 100, 2000}) {
      const auto d = decompose(extent, tile);
      int sum = 0;
      for (int e : d.extents()) sum += e;
      EXPECT_EQ(sum, extent) << "extent=" << extent << " tile=" << tile;
    }
  }
}

TEST(TilingTest, InvalidInputsThrow) {
  EXPECT_THROW(decompose(0, 10), Error);
  EXPECT_THROW(decompose(10, 0), Error);
  const auto d = decompose(10, 4);
  EXPECT_THROW(d.tile_extent(3), Error);
}

// ---------- contractions ----------

TEST(ContractionTest, PpLadderFlops) {
  // pp_ladder: 2 * mult * O^2 V^4 with mult = 2.
  const auto& inventory = ccsd_contractions();
  const auto& pp = inventory.front();
  EXPECT_EQ(pp.name, "pp_ladder");
  EXPECT_DOUBLE_EQ(pp.flops(10, 100), 2.0 * 2.0 * 100.0 * 1e8);
}

TEST(ContractionTest, SumExtent) {
  const Contraction c{.name = "t", .out_occ = 2, .out_virt = 2,
                      .sum_occ = 1, .sum_virt = 1, .mult = 1.0};
  EXPECT_DOUBLE_EQ(c.sum_extent(10, 100), 1000.0);
}

TEST(ContractionTest, IterationFlopsDominatedBySextic) {
  // For large V the O^2 V^4 terms dominate: doubling V multiplies total
  // flops by ~16.
  const double f1 = ccsd_iteration_flops(100, 800);
  const double f2 = ccsd_iteration_flops(100, 1600);
  EXPECT_GT(f2 / f1, 12.0);
  EXPECT_LT(f2 / f1, 16.5);
}

TEST(ContractionTest, FlopsPositiveAndIncreasing) {
  EXPECT_GT(ccsd_iteration_flops(44, 260), 0.0);
  EXPECT_GT(ccsd_iteration_flops(100, 700), ccsd_iteration_flops(50, 700));
  EXPECT_THROW(ccsd_contractions().front().flops(0, 10), Error);
}

// ---------- scheduler ----------

TEST(SchedulerTest, SingleWorkerGetsTotalWork) {
  const std::vector<TaskGroup> groups = {{1.0, 4}, {0.5, 2}};
  EXPECT_DOUBLE_EQ(lpt_makespan(groups, 1), 5.0);
}

TEST(SchedulerTest, EvenDivision) {
  const std::vector<TaskGroup> groups = {{2.0, 8}};
  EXPECT_DOUBLE_EQ(lpt_makespan(groups, 4), 4.0);
}

TEST(SchedulerTest, RemainderCreatesImbalance) {
  const std::vector<TaskGroup> groups = {{1.0, 5}};
  EXPECT_DOUBLE_EQ(lpt_makespan(groups, 4), 2.0);
}

TEST(SchedulerTest, MoreWorkersThanTasks) {
  const std::vector<TaskGroup> groups = {{3.0, 2}};
  EXPECT_DOUBLE_EQ(lpt_makespan(groups, 100), 3.0);
}

TEST(SchedulerTest, MixedGroupsRespectLptOrder) {
  // One long task and four short: LPT puts the long task alone.
  const std::vector<TaskGroup> groups = {{4.0, 1}, {1.0, 4}};
  EXPECT_DOUBLE_EQ(lpt_makespan(groups, 2), 4.0);
}

TEST(SchedulerTest, MakespanBounds) {
  // Greedy list scheduling: max(avg, longest) <= makespan <= avg + longest.
  Rng rng(42);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<TaskGroup> groups;
    for (int g = 0; g < 5; ++g) {
      groups.push_back(TaskGroup{rng.uniform(0.1, 3.0),
                                 rng.uniform_int(1, 40)});
    }
    const int workers = static_cast<int>(rng.uniform_int(1, 16));
    const double makespan = lpt_makespan(groups, workers);
    const double avg = total_work(groups) / workers;
    double longest = 0.0;
    for (const auto& g : groups) longest = std::max(longest, g.duration_s);
    EXPECT_GE(makespan, avg - 1e-9);
    EXPECT_GE(makespan, longest - 1e-9);
    EXPECT_LE(makespan, avg + longest + 1e-9);
  }
}

TEST(SchedulerTest, EmptyAndInvalid) {
  EXPECT_DOUBLE_EQ(lpt_makespan({}, 4), 0.0);
  EXPECT_DOUBLE_EQ(lpt_makespan({{1.0, 0}}, 4), 0.0);
  EXPECT_THROW(lpt_makespan({{1.0, 1}}, 0), Error);
  EXPECT_THROW(lpt_makespan({{-1.0, 1}}, 2), Error);
}

TEST(SchedulerTest, TotalHelpers) {
  const std::vector<TaskGroup> groups = {{2.0, 3}, {0.5, 4}};
  EXPECT_DOUBLE_EQ(total_work(groups), 8.0);
  EXPECT_EQ(total_tasks(groups), 7);
}

// ---------- scheduler vs the previous implementation ----------

/// A task duration from one of four families: small integers and dyadic
/// fractions (exact sums, so loads tie often), a few ulps around `base`
/// (sums that round), and plain uniform draws.
double draw_duration(Rng& rng, int family, double base) {
  switch (family) {
    case 0:
      return static_cast<double>(rng.uniform_int(1, 4));
    case 1:
      return static_cast<double>(rng.uniform_int(1, 64)) / 16.0;
    case 2: {
      double d = base;
      for (auto k = rng.uniform_int(-3, 3); k != 0; k += k > 0 ? -1 : 1) {
        d = std::nextafter(d, k > 0 ? 10.0 : 0.0);
      }
      return d;
    }
    default:
      return rng.uniform(0.01, 3.0);
  }
}

/// A task count below, at or above `workers` (a multiple plus a
/// remainder), or zero.
std::int64_t draw_count(Rng& rng, int workers) {
  const std::int64_t w = workers;
  switch (rng.uniform_int(0, 4)) {
    case 0:
      return rng.uniform_int(1, w - 1);
    case 1:
      return w;
    case 2:
      return w * rng.uniform_int(1, 3) + rng.uniform_int(1, w - 1);
    case 3:
      return 0;
    default:
      return rng.uniform_int(1, 4 * w);
  }
}

/// Groups shaped to make the water-fill overshoot: a few long tasks leave
/// some workers above the level a short group with count > workers fills
/// to, and a last large group lifts every worker past them, so a task the
/// overshoot clamp wrongly keeps or removes changes the makespan.
std::vector<TaskGroup> stair_groups(Rng& rng, int workers, int family,
                                    double base) {
  const std::int64_t w = workers;
  const double unit = family == 2 ? base : 1.0;
  const double tall = unit * static_cast<double>(rng.uniform_int(3, 8));
  return {
      {tall, rng.uniform_int(1, std::max<std::int64_t>(1, w / 2))},
      // An ulp shorter: two stair heights whose tops nearly tie.
      {std::nextafter(tall, 0.0),
       rng.uniform_int(0, std::max<std::int64_t>(1, w / 4))},
      {unit, w + rng.uniform_int(1, 2 * w)},
      {unit / 2, w * rng.uniform_int(8, 16) + rng.uniform_int(0, w - 1)},
  };
}

TEST(SchedulerTest, BitIdenticalToReferenceOnAdversarialInputs) {
  Rng rng(20250613);
  const int fixed_workers[] = {2, 3, 4, 7, 64, 480, 2048, 7200};
  for (int trial = 0; trial < 2000; ++trial) {
    const int workers =
        trial < 8 ? fixed_workers[trial]
                  : static_cast<int>(trial % 5 == 0 ? rng.uniform_int(2, 7200)
                                                    : rng.uniform_int(2, 96));
    const auto family = static_cast<int>(rng.uniform_int(0, 3));
    const double base = rng.uniform(0.1, 2.0);
    std::vector<TaskGroup> groups;
    if (trial % 4 == 3) {
      groups = stair_groups(rng, workers, family, base);
    } else {
      groups.resize(static_cast<std::size_t>(rng.uniform_int(1, 6)));
      for (auto& g : groups) {
        g.duration_s = draw_duration(rng, family, base);
        g.count = draw_count(rng, workers);
      }
    }
    const double expect = test::lpt_makespan_reference(groups, workers);
    const double got = lpt_makespan(groups, workers);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(expect))
        << "trial " << trial << " workers " << workers << " family "
        << family << ": " << got << " vs " << expect;
  }
}

TEST(SchedulerTest, BitIdenticalToReferenceOnRoundingTies) {
  // Decimal durations make sums round, so two workers can tie on load (or
  // on load + extra*d in the overshoot clamp) while their next loads
  // differ in the last bit. Found by random search: the first five
  // separate the reference from a clamp that breaks ties toward the
  // highest index, the last five from a remainder pick that ignores the
  // index on equal loads.
  struct Case {
    int workers;
    std::vector<TaskGroup> groups;
  };
  const Case cases[] = {
      {7, {{0.59999999999999998, 7}, {0.89999999999999991, 11},
           {0.29999999999999999, 21}, {4.4000000000000004, 9},
           {0.30000000000000004, 11}}},
      {7, {{0.69999999999999996, 9}, {0.10000000000000001, 17},
           {0.20000000000000001, 9}, {2.7999999999999998, 21}}},
      {4, {{0.44999999999999996, 8}, {0.59999999999999998, 5},
           {0.20000000000000001, 15}, {0.10000000000000001, 15}, {2, 1}}},
      {7, {{0.10000000000000001, 23}, {0.60000000000000009, 14},
           {3.3000000000000003, 11}, {0.20000000000000001, 18}}},
      {4, {{2.7999999999999998, 6}, {0.20000000000000001, 14},
           {0.20000000000000001, 16}, {2, 5}}},
      {7, {{0.60000000000000009, 16}, {4.4000000000000004, 12},
           {0.40000000000000002, 7}, {0.40000000000000002, 26}}},
      {4, {{0.10000000000000001, 16}, {0.40000000000000002, 9},
           {2.2000000000000002, 10}, {0.10000000000000001, 6},
           {0.40000000000000002, 2}}},
      {5, {{0.10000000000000001, 20}, {0.30000000000000004, 5},
           {0.30000000000000004, 13}, {0.89999999999999991, 18},
           {0.60000000000000009, 14}}},
      {3, {{1, 8}, {0.40000000000000002, 12}, {0.10000000000000001, 10},
           {0.20000000000000001, 3}}},
      {5, {{0.59999999999999998, 7}, {0.10000000000000001, 8},
           {0.30000000000000004, 5}, {0.89999999999999991, 19},
           {0.29999999999999999, 3}}},
  };
  for (std::size_t c = 0; c < std::size(cases); ++c) {
    const auto& [workers, groups] = cases[c];
    ASSERT_EQ(
        std::bit_cast<std::uint64_t>(lpt_makespan(groups, workers)),
        std::bit_cast<std::uint64_t>(
            test::lpt_makespan_reference(groups, workers)))
        << "case " << c;
  }
}

TEST(SchedulerTest, BitIdenticalToReferenceOnCampaignGroups) {
  // The calls a cold-starting daemon makes while it labels its default
  // campaigns (600 rows, seed 2025): every contraction's task groups at
  // every 10th configuration, on both machines. A call carries about 17
  // groups, hundreds to thousands of workers and a dozen runs of equal
  // load, where the adversarial trials above carry at most 6 groups.
  for (const auto& machine : {MachineModel::aurora(), MachineModel::frontier()}) {
    const CcsdSimulator simulator(machine);
    data::GeneratorOptions opt;
    opt.seed = 2025;
    opt.target_total = 600;
    const auto campaign = data::generate_dataset(
        simulator, data::problems_for(machine.name), opt);
    for (std::size_t row = 0; row < campaign.size(); row += 10) {
      const RunConfig& cfg = campaign.config(row);
      const int workers = machine.workers(cfg.nodes);
      for (const auto& contraction : simulator.inventory()) {
        const auto groups = simulator.task_groups(contraction, cfg);
        ASSERT_EQ(std::bit_cast<std::uint64_t>(lpt_makespan(groups, workers)),
                  std::bit_cast<std::uint64_t>(
                      test::lpt_makespan_reference(groups, workers)))
            << machine.name << " row " << row << " contraction "
            << contraction.name;
      }
    }
  }
}

TEST(SchedulerTest, BitIdenticalToReferenceOnRunEdgeCases) {
  struct Case {
    const char* what;
    int workers;
    std::vector<TaskGroup> groups;
  };
  const Case cases[] = {
      // After the unit tasks every load is 1 or 2 and 1 + 1e-30 == 1: the
      // remainder's least-loaded worker never changes again.
      {"absorbed remainder", 5, {{1.0, 7}, {1e-30, 3}}},
      // The same, with a count that is still above the worker count after
      // the water-fill assigned nothing.
      {"absorbed water-fill", 6, {{1.0, 6}, {1e-30, 40}}},
      // Not absorbed (1 + 1.5e-16 rounds up), but the level rounds low, so
      // the water-fill leaves more than one task per worker.
      {"count above workers after the fill", 5, {{1.0, 5}, {1.5e-16, 47}}},
      // Tall tasks leave 11 runs, and the short groups' water-fills
      // overshoot past the workers above their level.
      {"overshoot over many runs",
       13,
       {{5, 1}, {5.9000000000000004, 2}, {7.9000000000000004, 3},
        {4.7000000000000002, 2}, {6.4000000000000004, 1}, {7.5, 1},
        {7.7000000000000002, 1}, {6.4000000000000004, 2},
        {6.0999999999999996, 1}, {6.5999999999999996, 3},
        {7.5999999999999996, 1}, {4.4000000000000004, 1},
        {0.14999999999999999, 36}, {0.19, 42}}},
      // 23 groups of 22 distinct durations fragment the loads into 20 runs.
      {"fragmented runs",
       56,
       {{0.25714285714285717, 65}, {0.55000000000000004, 18},
        {0.15714285714285714, 88}, {0.34999999999999998, 71},
        {0.34285714285714286, 43}, {0.59285714285714286, 33},
        {0.7142857142857143, 105}, {0.56428571428571428, 28},
        {0.77142857142857146, 87}, {0.99285714285714288, 13},
        {1.0857142857142856, 74}, {0.83571428571428574, 64}, {1, 68},
        {0.73571428571428577, 110}, {1.342857142857143, 111}, {1.05, 104},
        {1.4285714285714288, 30}, {1.2071428571428573, 69},
        {0.94285714285714284, 96}, {1.2071428571428573, 81},
        {1.2285714285714286, 43}, {1.3071428571428572, 103},
        {1.4142857142857144, 34}}},
  };
  for (const auto& [what, workers, groups] : cases) {
    ASSERT_EQ(
        std::bit_cast<std::uint64_t>(lpt_makespan(groups, workers)),
        std::bit_cast<std::uint64_t>(
            test::lpt_makespan_reference(groups, workers)))
        << what;
  }
}

// ---------- tiny durations next to unequal loads ----------

/// lpt_makespan on a detached thread, waited for at most 10 s: a call that
/// does not finish fails its test instead of hanging the suite. A hung
/// call's thread keeps spinning until the process exits.
std::optional<double> lpt_with_watchdog(std::vector<TaskGroup> groups,
                                        int workers) {
  auto result = std::make_shared<std::promise<double>>();
  std::future<double> done = result->get_future();
  std::thread([result, groups = std::move(groups), workers] {
    try {
      result->set_value(lpt_makespan(groups, workers));
    } catch (...) {
      result->set_exception(std::current_exception());
    }
  }).detach();
  if (done.wait_for(std::chrono::seconds(10)) != std::future_status::ready) {
    return std::nullopt;
  }
  return done.get();
}

TEST(SchedulerTest, TinyDurationNextToUnequalLoadsFinishes) {
  // After {1.0, 3} the loads are 2 and 1. Five tasks of 1.2e-16 fill to a
  // level 0.5 above the lighter worker, so floor((level - load) / d) is
  // about 4.2e15 tasks, which the overshoot clamp used to pop one by one.
  const auto got = lpt_with_watchdog({{1.0, 3}, {1.2e-16, 5}}, 2);
  ASSERT_TRUE(got.has_value()) << "lpt_makespan did not finish within 10 s";
  EXPECT_EQ(*got, 2.0);
}

TEST(SchedulerTest, WaterFillQuotientBeyondInt64IsCappedBeforeTheCast) {
  // (level - load) / d is +-5e299 here, far outside int64_t, whose cast is
  // undefined; capped at the group's count first, the answer is the
  // greedy's.
  const auto got = lpt_with_watchdog({{1.0, 3}, {1e-300, 1'000'000}}, 2);
  ASSERT_TRUE(got.has_value()) << "lpt_makespan did not finish within 10 s";
  EXPECT_EQ(*got, 2.0);
  // An idle worker does not absorb the tiny tasks (0 + d != 0), so a
  // quotient the cast wrapped to a non-positive count would leave all
  // 10^15 tasks to the task-by-task remainder.
  const auto idle =
      lpt_with_watchdog({{1.0, 1}, {1e-300, 1'000'000'000'000'000}}, 2);
  ASSERT_TRUE(idle.has_value()) << "lpt_makespan did not finish within 10 s";
  EXPECT_EQ(*idle, 1.0);
}

TEST(SchedulerTest, BitIdenticalToReferenceWhenTheCapBinds) {
  // Durations from 2^-13 to 2 sort the tiny groups after the long ones,
  // whose loads are unequal by then: a run's floor((level - load) / d)
  // often exceeds the group's count and is capped. Powers of two make
  // loads tie, log-uniform draws make sums round.
  Rng rng(20251018);
  for (int trial = 0; trial < 4000; ++trial) {
    const auto workers = static_cast<int>(rng.uniform_int(2, 13));
    const bool dyadic = trial % 2 == 0;
    std::vector<TaskGroup> groups(
        static_cast<std::size_t>(rng.uniform_int(1, 4)));
    for (auto& g : groups) {
      g.duration_s =
          dyadic ? std::ldexp(1.0, static_cast<int>(rng.uniform_int(-13, 1)))
                 : std::exp2(rng.uniform(-13.0, 1.0));
      g.count = rng.uniform_int(1, 3 * workers);
    }
    ASSERT_EQ(std::bit_cast<std::uint64_t>(lpt_makespan(groups, workers)),
              std::bit_cast<std::uint64_t>(
                  test::lpt_makespan_reference(groups, workers)))
        << "trial " << trial << " workers " << workers;
  }
}

// ---------- machine & network ----------

TEST(MachineTest, GemmEfficiencyIncreasesWithTile) {
  const auto m = MachineModel::aurora();
  EXPECT_LT(m.gemm_efficiency(40), m.gemm_efficiency(80));
  EXPECT_LT(m.gemm_efficiency(80), m.gemm_efficiency(160));
  EXPECT_LT(m.gemm_efficiency(160), 1.0);
  EXPECT_GT(m.gemm_efficiency(40), 0.0);
  EXPECT_THROW(m.gemm_efficiency(0), Error);
}

TEST(MachineTest, HalfEfficiencyAtHalfEffTile) {
  auto m = MachineModel::aurora();
  m.half_eff_tile = 60.0;
  EXPECT_NEAR(m.gemm_efficiency(60), 0.5, 1e-12);
}

TEST(MachineTest, BandwidthDegradesWithScale) {
  const auto m = MachineModel::frontier();
  EXPECT_GT(m.effective_bw_bytes(2), m.effective_bw_bytes(100));
  EXPECT_GT(m.effective_bw_bytes(100), m.effective_bw_bytes(900));
  EXPECT_THROW(m.effective_bw_bytes(0), Error);
}

TEST(MachineTest, PresetsDiffer) {
  const auto a = MachineModel::aurora();
  const auto f = MachineModel::frontier();
  EXPECT_EQ(a.gpus_per_node, 6);
  EXPECT_EQ(f.gpus_per_node, 8);
  EXPECT_LT(a.noise_sigma, f.noise_sigma);  // Frontier harder to predict
  EXPECT_EQ(a.workers(10), 60);
  EXPECT_EQ(f.workers(10), 80);
}

TEST(MachineTest, MenusNonEmptyAndSorted) {
  for (const auto& m : {MachineModel::aurora(), MachineModel::frontier()}) {
    const auto nodes = m.node_menu();
    const auto tiles = m.tile_menu();
    EXPECT_FALSE(nodes.empty());
    EXPECT_FALSE(tiles.empty());
    EXPECT_TRUE(std::is_sorted(nodes.begin(), nodes.end()));
    EXPECT_TRUE(std::is_sorted(tiles.begin(), tiles.end()));
  }
}

TEST(NetworkTest, TransferScalesWithBytes) {
  const auto m = MachineModel::aurora();
  EXPECT_LT(transfer_time_s(m, 1e6, 1, 10), transfer_time_s(m, 1e9, 1, 10));
}

TEST(NetworkTest, SingleNodeIsFree) {
  const auto m = MachineModel::aurora();
  EXPECT_DOUBLE_EQ(transfer_time_s(m, 1e9, 10, 1), 0.0);
  EXPECT_DOUBLE_EQ(allreduce_time_s(m, 1e9, 1), 0.0);
}

TEST(NetworkTest, AllreduceGrowsLogarithmically) {
  const auto m = MachineModel::aurora();
  const double t4 = allreduce_time_s(m, 1e6, 4);
  const double t16 = allreduce_time_s(m, 1e6, 16);
  EXPECT_GT(t16, t4);
  EXPECT_THROW(allreduce_time_s(m, 1e6, 0), Error);
  EXPECT_THROW(transfer_time_s(m, -1.0, 1, 2), Error);
}

// ---------- noise ----------

TEST(NoiseTest, MedianNearOne) {
  const auto m = MachineModel::aurora();
  Rng rng(1);
  std::vector<double> f(10001);
  for (auto& v : f) v = noise_factor(m, rng);
  std::sort(f.begin(), f.end());
  EXPECT_NEAR(f[f.size() / 2], 1.0, 0.02);
  EXPECT_GT(f.front(), 0.5);
}

TEST(NoiseTest, FrontierNoisierThanAurora) {
  Rng ra(2), rf(2);
  const auto ma = MachineModel::aurora();
  const auto mf = MachineModel::frontier();
  auto spread = [](const MachineModel& m, Rng& rng) {
    double s = 0.0;
    for (int i = 0; i < 20000; ++i) {
      const double f = noise_factor(m, rng);
      s += (f - 1.0) * (f - 1.0);
    }
    return s;
  };
  EXPECT_GT(spread(mf, rf), 2.0 * spread(ma, ra));
}

// ---------- simulator ----------

class SimulatorTest : public ::testing::Test {
 protected:
  CcsdSimulator aurora_{MachineModel::aurora()};
  CcsdSimulator frontier_{MachineModel::frontier()};
};

TEST_F(SimulatorTest, DeterministicAcrossCalls) {
  const RunConfig cfg{134, 951, 110, 90};
  EXPECT_DOUBLE_EQ(aurora_.iteration_time(cfg), aurora_.iteration_time(cfg));
}

TEST_F(SimulatorTest, BreakdownSumsToTotal) {
  const RunConfig cfg{99, 718, 50, 80};
  const auto b = aurora_.breakdown(cfg);
  EXPECT_NEAR(b.total_s(), aurora_.iteration_time(cfg), 1e-12);
  EXPECT_GT(b.contraction_s, 0.0);
  EXPECT_GT(b.tasks, 0);
}

TEST_F(SimulatorTest, InfeasibleConfigurationsRejected) {
  EXPECT_FALSE(aurora_.feasible({134, 951, 0, 90}));
  EXPECT_FALSE(aurora_.feasible({0, 951, 10, 90}));
  EXPECT_FALSE(aurora_.feasible({134, 951, 10, 0}));
  // Below the memory floor.
  const int min_n = aurora_.min_nodes(280, 1040);
  if (min_n > 1) {
    EXPECT_FALSE(aurora_.feasible({280, 1040, min_n - 1, 90}));
    EXPECT_THROW(aurora_.iteration_time({280, 1040, min_n - 1, 90}), Error);
  }
  EXPECT_TRUE(aurora_.feasible({280, 1040, min_n, 90}));
}

TEST_F(SimulatorTest, MinNodesGrowsWithProblem) {
  EXPECT_LE(aurora_.min_nodes(44, 260), aurora_.min_nodes(146, 1568));
  EXPECT_THROW(aurora_.min_nodes(0, 10), Error);
}

TEST_F(SimulatorTest, TimeDecreasesFromSmallNodeCounts) {
  // Strong scaling holds in the compute-bound regime.
  const double t10 = aurora_.iteration_time({134, 951, 10, 90});
  const double t50 = aurora_.iteration_time({134, 951, 50, 90});
  const double t200 = aurora_.iteration_time({134, 951, 200, 90});
  EXPECT_GT(t10, t50);
  EXPECT_GT(t50, t200);
}

TEST_F(SimulatorTest, NodeHoursIncreaseWithNodes) {
  // Parallel efficiency < 1: node-hours rise monotonically in nodes.
  double prev = 0.0;
  for (int n : {10, 25, 50, 110, 200, 400}) {
    const RunConfig cfg{134, 951, n, 90};
    const double nh =
        CcsdSimulator::node_hours(cfg, aurora_.iteration_time(cfg));
    EXPECT_GT(nh, prev) << "nodes=" << n;
    prev = nh;
  }
}

TEST_F(SimulatorTest, TileSweetSpotExists) {
  // Extreme tiles are worse than the best mid-range tile at scale.
  const double t40 = aurora_.iteration_time({134, 951, 400, 40});
  const double t180 = aurora_.iteration_time({134, 951, 400, 180});
  double best_mid = 1e300;
  for (int t : {80, 90, 100, 110}) {
    best_mid = std::min(best_mid, aurora_.iteration_time({134, 951, 400, t}));
  }
  EXPECT_LT(best_mid, t40);
  EXPECT_LT(best_mid, t180);
}

TEST_F(SimulatorTest, BiggerProblemsTakeLonger) {
  const double small = aurora_.iteration_time({85, 698, 110, 90});
  const double large = aurora_.iteration_time({280, 1040, 110, 90});
  EXPECT_GT(large, 5.0 * small);
}

TEST_F(SimulatorTest, MeasuredTimeJittersAroundTruth) {
  const RunConfig cfg{116, 840, 110, 90};
  const double truth = aurora_.iteration_time(cfg);
  Rng rng(33);
  double sum = 0.0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) sum += aurora_.measured_time(cfg, rng);
  EXPECT_NEAR(sum / n / truth, 1.0, 0.02);
}

TEST_F(SimulatorTest, TaskGroupCountsMatchTileGrid) {
  // pp_ladder at O=100 V=200 tile=50: output tiles = 2^2 * 4^2 = 64,
  // k-chunks = 4^2 = 16 -> 1024 tasks.
  const auto& pp = ccsd_contractions().front();
  const auto groups = aurora_.task_groups(pp, {100, 200, 10, 50});
  EXPECT_EQ(total_tasks(groups), 64 * 16);
}

TEST_F(SimulatorTest, RaggedTilesProduceMultipleGroups) {
  const auto& pp = ccsd_contractions().front();
  const auto exact = aurora_.task_groups(pp, {100, 200, 10, 50});
  const auto ragged = aurora_.task_groups(pp, {99, 201, 10, 50});
  EXPECT_GT(ragged.size(), exact.size());
}

TEST_F(SimulatorTest, MemoryPerNodeShrinksWithNodes) {
  const double m10 = aurora_.memory_per_node_gb({134, 951, 10, 90});
  const double m100 = aurora_.memory_per_node_gb({134, 951, 100, 90});
  EXPECT_GT(m10, m100);
  EXPECT_GT(m100, 0.0);
}

TEST_F(SimulatorTest, MemoryPerNodeGrowsWithTile) {
  EXPECT_LT(aurora_.memory_per_node_gb({134, 951, 100, 60}),
            aurora_.memory_per_node_gb({134, 951, 100, 160}));
  EXPECT_THROW(aurora_.memory_per_node_gb({0, 951, 100, 60}), Error);
}

TEST_F(SimulatorTest, MinNodesConsistentWithMemoryModel) {
  // At the memory floor, the distributed share fits within node memory
  // (buffers excluded, matching min_nodes' inventory).
  const int n = aurora_.min_nodes(280, 1040);
  const double tiny_buffers =
      aurora_.memory_per_node_gb({280, 1040, n, 40});
  EXPECT_LT(tiny_buffers, 1.6 * aurora_.machine().node_mem_gb);
}

TEST_F(SimulatorTest, NodeHoursHelper) {
  EXPECT_DOUBLE_EQ(CcsdSimulator::node_hours({1, 1, 10, 1}, 360.0), 1.0);
}

// Property sweep over the paper's problems: all in-menu configurations are
// finite, positive, and noise stays within a sane multiplicative band.
class SimulatorProblemSweep
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(SimulatorProblemSweep, SaneTimesAcrossMenu) {
  const auto [o, v] = GetParam();
  const CcsdSimulator simulator(MachineModel::frontier());
  for (int n : {10, 110, 400}) {
    if (n < simulator.min_nodes(o, v)) continue;
    for (int t : {40, 90, 150}) {
      const RunConfig cfg{o, v, n, t};
      const double time = simulator.iteration_time(cfg);
      EXPECT_TRUE(std::isfinite(time));
      EXPECT_GT(time, 0.0);
      EXPECT_LT(time, 5e4);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    PaperProblems, SimulatorProblemSweep,
    ::testing::Values(std::pair{44, 260}, std::pair{49, 663},
                      std::pair{99, 1021}, std::pair{146, 1568},
                      std::pair{280, 1040}, std::pair{345, 791}));

}  // namespace
}  // namespace ccpred::sim
