/// \file exec_test.cpp
/// Executor-layer lockdown: differential/property tests for
/// exec::ShardedMemoCache against a single-map reference model (serial and
/// 8-thread, TSAN-clean), single-flight semantics (claim/finish step by
/// step, then under threads), exec::parallel_for structure (coverage,
/// exception propagation, empty ranges, nesting, per-chunk arenas), the
/// shuffle-injection determinism suite for every loop on the layer
/// (campaign generation, STQ/BQ sweeps, RF and GB fits, the GP fit and
/// predictive variances, cross-validation, grid search, query by
/// committee), Arena edge cases and page residency, and SweepCache's
/// kDefaultShards derivation — including behavior at non-default shard
/// counts.

#include <gtest/gtest.h>

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <latch>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "ccpred/active/pool.hpp"
#include "ccpred/active/query_by_committee.hpp"
#include "ccpred/core/cross_validation.hpp"
#include "ccpred/core/gaussian_process.hpp"
#include "ccpred/core/gradient_boosting.hpp"
#include "ccpred/core/grid_search.hpp"
#include "ccpred/core/random_forest.hpp"
#include "ccpred/data/generator.hpp"
#include "ccpred/data/problems.hpp"
#include "ccpred/exec/arena.hpp"
#include "ccpred/exec/parallel_for.hpp"
#include "ccpred/exec/sharded_cache.hpp"
#include "ccpred/guidance/optimal.hpp"
#include "ccpred/serve/sweep_cache.hpp"
#include "ccpred/sim/ccsd_simulator.hpp"
#include "oracle/oracle.hpp"

namespace ccpred {
namespace {

using exec::Arena;
using exec::ShardedMemoCache;

/// Restores the no-shuffle default even when a test assertion fails.
struct ShuffleGuard {
  explicit ShuffleGuard(std::uint64_t seed) {
    exec::set_shuffle_for_testing(seed);
  }
  ~ShuffleGuard() { exec::set_shuffle_for_testing(0); }
};

// ---------------------------------------------------------------------------
// ShardedMemoCache vs single-map reference model
// ---------------------------------------------------------------------------

/// Serial differential test: a randomized interleaving of every cache
/// operation must leave the sharded cache observably identical to a plain
/// unordered_map driven by the same semantics (put = overwrite,
/// get_or_compute = memoize).
TEST(ShardedMemoCacheTest, DifferentialAgainstReferenceModel) {
  ShardedMemoCache<std::uint64_t, double> cache(4);
  std::unordered_map<std::uint64_t, double> model;

  std::uint64_t state = 42;
  const auto next = [&state] { return exec::splitmix64(state += 1); };

  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t key = next() % 257;  // small key space forces hits
    const double value = static_cast<double>(step);
    switch (next() % 4) {
      case 0: {  // put: overwrite
        cache.put(key, value);
        model[key] = value;
        break;
      }
      case 1: {  // lookup
        double got = 0.0;
        const bool hit = cache.lookup(key, &got);
        const auto it = model.find(key);
        ASSERT_EQ(hit, it != model.end()) << "key " << key;
        if (hit) {
          ASSERT_EQ(got, it->second) << "key " << key;
        }
        break;
      }
      case 2: {  // get_or_compute: memoize
        const double got = cache.get_or_compute(key, [&] { return value; });
        const auto [it, inserted] = model.emplace(key, value);
        ASSERT_EQ(got, it->second) << "key " << key;
        (void)inserted;
        break;
      }
      default: {  // erase_if on a key-range predicate
        const std::uint64_t cut = next() % 257;
        const auto pred = [cut](const std::uint64_t& k) {
          return k % 17 == cut % 17;
        };
        const std::size_t dropped = cache.erase_if(pred);
        std::size_t expected = 0;
        for (auto it = model.begin(); it != model.end();) {
          if (pred(it->first)) {
            it = model.erase(it);
            ++expected;
          } else {
            ++it;
          }
        }
        ASSERT_EQ(dropped, expected);
        break;
      }
    }
    ASSERT_EQ(cache.size(), model.size());
  }

  // Full sweep: every surviving key agrees; no phantom entries.
  for (const auto& [key, value] : model) {
    double got = 0.0;
    ASSERT_TRUE(cache.lookup(key, &got));
    ASSERT_EQ(got, value);
  }
}

/// 8-thread differential test (run under TSAN in CI). Values are derived
/// from keys, so every interleaving must converge to the same map; the
/// reference model is checked post-join.
TEST(ShardedMemoCacheTest, EightThreadMixedWorkloadConverges) {
  constexpr int kThreads = 8;
  constexpr std::uint64_t kKeys = 101;
  const auto value_of = [](std::uint64_t k) {
    return static_cast<double>(exec::splitmix64(k));
  };

  ShardedMemoCache<std::uint64_t, double> cache(exec::kDefaultShards);
  std::atomic<std::uint64_t> mismatches{0};
  std::latch start(kThreads);

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      std::uint64_t state = 1000 + static_cast<std::uint64_t>(t);
      for (int step = 0; step < 4000; ++step) {
        const std::uint64_t key = exec::splitmix64(state += 1) % kKeys;
        switch (exec::splitmix64(state += 1) % 2) {
          case 0: {
            double got = 0.0;
            if (cache.lookup(key, &got) && got != value_of(key)) {
              mismatches.fetch_add(1, std::memory_order_relaxed);
            }
            break;
          }
          default: {
            const double got =
                cache.get_or_compute(key, [&] { return value_of(key); });
            if (got != value_of(key)) {
              mismatches.fetch_add(1, std::memory_order_relaxed);
            }
            break;
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_LE(cache.size(), static_cast<std::size_t>(kKeys));
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    double got = 0.0;
    if (cache.lookup(k, &got)) {
      EXPECT_EQ(got, value_of(k));
    }
  }
  const auto st = cache.stats();
  EXPECT_EQ(st.entries, cache.size());
  EXPECT_GT(st.hits, 0u);
}

/// Single-flight: concurrent get_or_compute for one cold key runs the
/// compute exactly once; every other caller either coalesces onto the
/// in-flight computation or hits the freshly inserted entry.
TEST(ShardedMemoCacheTest, SingleFlightComputesOnce) {
  constexpr int kThreads = 8;
  ShardedMemoCache<int, double> cache;
  std::atomic<int> invocations{0};
  std::latch start(kThreads);

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  std::vector<double> results(kThreads, 0.0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      results[t] = cache.get_or_compute(7, [&] {
        invocations.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
        return 3.5;
      });
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(invocations.load(), 1);
  for (double r : results) EXPECT_EQ(r, 3.5);
  const auto st = cache.stats();
  // One miss computed; the other callers were hits or coalesced waiters.
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.hits + st.coalesced, static_cast<std::uint64_t>(kThreads - 1));
}

/// A throwing compute must not wedge the in-flight slot: the exception
/// propagates to the computing caller and the key stays computable.
TEST(ShardedMemoCacheTest, GetOrComputeSurvivesThrowingCompute) {
  ShardedMemoCache<int, double> cache;
  EXPECT_THROW(cache.get_or_compute(
                   1, []() -> double { throw std::runtime_error("boom"); }),
               std::runtime_error);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.get_or_compute(1, [] { return 2.0; }), 2.0);
  double got = 0.0;
  EXPECT_TRUE(cache.lookup(1, &got));
  EXPECT_EQ(got, 2.0);
}

/// The single flight step by step, on one thread: hits + misses +
/// coalesced equals the number of claims after every step.
TEST(ShardedMemoCacheTest, ClaimLeadsJoinsThenHits) {
  ShardedMemoCache<int, double> cache(2);
  const auto expect_counts = [&](std::uint64_t hits, std::uint64_t misses,
                                 std::uint64_t coalesced) {
    const auto st = cache.stats();
    EXPECT_EQ(st.hits, hits);
    EXPECT_EQ(st.misses, misses);
    EXPECT_EQ(st.coalesced, coalesced);
  };
  const auto lead = cache.claim(7);
  EXPECT_FALSE(lead.hit);
  ASSERT_NE(lead.lead, nullptr);
  expect_counts(0, 1, 0);  // the first claim leads: a miss

  const auto join = cache.claim(7);
  EXPECT_FALSE(join.hit);
  EXPECT_EQ(join.lead, nullptr);
  ASSERT_TRUE(join.flight.valid());
  expect_counts(0, 1, 1);  // the second joins: coalesced, not a miss
  EXPECT_EQ(join.flight.wait_for(std::chrono::seconds(0)),
            std::future_status::timeout);

  cache.finish(7, lead.lead, {3.5, {}});
  ASSERT_EQ(join.flight.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  ASSERT_TRUE(join.flight.get().value);
  EXPECT_EQ(*join.flight.get().value, 3.5);
  const auto hit = cache.claim(7);
  ASSERT_TRUE(hit.hit);
  EXPECT_EQ(*hit.hit, 3.5);
  EXPECT_EQ(hit.lead, nullptr);
  expect_counts(1, 1, 1);
}

/// A failed flight hands its error to the joiners, caches nothing, and
/// the next claim leads a new flight.
TEST(ShardedMemoCacheTest, FailedFlightCachesNothingAndNextClaimLeads) {
  ShardedMemoCache<int, double> cache(2);
  const auto first = cache.claim(1);
  const auto join = cache.claim(1);
  cache.finish(1, first.lead, {std::nullopt, "boom"});
  const auto& joined = join.flight.get();
  EXPECT_FALSE(joined.value);
  EXPECT_EQ(joined.error, "boom");
  EXPECT_EQ(cache.size(), 0u);

  const auto again = cache.claim(1);
  EXPECT_FALSE(again.hit);
  ASSERT_NE(again.lead, nullptr);
  EXPECT_NE(again.lead, first.lead);
  const auto st = cache.stats();
  EXPECT_EQ(st.hits + st.misses + st.coalesced, 3u);
  EXPECT_EQ(st.misses, 2u);
  cache.finish(1, again.lead, {2.0, {}});
  EXPECT_EQ(cache.size(), 1u);
}

/// A joiner whose wait times out (a request deadline) cancels nothing:
/// the leader's value still lands in the cache.
TEST(ShardedMemoCacheTest, AbandonedWaitDoesNotCancelTheFlight) {
  ShardedMemoCache<int, double> cache(2);
  const auto lead = cache.claim(5);
  {
    const auto join = cache.claim(5);
    EXPECT_EQ(join.flight.wait_until(std::chrono::steady_clock::now() +
                                     std::chrono::milliseconds(1)),
              std::future_status::timeout);
  }  // the joiner gives up and drops its flight
  cache.finish(5, lead.lead, {9.0, {}});
  const auto after = cache.claim(5);
  ASSERT_TRUE(after.hit);
  EXPECT_EQ(*after.hit, 9.0);
  const auto st = cache.stats();
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.coalesced, 1u);
}

/// Observable behavior must not depend on the shard count: the same
/// operation sequence against 1, 5 and 16 shards yields identical results.
TEST(ShardedMemoCacheTest, ShardCountIsNotObservable) {
  for (const std::size_t shards : {std::size_t{1}, std::size_t{5},
                                   exec::kDefaultShards}) {
    ShardedMemoCache<std::uint64_t, double> cache(shards);
    ASSERT_EQ(cache.shard_count(), shards);
    for (std::uint64_t k = 0; k < 64; ++k) {
      cache.put(k, static_cast<double>(k) * 1.5);
    }
    cache.erase_if([](const std::uint64_t& k) { return k % 3 == 0; });
    std::size_t present = 0;
    for (std::uint64_t k = 0; k < 64; ++k) {
      double got = 0.0;
      if (cache.lookup(k, &got)) {
        ASSERT_NE(k % 3, 0u);
        ASSERT_EQ(got, static_cast<double>(k) * 1.5);
        ++present;
      }
    }
    ASSERT_EQ(cache.size(), present);
    ASSERT_EQ(present, 64u - 22u);  // 22 multiples of 3 in [0, 64)
  }
}

// ---------------------------------------------------------------------------
// Shared shard-count derivation (exec::kDefaultShards)
// ---------------------------------------------------------------------------

TEST(DefaultShardsTest, SweepCacheDerivesFromTheConstant) {
  EXPECT_EQ(serve::SweepCache(64).shard_count(), exec::kDefaultShards);
  // SweepCache clamps shards to capacity so every shard holds >= 1 sweep.
  EXPECT_EQ(serve::SweepCache(4).shard_count(), 4u);
  // Explicit overrides are honored.
  EXPECT_EQ(serve::SweepCache(64, 3).shard_count(), 3u);
}

TEST(DefaultShardsTest, SweepCacheInvalidateAtNonDefaultShards) {
  // Per-shard capacity is the even share (72 / 3 = 24), so even if every
  // key hashed to one shard nothing could be evicted mid-test.
  serve::SweepCache cache(72, 3);
  ASSERT_EQ(cache.shard_count(), 3u);
  const auto sweep = std::make_shared<const guide::Recommendation>();
  std::size_t aurora_gb = 0;
  for (int o = 0; o < 6; ++o) {
    for (const char* machine : {"aurora", "frontier"}) {
      for (const char* kind : {"gb", "rf"}) {
        serve::SweepKey key{machine, kind, 1, 10 + o, 40 + o};
        cache.put(key, sweep);
        if (std::string(machine) == "aurora" && std::string(kind) == "gb") {
          ++aurora_gb;
        }
      }
    }
  }
  const std::size_t before = cache.size();
  ASSERT_EQ(before, 24u);
  ASSERT_EQ(aurora_gb, 6u);
  EXPECT_EQ(cache.invalidate("aurora", "gb"), aurora_gb);
  EXPECT_EQ(cache.size(), before - aurora_gb);
  EXPECT_EQ(cache.get(serve::SweepKey{"aurora", "gb", 1, 10, 40}), nullptr);
  EXPECT_NE(cache.get(serve::SweepKey{"aurora", "rf", 1, 10, 40}), nullptr);
}

// ---------------------------------------------------------------------------
// exec::parallel_for
// ---------------------------------------------------------------------------

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0);
  exec::parallel_for(0, kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelForTest, PropagatesExceptions) {
  EXPECT_THROW(exec::parallel_for(0, 64,
                                  [&](std::size_t i) {
                                    if (i == 33) {
                                      throw std::runtime_error("task 33");
                                    }
                                  }),
               std::runtime_error);
}

TEST(ParallelForTest, EmptyRangeIsNoop) {
  int calls = 0;
  exec::parallel_for(5, 5, [&](std::size_t) { ++calls; });
  exec::parallel_for(7, 3, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelForTest, NestedLoopRunsSerially) {
  std::atomic<int> total{0};
  exec::parallel_for(0, 8, [&](std::size_t) {
    const std::thread::id outer = std::this_thread::get_id();
    exec::parallel_for(0, 8, [&](std::size_t) {
      EXPECT_EQ(std::this_thread::get_id(), outer);
      total.fetch_add(1);
    });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ParallelForTest, ArenaOverloadHandsOutWritableArenas) {
  constexpr std::size_t kN = 64;
  std::vector<double> sums(kN, 0.0);
  exec::parallel_for(0, kN, [&](std::size_t i, Arena& arena) {
    double* scratch = arena.alloc_array<double>(128);
    for (int j = 0; j < 128; ++j) {
      scratch[j] = static_cast<double>(i + static_cast<std::size_t>(j));
    }
    double s = 0.0;
    for (int j = 0; j < 128; ++j) s += scratch[j];
    sums[i] = s;
  });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(sums[i], 128.0 * static_cast<double>(i) + 8128.0);
  }
}

TEST(ParallelForTest, ShuffledLoopStillCoversEveryIndex) {
  constexpr std::size_t kN = 500;
  for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL}) {
    ShuffleGuard guard(seed);
    std::vector<std::atomic<int>> hits(kN);
    for (auto& h : hits) h.store(0);
    exec::parallel_for(0, kN, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < kN; ++i) ASSERT_EQ(hits[i].load(), 1);
  }
}

// ---------------------------------------------------------------------------
// Determinism suite: shuffled executor runs vs serial reference
// ---------------------------------------------------------------------------

/// Campaign generation with an adversarially shuffled task order must
/// reproduce the oracle's from-scratch labels bit for bit.
TEST(ExecDeterminismTest, ShuffledCampaignMatchesReference) {
  const sim::CcsdSimulator simulator{sim::MachineModel::aurora()};
  const auto& problems = data::problems_for("aurora");

  data::GeneratorOptions opt;
  opt.target_total = 400;
  const data::Dataset natural =
      data::generate_dataset(simulator, problems, opt);
  const std::vector<double> labels =
      oracle::campaign_labels(simulator, natural, opt.seed);

  for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL}) {
    ShuffleGuard guard(seed);
    const data::Dataset shuffled =
        data::generate_dataset(simulator, problems, opt);
    ASSERT_EQ(shuffled.size(), natural.size()) << "seed " << seed;
    for (std::size_t i = 0; i < natural.size(); ++i) {
      ASSERT_EQ(shuffled.config(i), natural.config(i))
          << "seed " << seed << " row " << i;
      ASSERT_EQ(shuffled.target(i), labels[i])
          << "seed " << seed << " row " << i;
    }
  }
}

/// STQ/BQ objective sweeps must not depend on the shuffled fan-out order.
TEST(ExecDeterminismTest, ShuffledSweepsMatchReference) {
  const sim::CcsdSimulator simulator{sim::MachineModel::aurora()};
  data::GeneratorOptions opt;
  opt.target_total = 400;
  const data::Dataset dataset =
      data::generate_dataset(simulator, data::problems_for("aurora"), opt);
  // The parallel sweep path only engages at >= 8 problem groups.
  ASSERT_GE(dataset.problems().size(), 8u);

  for (const auto objective :
       {guide::Objective::kShortestTime, guide::Objective::kNodeHours}) {
    const auto reference =
        guide::sweep_optimal_values(dataset, dataset.targets(), objective);
    for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL}) {
      ShuffleGuard guard(seed);
      const auto shuffled =
          guide::sweep_optimal_values(dataset, dataset.targets(), objective);
      ASSERT_EQ(shuffled.size(), reference.size());
      for (std::size_t g = 0; g < reference.size(); ++g) {
        ASSERT_EQ(shuffled[g].o, reference[g].o);
        ASSERT_EQ(shuffled[g].v, reference[g].v);
        ASSERT_EQ(shuffled[g].rows, reference[g].rows);
        ASSERT_EQ(shuffled[g].values, reference[g].values);
        ASSERT_EQ(shuffled[g].best.row, reference[g].best.row);
        ASSERT_EQ(shuffled[g].best.value, reference[g].best.value);
      }
    }
  }
}

/// Random-forest fits fan member trees over parallel_for; per-tree randomness
/// derives only from the member's seed, so a shuffled fit must produce a
/// bit-identical forest.
TEST(ExecDeterminismTest, ShuffledForestFitMatchesReference) {
  const sim::CcsdSimulator simulator{sim::MachineModel::aurora()};
  data::GeneratorOptions opt;
  opt.target_total = 300;
  const data::Dataset dataset =
      data::generate_dataset(simulator, data::problems_for("aurora"), opt);
  const linalg::Matrix x = dataset.features();
  const std::vector<double>& y = dataset.targets();

  ml::TreeOptions tree_opt;
  tree_opt.max_depth = 6;
  ml::RandomForestRegressor reference(16, tree_opt);
  reference.fit(x, y);
  const auto ref_pred = reference.predict(x);
  const auto ref_imp = reference.feature_importances();

  for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL}) {
    ShuffleGuard guard(seed);
    ml::RandomForestRegressor shuffled(16, tree_opt);
    shuffled.fit(x, y);
    ASSERT_EQ(shuffled.predict(x), ref_pred) << "seed " << seed;
    ASSERT_EQ(shuffled.feature_importances(), ref_imp) << "seed " << seed;
  }
}

/// A small aurora campaign shared by the model-fit determinism cases.
const data::Dataset& fit_campaign() {
  static const data::Dataset dataset = [] {
    const sim::CcsdSimulator simulator{sim::MachineModel::aurora()};
    data::GeneratorOptions opt;
    opt.target_total = 400;
    return data::generate_dataset(simulator, data::problems_for("aurora"),
                                  opt);
  }();
  return dataset;
}

/// Runs `run` unshuffled, then shuffled at seeds 1/7/42, and expects
/// bit-identical results.
template <typename Run>
void expect_shuffle_invariant(const Run& run) {
  const auto reference = run();
  for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL}) {
    ShuffleGuard guard(seed);
    EXPECT_EQ(run(), reference) << "seed " << seed;
  }
}

/// A boosting fit runs its residual update as a plain loop and calls no
/// parallel_for today; a shuffled fit must still produce bit-identical
/// stages, so any loop that later moves onto the pool stays order-free.
TEST(ExecDeterminismTest, ShuffledBoostingFitMatchesReference) {
  const data::Dataset& d = fit_campaign();
  const linalg::Matrix x = d.features();
  expect_shuffle_invariant([&] {
    ml::GradientBoostingRegressor gb(40, 0.1, ml::TreeOptions{.max_depth = 5});
    gb.fit(x, d.targets());
    return std::make_pair(gb.predict(x), gb.feature_importances());
  });
}

/// The GP fit, its incremental update and the predictive variances run the
/// kernel builds, the blocked Cholesky's panel and trailing-update stripes,
/// the multi-RHS triangular solves and the BLAS stripes over parallel_for.
TEST(ExecDeterminismTest, ShuffledGpMatchesReference) {
  const data::Dataset& d = fit_campaign();
  std::vector<std::size_t> head(300), tail(d.size() - 300);
  std::iota(head.begin(), head.end(), std::size_t{0});
  std::iota(tail.begin(), tail.end(), head.size());
  const data::Dataset first = d.select(head), rest = d.select(tail);
  expect_shuffle_invariant([&] {
    ml::GaussianProcessRegression gp(0.5, 1e-4, true, true);
    gp.fit(first.features(), first.targets());
    gp.update(rest.features(), rest.targets());
    std::vector<double> mean, std;
    gp.predict_with_std(d.features(), mean, std);
    return std::make_pair(mean, std);
  });
}

/// Cross-validation folds and grid-search candidates each fit their own
/// clone on their own folds, so shuffled runs must score identically.
TEST(ExecDeterminismTest, ShuffledCrossValidationAndGridSearchMatchReference) {
  const data::Dataset& d = fit_campaign();
  const linalg::Matrix x = d.features();
  const ml::GradientBoostingRegressor proto(20, 0.1,
                                            ml::TreeOptions{.max_depth = 3});
  const ml::ParamGrid grid = {{"max_depth", {2.0, 3.0}},
                              {"learning_rate", {0.05, 0.1}}};
  expect_shuffle_invariant([&] {
    Rng rng(5);
    const ml::CvResult cv = ml::cross_validate(proto, x, d.targets(), 4, rng);
    const ml::SearchResult gs = ml::grid_search(
        proto, grid, x, d.targets(), ml::SearchOptions{.refit = false});
    std::vector<double> values;
    for (const ml::Scores& f : cv.fold_scores) {
      values.insert(values.end(), {f.r2, f.mae, f.mape, f.rmse});
    }
    for (const ml::SearchTrial& t : gs.trials) values.push_back(t.value);
    return std::make_pair(values, gs.best_params);
  });
}

/// Committee members train in parallel from pre-derived seeds, so a
/// shuffled query must pick the same rows in the same order.
TEST(ExecDeterminismTest, ShuffledCommitteeQueryMatchesReference) {
  const ml::GradientBoostingRegressor proto(20, 0.1,
                                            ml::TreeOptions{.max_depth = 4});
  expect_shuffle_invariant([&] {
    Rng rng(11);
    const al::Pool pool(fit_campaign(), 60, rng);
    return al::QueryByCommittee(proto, 5).select(pool, proto, 25, rng);
  });
}

// ---------------------------------------------------------------------------
// Arena edge cases
// ---------------------------------------------------------------------------

TEST(ArenaTest, ZeroSizeAllocationsAreValidAndFree) {
  // A bufferless arena has no in-buffer pointer to hand out, so its
  // zero-size requests take the heap fallback.
  for (const std::size_t capacity : {std::size_t{1024}, std::size_t{0}}) {
    Arena arena(capacity);
    void* a = arena.allocate(0);
    ASSERT_NE(a, nullptr) << capacity;
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % kCacheLineAlign, 0u);
    EXPECT_EQ(arena.used(), 0u);
    void* b = arena.allocate(0);
    ASSERT_NE(b, nullptr) << capacity;
    EXPECT_EQ(arena.heap_fallbacks(), capacity == 0 ? 2u : 0u);
  }
}

TEST(ArenaTest, DefaultAlignmentIsCacheLine) {
  Arena arena;
  for (int i = 0; i < 10; ++i) {
    void* p = arena.allocate(24);  // deliberately not a multiple of 64
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % kCacheLineAlign, 0u);
  }
  double* d = arena.alloc_array<double>(7);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(d) % kCacheLineAlign, 0u);
}

TEST(ArenaTest, LargeAlignmentsAreHonored) {
  Arena arena(1 << 14);
  for (const std::size_t align : {std::size_t{128}, std::size_t{256},
                                  std::size_t{512}}) {
    void* p = arena.allocate(100, align);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % align, 0u) << align;
  }
  EXPECT_EQ(arena.heap_fallbacks(), 0u);
}

TEST(ArenaTest, OverCapacityFallsBackToHeap) {
  Arena arena(256);
  // Fits in the buffer: no fallback.
  void* small = arena.allocate(64);
  ASSERT_NE(small, nullptr);
  EXPECT_EQ(arena.heap_fallbacks(), 0u);
  // Does not fit: heap fallback, still aligned and fully writable.
  auto* big = static_cast<unsigned char*>(arena.allocate(4096, 128));
  ASSERT_NE(big, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(big) % 128, 0u);
  for (int i = 0; i < 4096; ++i) big[i] = static_cast<unsigned char>(i);
  EXPECT_EQ(arena.heap_fallbacks(), 1u);
  // reset() frees the overflow block; the counter stays cumulative.
  arena.reset();
  EXPECT_EQ(arena.used(), 0u);
  ASSERT_NE(arena.allocate(4096), nullptr);
  EXPECT_EQ(arena.heap_fallbacks(), 2u);
}

TEST(ArenaTest, BufferPagesAreResidentOnlyOnceWritten) {
  // 64 MiB is above glibc's largest mmap threshold (32 MiB), so the buffer
  // is always a fresh mapping, whose pages become resident only when
  // written. The slack covers the allocator's own writes (a sanitizer
  // fills the first 4 KiB of a block).
  constexpr std::size_t kBytes = std::size_t{64} << 20;
  constexpr std::size_t kSlack = 4;
  const auto page = static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
  Arena arena(kBytes);
  const auto start = reinterpret_cast<std::uintptr_t>(arena.allocate(kBytes));
  ASSERT_EQ(arena.heap_fallbacks(), 0u);
  // The whole pages inside the buffer; mincore takes a page-aligned start.
  auto* first =
      reinterpret_cast<unsigned char*>((start + page - 1) / page * page);
  const std::size_t pages = ((start + kBytes) / page * page -
                             reinterpret_cast<std::uintptr_t>(first)) / page;
  // A transparent huge page would make one write fault in 2 MiB.
  ::madvise(first, pages * page, MADV_NOHUGEPAGE);
  const auto resident = [&] {
    std::vector<unsigned char> state(pages);
    EXPECT_EQ(::mincore(first, pages * page, state.data()), 0);
    return static_cast<std::size_t>(std::count_if(
        state.begin(), state.end(), [](unsigned char v) { return v & 1; }));
  };
  EXPECT_LE(resident(), kSlack) << "of " << pages << " pages";
  for (const std::size_t p : {pages / 4, pages / 2, pages - 1}) {
    first[p * page] = 1;
  }
  const std::size_t touched = resident();
  EXPECT_GE(touched, 3u);
  EXPECT_LE(touched, 3 + kSlack);
}

TEST(ArenaTest, ResetReplaysIdenticalPointerSequence) {
  Arena arena(1 << 12);
  const auto take = [&arena] {
    std::vector<void*> ptrs;
    ptrs.push_back(arena.allocate(100));
    ptrs.push_back(arena.alloc_array<double>(33));
    ptrs.push_back(arena.allocate(1, 256));
    ptrs.push_back(arena.alloc_array<std::uint32_t>(9));
    return ptrs;
  };
  const auto first = take();
  const std::size_t used = arena.used();
  arena.reset();
  const auto second = take();
  EXPECT_EQ(first, second);
  EXPECT_EQ(arena.used(), used);
}

}  // namespace
}  // namespace ccpred
