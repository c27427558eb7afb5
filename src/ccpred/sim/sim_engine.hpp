#pragma once

/// \file sim_engine.hpp
/// Fast simulation engine: a memoized, batch-oriented front end to
/// CcsdSimulator.
///
/// Every reproduction artifact — campaign generation, STQ/BQ true-optima
/// sweeps, active-learning labeling — hits the same (O, V, nodes, tile)
/// grid thousands of times. The engine removes the redundancy without
/// changing a single bit of the results:
///
///  * SimCache — a sharded, thread-safe memo table keyed on
///    (machine, O, V, nodes, tile, noise-seed), an instantiation of the
///    executor layer's ShardedMemoCache. Seed 0 stores the noise-free
///    iteration time; measurement keys carry a per-(config, repeat)
///    stream seed.
///  * simulate_batch — dedupes a config list, groups it by (O, V, tile) so
///    the tiling/task-graph decomposition is built once per group instead
///    of once per point, and fans the groups over the shared ThreadPool.
///    Grouping scratch lives in a reused per-thread Arena, not the heap.
///  * measurement_stream_seed — a per-config RNG stream derivation, so a
///    config's noise draws do not depend on which other configs are
///    simulated, in which order, or on how many threads ran them. Serial,
///    parallel and cached paths are bit-identical by construction.
///
/// CcsdSimulator::iteration_time, one from-scratch simulation per call,
/// is the ground truth the tests and bench gates compare against with
/// operator==.

#include <cstdint>
#include <mutex>
#include <vector>

#include "ccpred/exec/sharded_cache.hpp"
#include "ccpred/sim/ccsd_simulator.hpp"

namespace ccpred::sim {

/// Batches with fewer independent work items than this run serially — the
/// pool handoff costs more than it saves. Shared by simulate_batch's group
/// fan-out and the campaign generator's labeling fan-out.
inline constexpr std::size_t kMinParallelBatch = 4;

/// Deterministic per-(campaign-seed, config) RNG stream seed. Mixing uses
/// the splitmix64 finalizer so nearby configs land in unrelated streams.
/// Every path (serial, parallel, cached) draws a config's noise from this
/// stream, which is what makes them bit-identical.
std::uint64_t measurement_stream_seed(std::uint64_t campaign_seed,
                                      const RunConfig& cfg);

/// Sharded, thread-safe memo table for simulated times — a thin facade over
/// exec::ShardedMemoCache that keeps the engine-facing Key/Stats vocabulary.
///
/// Keys carry a machine tag so one cache may serve several machines'
/// engines; seed 0 marks the noise-free iteration time, any other value a
/// specific measurement stream draw. The shard count derives from
/// exec::kDefaultShards (overridable for the property tests).
class SimCache {
 public:
  struct Key {
    std::uint64_t machine = 0;  ///< machine_tag(name)
    int o = 0;
    int v = 0;
    int nodes = 0;
    int tile = 0;
    std::uint64_t seed = 0;  ///< 0 = noise-free

    friend bool operator==(const Key&, const Key&) = default;
  };

  struct KeyHash {
    std::size_t operator()(const Key& k) const;
  };

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::size_t entries = 0;
  };

  explicit SimCache(std::size_t shards = exec::kDefaultShards)
      : cache_(shards) {}

  /// FNV-1a tag of a machine name (stable within and across processes).
  static std::uint64_t machine_tag(const std::string& name);

  /// Returns true and fills `*value` on a hit; counts the miss otherwise.
  bool lookup(const Key& key, double* value) const {
    return cache_.lookup(key, value);
  }

  /// Inserts (first writer wins on a race; values are identical anyway).
  void insert(const Key& key, double value) { cache_.insert(key, value); }

  /// Single-flight memoized compute; see ShardedMemoCache::get_or_compute.
  template <typename Fn>
  double get_or_compute(const Key& key, Fn&& fn) {
    return cache_.get_or_compute(key, std::forward<Fn>(fn));
  }

  Stats stats() const {
    const exec::MemoCacheStats st = cache_.stats();
    return Stats{st.hits, st.misses, st.entries};
  }

  void clear() { cache_.clear(); }

  std::size_t shard_count() const { return cache_.shard_count(); }

 private:
  mutable exec::ShardedMemoCache<Key, double, KeyHash> cache_;
};

/// Work counters for one engine (monotonic; read for bench reporting).
struct SimEngineStats {
  std::uint64_t graph_builds = 0;  ///< task-graph decompositions built
  std::uint64_t evaluations = 0;   ///< breakdowns evaluated (cache misses)
};

/// Memoized, batch-oriented simulator front end for one machine.
///
/// The engine never changes results: every API below is bit-identical to
/// the simulator's from-scratch iteration_time and its noise stream
/// (enforced by bench_sim_engine and the sim_engine tests).
class SimEngine {
 public:
  explicit SimEngine(const CcsdSimulator& simulator);

  const CcsdSimulator& simulator() const { return *simulator_; }
  SimCache& cache() { return cache_; }
  const SimCache& cache() const { return cache_; }
  SimEngineStats stats() const;

  /// Noise-free wall time of one iteration, memoized.
  double iteration_time(const RunConfig& cfg);

  /// Noise-free times for a config list: dedupes, reuses one task graph
  /// per (O, V, tile) group across its node counts, serves repeats from
  /// the cache and fans groups over the shared ThreadPool.
  std::vector<double> simulate_batch(const std::vector<RunConfig>& configs);

  /// The rep-th simulated measurement of `cfg` under `campaign_seed`:
  /// iteration_time(cfg) times the rep-th noise factor of the config's
  /// measurement stream. Independent of evaluation order across configs.
  double measured_time(const RunConfig& cfg, std::uint64_t campaign_seed,
                       int rep = 0);

  /// The first `reps` measurements of `cfg` (the rep axis drawn
  /// sequentially from the config's stream).
  std::vector<double> measured_series(const RunConfig& cfg,
                                      std::uint64_t campaign_seed, int reps);

 private:
  SimCache::Key key_for(const RunConfig& cfg, std::uint64_t seed = 0) const;

  const CcsdSimulator* simulator_;
  std::uint64_t machine_tag_ = 0;
  SimCache cache_;
  mutable std::mutex stats_mutex_;
  SimEngineStats stats_;
};

}  // namespace ccpred::sim
