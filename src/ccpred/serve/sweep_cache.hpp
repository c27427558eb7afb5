#pragma once

/// \file sweep_cache.hpp
/// Sharded LRU cache of completed advisor sweeps. A sweep for
/// (machine, model-version, O, V) answers every STQ/BQ/budget question
/// about that problem size, so caching it turns repeat questions — the
/// common case for a guidance service — into a hash lookup. Keys include
/// the model version: a hot-reloaded model invalidates by construction.
///
/// The sharded machinery itself is the executor layer's ShardedMemoCache,
/// which also keeps the sweeps in flight: the server claim()s each key and
/// the leader of a cold key finish()es it. This facade, the only cache
/// that shards it, keeps the serving vocabulary (SweepKey, invalidate,
/// FaultInjector arming) and takes its default shard count from
/// exec::kDefaultShards.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "ccpred/common/lru_cache.hpp"
#include "ccpred/exec/sharded_cache.hpp"
#include "ccpred/guidance/advisor.hpp"
#include "ccpred/serve/fault_injector.hpp"

namespace ccpred::serve {

/// Identity of one cached sweep.
struct SweepKey {
  std::string machine;
  std::string kind;             ///< model kind ("gb" | "rf")
  std::uint64_t model_version = 0;
  int o = 0;
  int v = 0;

  friend bool operator==(const SweepKey&, const SweepKey&) = default;
};

struct SweepKeyHash {
  std::size_t operator()(const SweepKey& k) const {
    std::size_t h = std::hash<std::string>()(k.machine);
    h = h * 1000003u ^ std::hash<std::string>()(k.kind);
    h = h * 1000003u ^ std::hash<std::uint64_t>()(k.model_version);
    h = h * 1000003u ^ std::hash<int>()(k.o);
    h = h * 1000003u ^ std::hash<int>()(k.v);
    return h;
  }
};

/// Immutable cached sweep (the kShortestTime recommendation, whose `sweep`
/// holds every feasible point — other objectives re-derive from it).
using SweepPtr = std::shared_ptr<const guide::Recommendation>;

/// Thread-safe sharded LRU over exec::ShardedMemoCache: each shard is an
/// LruCache under its own mutex; keys are distributed by hash, so
/// concurrent lookups for different problems rarely contend.
class SweepCache {
  using Cache = exec::ShardedMemoCache<SweepKey, SweepPtr, SweepKeyHash>;

 public:
  using Claim = Cache::Claim;
  using Lead = Cache::Lead;
  using Outcome = Cache::Outcome;

  /// `capacity` is total across shards (each shard gets its even share,
  /// at least 1). The shard count is clamped to the capacity so every
  /// shard holds at least one sweep.
  explicit SweepCache(std::size_t capacity,
                      std::size_t shards = exec::kDefaultShards);

  /// Returns the cached sweep or nullptr; refreshes LRU recency on hit.
  SweepPtr get(const SweepKey& key);

  /// The cached sweep, the flight computing it, or a new flight the caller
  /// leads (see ShardedMemoCache::claim).
  Claim claim(const SweepKey& key) { return cache_.claim(key); }

  /// Publishes a led flight's sweep (or its error) and wakes its joiners.
  void finish(const SweepKey& key, const Lead& lead, Outcome outcome) {
    cache_.finish(key, lead, std::move(outcome));
  }

  /// Inserts (or refreshes) a sweep.
  void put(const SweepKey& key, SweepPtr sweep);

  /// Drops every cached sweep for (machine, kind) across all shards —
  /// called after an online-model promotion so sweeps computed under the
  /// replaced version stop occupying cache slots. Returns the number of
  /// entries dropped (not counted as evictions).
  std::size_t invalidate(const std::string& machine, const std::string& kind);

  /// Counters aggregated over all shards.
  CacheCounters counters() const;

  /// Cached sweeps right now.
  std::size_t size() const;

  std::size_t shard_count() const { return cache_.shard_count(); }

  /// Arms the kCacheShard injection point: every claim and every published
  /// sweep holds the shard mutex for the injected extra time, simulating
  /// shard contention. The injector must outlive the cache; pass nullptr
  /// to disarm.
  void set_fault_injector(FaultInjector* fault);

 private:
  Cache cache_;
};

}  // namespace ccpred::serve
