#pragma once

/// \file sharded_cache.hpp
/// The executor layer's generic sharded memo cache.
///
/// It backs the serving layer's SweepCache (a bounded LRU of advisor
/// sweeps) and the model registry's single flight over train-and-cache.
/// Each shard is an LruCache under its own mutex; keys are distributed by
/// a mixed hash so shard choice and bucket choice stay uncorrelated.
///
/// It is also the project's one single flight: next to its LRU each shard
/// keeps the computations in flight as shared futures, so one lock decides
/// whether a key is cached, in flight or cold. claim() returns a cached
/// value, a flight to join, or a new flight the caller leads and resolves
/// with finish(); get_or_compute() is claim, compute, finish. A joiner may
/// stop waiting (a request deadline) without cancelling the flight.
///
/// Capacity semantics: `per_shard_capacity == 0` means unbounded (puts
/// never evict); a positive value bounds each shard with LRU eviction.
/// Shard count defaults to exec::kDefaultShards but any positive count
/// works, which is what the property tests exercise.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ccpred/common/error.hpp"
#include "ccpred/common/lru_cache.hpp"

namespace ccpred::exec {

/// splitmix64 finalizer: the strong 64-bit mix shared by shard selection,
/// the test shuffle order and the simulator's measurement-stream seeding.
inline std::uint64_t splitmix64(std::uint64_t z) {
  z ^= z >> 30;
  z *= 0xbf58476d1ce4e5b9ULL;
  z ^= z >> 27;
  z *= 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return z;
}

inline constexpr std::uint64_t kGoldenGamma = 0x9e3779b97f4a7c15ULL;

/// Default shard count of every sharded cache.
inline constexpr std::size_t kDefaultShards = 16;

/// Aggregated counters of one sharded cache.
struct MemoCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t coalesced = 0;  ///< claims that joined a flight in progress
  std::size_t entries = 0;
};

/// Thread-safe sharded memo cache; see the file comment for semantics.
template <typename K, typename V, typename Hash = std::hash<K>>
class ShardedMemoCache {
 public:
  explicit ShardedMemoCache(std::size_t shards = kDefaultShards,
                            std::size_t per_shard_capacity = 0) {
    CCPRED_CHECK_MSG(shards > 0, "ShardedMemoCache needs at least one shard");
    const std::size_t cap = per_shard_capacity == 0
                                ? std::numeric_limits<std::size_t>::max()
                                : per_shard_capacity;
    shards_.reserve(shards);
    for (std::size_t s = 0; s < shards; ++s) {
      shards_.push_back(std::make_unique<Shard>(cap));
    }
  }

  /// Returns true and fills `*value` on a hit (refreshing LRU recency);
  /// counts the miss otherwise.
  bool lookup(const K& key, V* value) const {
    Shard& s = shard_for(key);
    std::lock_guard<std::mutex> lock(s.mutex);
    if (lock_hook_) lock_hook_();
    auto hit = s.cache.get(key);
    if (!hit) return false;
    *value = std::move(*hit);
    return true;
  }

  /// Inserts or overwrites, making the key most recent.
  void put(const K& key, V value) {
    Shard& s = shard_for(key);
    std::lock_guard<std::mutex> lock(s.mutex);
    if (lock_hook_) lock_hook_();
    s.cache.put(key, std::move(value));
  }

  /// How a flight resolves. A failure travels as a string, not an
  /// exception_ptr: releasing an exception_ptr on a thread other than the
  /// one that set it runs refcounting inside (uninstrumented) libstdc++,
  /// which ThreadSanitizer reports as a race between leader and joiner.
  struct Outcome {
    std::optional<V> value;  ///< empty on failure
    std::string error;       ///< why, when value is empty
  };
  using Lead = std::shared_ptr<std::promise<Outcome>>;

  /// What claim() found: a cached value (`hit`), a flight to join (`flight`
  /// valid, `lead` null), or a new flight (`flight` and `lead` set) that
  /// the caller computes and must resolve with finish().
  struct Claim {
    std::optional<V> hit;
    std::shared_future<Outcome> flight;
    Lead lead;
  };

  /// Checks the cache and the in-flight table under one shard lock.
  /// Accounting: a hit counts as a hit, a joined flight as coalesced, a new
  /// flight as a miss — so hits + misses + coalesced equals the number of
  /// claims.
  Claim claim(const K& key) {
    Shard& s = shard_for(key);
    const std::lock_guard<std::mutex> lock(s.mutex);
    if (lock_hook_) lock_hook_();
    Claim c;
    if (const auto it = s.flights.find(key); it != s.flights.end()) {
      ++s.coalesced;
      c.flight = it->second;
      return c;
    }
    c.hit = s.cache.get(key);  // counts the hit, or the miss we now lead
    if (c.hit) return c;
    c.lead = std::make_shared<std::promise<Outcome>>();
    c.flight = c.lead->get_future().share();
    s.flights.emplace(key, c.flight);
    return c;
  }

  /// Resolves a flight the caller leads: caches a value (a failure caches
  /// nothing, so the next claim leads again), drops the flight and wakes
  /// its joiners.
  void finish(const K& key, const Lead& lead, Outcome outcome) {
    {
      Shard& s = shard_for(key);
      const std::lock_guard<std::mutex> lock(s.mutex);
      if (outcome.value) {
        if (lock_hook_) lock_hook_();
        s.cache.put(key, *outcome.value);
      }
      s.flights.erase(key);
    }
    lead->set_value(std::move(outcome));
  }

  /// Single-flight memoization: returns the cached value, or runs `fn` and
  /// caches its result. Concurrent callers of the same missing key coalesce
  /// onto one compute. If it throws, the computing caller rethrows its own
  /// exception and the joiners throw ccpred::Error with its message.
  template <typename Fn>
  V get_or_compute(const K& key, Fn&& fn) {
    Claim c = claim(key);
    if (c.hit) return std::move(*c.hit);
    if (c.lead == nullptr) {
      const Outcome& joined = c.flight.get();
      if (!joined.value) throw Error(joined.error);
      return *joined.value;
    }
    V value;
    try {
      value = fn();
    } catch (const std::exception& e) {
      finish(key, c.lead, Outcome{std::nullopt, e.what()});
      throw;
    } catch (...) {
      finish(key, c.lead, Outcome{std::nullopt, "compute failed"});
      throw;
    }
    finish(key, c.lead, Outcome{value, {}});
    return value;
  }

  /// Erases every entry whose key satisfies `pred` across all shards;
  /// returns how many were dropped (not counted as evictions).
  template <typename Pred>
  std::size_t erase_if(Pred pred) {
    std::size_t erased = 0;
    for (const auto& s : shards_) {
      std::lock_guard<std::mutex> lock(s->mutex);
      if (lock_hook_) lock_hook_();
      erased += s->cache.erase_if(pred);
    }
    return erased;
  }

  MemoCacheStats stats() const {
    MemoCacheStats total;
    for (const auto& s : shards_) {
      std::lock_guard<std::mutex> lock(s->mutex);
      const CacheCounters& c = s->cache.counters();
      total.hits += c.hits;
      total.misses += c.misses;
      total.evictions += c.evictions;
      total.coalesced += s->coalesced;
      total.entries += s->cache.size();
    }
    return total;
  }

  std::size_t size() const {
    std::size_t total = 0;
    for (const auto& s : shards_) {
      std::lock_guard<std::mutex> lock(s->mutex);
      total += s->cache.size();
    }
    return total;
  }

  std::size_t shard_count() const { return shards_.size(); }

  /// Test/chaos hook invoked while a shard mutex is held on every cache
  /// operation, finish() only when it caches a value (the SweepCache
  /// kCacheShard fault point). Pass an empty
  /// function to disarm. Not thread-safe against concurrent cache use —
  /// arm before sharing the cache.
  void set_lock_hook(std::function<void()> hook) {
    lock_hook_ = std::move(hook);
  }

 private:
  struct Shard {
    explicit Shard(std::size_t capacity) : cache(capacity) {}
    mutable std::mutex mutex;
    mutable LruCache<K, V, Hash> cache;
    std::unordered_map<K, std::shared_future<Outcome>, Hash> flights;
    mutable std::uint64_t coalesced = 0;
  };

  Shard& shard_for(const K& key) const {
    // A different mix than the bucket hash so shard choice and bucket
    // choice are uncorrelated.
    const std::uint64_t h = splitmix64(
        static_cast<std::uint64_t>(Hash{}(key)) + kGoldenGamma);
    return *shards_[h % shards_.size()];
  }

  std::vector<std::unique_ptr<Shard>> shards_;
  std::function<void()> lock_hook_;
};

}  // namespace ccpred::exec
