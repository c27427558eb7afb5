#pragma once

/// \file lru_cache.hpp
/// A bounded least-recently-used map with hit/miss/eviction counters — the
/// building block of the serving layer's sweep cache. Not thread-safe by
/// itself; concurrent users shard the key space and put one LruCache (plus
/// a mutex) per shard.

#include <cstddef>
#include <cstdint>
#include <list>
#include <optional>
#include <unordered_map>
#include <utility>

#include "ccpred/common/error.hpp"

namespace ccpred {

/// Running counters of one cache (or one shard).
struct CacheCounters {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;

  CacheCounters& operator+=(const CacheCounters& other) {
    hits += other.hits;
    misses += other.misses;
    evictions += other.evictions;
    return *this;
  }

  /// Hit fraction over all lookups (0 when never queried).
  double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

/// Fixed-capacity LRU map. get() refreshes recency; put() evicts the least
/// recently used entry once the capacity is exceeded. Values are returned
/// by copy, so callers typically store shared_ptr for large payloads.
template <typename K, typename V, typename Hash = std::hash<K>>
class LruCache {
 public:
  explicit LruCache(std::size_t capacity) : capacity_(capacity) {
    CCPRED_CHECK_MSG(capacity > 0, "LruCache capacity must be > 0");
  }

  /// Looks up `key`; refreshes its recency on a hit.
  std::optional<V> get(const K& key) {
    const auto it = index_.find(key);
    if (it == index_.end()) {
      ++counters_.misses;
      return std::nullopt;
    }
    ++counters_.hits;
    order_.splice(order_.begin(), order_, it->second);
    return it->second->second;
  }

  /// Inserts or overwrites `key`, making it most recent; evicts the least
  /// recent entry if the cache is over capacity afterwards.
  void put(const K& key, V value) {
    const auto it = index_.find(key);
    if (it != index_.end()) {
      it->second->second = std::move(value);
      order_.splice(order_.begin(), order_, it->second);
      return;
    }
    order_.emplace_front(key, std::move(value));
    index_[key] = order_.begin();
    if (index_.size() > capacity_) {
      index_.erase(order_.back().first);
      order_.pop_back();
      ++counters_.evictions;
    }
  }

  std::size_t size() const { return index_.size(); }
  std::size_t capacity() const { return capacity_; }
  const CacheCounters& counters() const { return counters_; }

  /// Erases every entry whose key satisfies `pred`; returns how many were
  /// dropped. Targeted invalidation (e.g. a promoted model dropping its
  /// machine's cached sweeps) — not an eviction, so counters are untouched.
  template <typename Pred>
  std::size_t erase_if(Pred pred) {
    std::size_t erased = 0;
    for (auto it = order_.begin(); it != order_.end();) {
      if (pred(it->first)) {
        index_.erase(it->first);
        it = order_.erase(it);
        ++erased;
      } else {
        ++it;
      }
    }
    return erased;
  }

 private:
  using Entry = std::pair<K, V>;

  std::size_t capacity_;
  std::list<Entry> order_;  ///< front = most recently used
  std::unordered_map<K, typename std::list<Entry>::iterator, Hash> index_;
  CacheCounters counters_;
};

}  // namespace ccpred
