#include "ccpred/serve/sweep_cache.hpp"

#include <utility>

#include "ccpred/common/error.hpp"

namespace ccpred::serve {

namespace {

std::size_t clamp_shards(std::size_t capacity, std::size_t shards) {
  CCPRED_CHECK_MSG(capacity > 0, "SweepCache capacity must be > 0");
  CCPRED_CHECK_MSG(shards > 0, "SweepCache needs at least one shard");
  return shards > capacity ? capacity : shards;
}

}  // namespace

SweepCache::SweepCache(std::size_t capacity, std::size_t shards)
    : cache_(clamp_shards(capacity, shards),
             (capacity + clamp_shards(capacity, shards) - 1) /
                 clamp_shards(capacity, shards)) {}

SweepPtr SweepCache::get(const SweepKey& key) {
  SweepPtr sweep;
  if (!cache_.lookup(key, &sweep)) return nullptr;
  return sweep;
}

void SweepCache::put(const SweepKey& key, SweepPtr sweep) {
  cache_.put(key, std::move(sweep));
}

std::size_t SweepCache::invalidate(const std::string& machine,
                                   const std::string& kind) {
  return cache_.erase_if([&](const SweepKey& key) {
    return key.machine == machine && key.kind == kind;
  });
}

CacheCounters SweepCache::counters() const {
  const exec::MemoCacheStats st = cache_.stats();
  CacheCounters total;
  total.hits = st.hits;
  total.misses = st.misses;
  total.evictions = st.evictions;
  return total;
}

std::size_t SweepCache::size() const { return cache_.size(); }

void SweepCache::set_fault_injector(FaultInjector* fault) {
  if (fault == nullptr) {
    cache_.set_lock_hook(nullptr);
    return;
  }
  cache_.set_lock_hook(
      [fault] { fault->maybe_delay(FaultPoint::kCacheShard); });
}

}  // namespace ccpred::serve
