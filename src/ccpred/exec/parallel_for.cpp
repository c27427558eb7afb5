#include "ccpred/exec/parallel_for.hpp"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <utility>
#include <vector>

#include "ccpred/common/thread_pool.hpp"
#include "ccpred/exec/sharded_cache.hpp"  // splitmix64, kGoldenGamma

namespace ccpred::exec {
namespace {

std::atomic<std::uint64_t> shuffle_seed{0};

/// True on a thread running a parallel_for chunk. A loop started there
/// runs serially: nested fan-out on a fixed-size pool would deadlock.
thread_local bool in_parallel_region = false;

/// Marks the calling thread as inside a chunk until the chunk ends, also
/// when its body throws.
class RegionGuard {
 public:
  RegionGuard() { in_parallel_region = true; }
  ~RegionGuard() { in_parallel_region = false; }
  RegionGuard(const RegionGuard&) = delete;
  RegionGuard& operator=(const RegionGuard&) = delete;
};

/// Fisher–Yates permutation of [begin, end) driven by the splitmix64
/// stream of `seed`.
std::vector<std::size_t> shuffled(std::size_t begin, std::size_t end,
                                  std::uint64_t seed) {
  std::vector<std::size_t> order(end - begin);
  std::iota(order.begin(), order.end(), begin);
  std::uint64_t state = seed;
  for (std::size_t i = order.size() - 1; i > 0; --i) {
    state += kGoldenGamma;
    std::swap(order[i], order[splitmix64(state) % (i + 1)]);
  }
  return order;
}

}  // namespace

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  const std::uint64_t seed = shuffle_seed.load(std::memory_order_relaxed);
  const std::vector<std::size_t> order =
      seed == 0 ? std::vector<std::size_t>() : shuffled(begin, end, seed);

  ThreadPool& pool = ThreadPool::global();
  const std::size_t workers =
      in_parallel_region ? 1 : std::min(pool.size(), n);
  const std::size_t chunk = (n + workers - 1) / workers;
  const std::size_t chunks = (n + chunk - 1) / chunk;

  // Runs chunk c: positions [c * chunk, (c + 1) * chunk) of the visiting
  // order.
  const auto run_chunk = [&](std::size_t c) {
    const std::size_t hi = std::min(n, (c + 1) * chunk);
    for (std::size_t k = c * chunk; k < hi; ++k) {
      body(order.empty() ? begin + k : order[k]);
    }
  };

  if (chunks == 1) {
    run_chunk(0);
    return;
  }
  TaskGroup group(pool);
  for (std::size_t c = 0; c < chunks; ++c) {
    group.run([&run_chunk, c] {
      const RegionGuard region;
      run_chunk(c);
    });
  }
  group.wait();  // rethrows the first chunk exception, if any
}

void set_shuffle_for_testing(std::uint64_t seed) {
  shuffle_seed.store(seed, std::memory_order_relaxed);
}

}  // namespace ccpred::exec
