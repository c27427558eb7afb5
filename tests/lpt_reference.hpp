#pragma once

/// \file lpt_reference.hpp
/// Test-only oracle for sim::lpt_makespan: the previous implementation,
/// kept verbatim. It runs the same greedy with two O(workers) searches per
/// step (a full rescan per overshoot removal, a fresh heap per remainder),
/// so its answers are the bit-exact specification the production
/// scheduler must reproduce.

#include <algorithm>
#include <cmath>
#include <functional>
#include <utility>
#include <vector>

#include "ccpred/common/error.hpp"
#include "ccpred/sim/scheduler.hpp"

namespace ccpred::test {

inline double lpt_makespan_reference(std::vector<sim::TaskGroup> groups,
                                     int workers) {
  using sim::TaskGroup;
  CCPRED_CHECK_MSG(workers > 0, "need at least one worker");
  std::erase_if(groups, [](const TaskGroup& g) { return g.count == 0; });
  if (groups.empty()) return 0.0;
  for (const auto& g : groups) {
    CCPRED_CHECK_MSG(g.duration_s >= 0.0 && g.count >= 0,
                     "task group must have non-negative duration and count");
  }
  std::sort(groups.begin(), groups.end(),
            [](const TaskGroup& a, const TaskGroup& b) {
              return a.duration_s > b.duration_s;
            });

  const auto w = static_cast<std::size_t>(workers);

  // One worker executes everything back to back.
  if (w == 1) return sim::total_work(groups);

  // Fewer tasks than workers: every task lands on its own idle worker, so
  // the makespan is the longest task (groups are sorted descending).
  if (sim::total_tasks(groups) <= workers) return groups.front().duration_s;

  std::vector<double> load(w, 0.0);
  std::vector<std::int64_t> extra(w, 0);
  using Entry = std::pair<double, std::size_t>;
  std::vector<Entry> heap;
  heap.reserve(w);

  // Greedy assignment of `count` identical tasks of duration d: each task
  // goes to the currently least-loaded worker.
  auto assign_greedy = [&](double d, std::int64_t count) {
    if (count <= 0 || d == 0.0) {
      return;
    }
    if (count > static_cast<std::int64_t>(w)) {
      // Water-fill bulk step: greedy raises the lowest loads toward the
      // common level T = (sum load + count*d) / w. Pre-assign the whole
      // multiples and leave the (O(w)-sized) remainder to the exact heap.
      double total = static_cast<double>(count) * d;
      for (double l : load) total += l;
      const double level = total / static_cast<double>(w);
      std::int64_t assigned = 0;
      for (std::size_t i = 0; i < w; ++i) {
        const auto n = static_cast<std::int64_t>(
            std::floor((level - load[i]) / d));
        extra[i] = std::max<std::int64_t>(0, n);
        assigned += extra[i];
      }
      // Clamp overshoot (possible when some workers sit above the level):
      // remove tasks from the workers that ended up highest.
      while (assigned > count) {
        std::size_t arg = 0;
        double best = -1.0;
        for (std::size_t i = 0; i < w; ++i) {
          if (extra[i] == 0) continue;
          const double top = load[i] + static_cast<double>(extra[i]) * d;
          if (top > best) {
            best = top;
            arg = i;
          }
        }
        --extra[arg];
        --assigned;
      }
      for (std::size_t i = 0; i < w; ++i) {
        load[i] += static_cast<double>(extra[i]) * d;
      }
      count -= assigned;
      if (count == 0) return;
    }
    // Exact greedy for the remaining (< w) tasks, on a reused binary heap.
    heap.clear();
    for (std::size_t i = 0; i < w; ++i) heap.emplace_back(load[i], i);
    std::make_heap(heap.begin(), heap.end(), std::greater<>{});
    for (std::int64_t t = 0; t < count; ++t) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
      auto& [l, i] = heap.back();
      l += d;
      load[i] = l;
      std::push_heap(heap.begin(), heap.end(), std::greater<>{});
    }
  };

  for (const auto& g : groups) assign_greedy(g.duration_s, g.count);
  return *std::max_element(load.begin(), load.end());
}

}  // namespace ccpred::test
