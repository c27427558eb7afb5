#include "ccpred/sim/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <utility>

#include "ccpred/common/error.hpp"

namespace ccpred::sim {

double lpt_makespan(std::vector<TaskGroup> groups, int workers) {
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
  if (w == 1) return total_work(groups);

  // Fewer tasks than workers: every task lands on its own idle worker, so
  // the makespan is the longest task (groups are sorted descending).
  if (total_tasks(groups) <= workers) return groups.front().duration_s;

  std::vector<double> load(w, 0.0);
  std::vector<std::int64_t> extra(w, 0);
  // (key, worker) pairs. Ordered lexicographically, the smallest
  // (load, worker) pair is the worker greedy picks next: least loaded,
  // lowest index on ties.
  using Entry = std::pair<double, std::size_t>;
  std::vector<Entry> entries;
  entries.reserve(w);

  // Greedy assignment of `count` identical tasks of duration d: each task
  // goes to the currently least-loaded worker.
  auto assign_greedy = [&](double d, std::int64_t count) {
    if (count <= 0 || d == 0.0) {
      return;
    }
    if (count > static_cast<std::int64_t>(w)) {
      // Water-fill bulk step: greedy raises the lowest loads toward the
      // common level T = (sum load + count*d) / w. Pre-assign the whole
      // multiples and leave the (O(w)-sized) remainder to the exact step.
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
      if (assigned > count) {
        // Clamp overshoot (possible when some workers sit above the level):
        // remove tasks one by one from the worker whose top
        // load + extra*d is highest, lowest index on ties. A max-heap on
        // (top, lowest index) finds it without rescanning every worker.
        const auto below = [](const Entry& a, const Entry& b) {
          return a.first < b.first ||
                 (a.first == b.first && a.second > b.second);
        };
        entries.clear();
        for (std::size_t i = 0; i < w; ++i) {
          if (extra[i] == 0) continue;
          entries.emplace_back(load[i] + static_cast<double>(extra[i]) * d, i);
        }
        std::make_heap(entries.begin(), entries.end(), below);
        for (; assigned > count; --assigned) {
          std::pop_heap(entries.begin(), entries.end(), below);
          const std::size_t i = entries.back().second;
          if (--extra[i] == 0) {
            entries.pop_back();
            continue;
          }
          entries.back().first = load[i] + static_cast<double>(extra[i]) * d;
          std::push_heap(entries.begin(), entries.end(), below);
        }
      }
      for (std::size_t i = 0; i < w; ++i) {
        load[i] += static_cast<double>(extra[i]) * d;
      }
      count -= assigned;
      if (count == 0) return;
    }
    // Exact greedy for the remaining (<= w) tasks. Greedy gives one task
    // each to the `count` smallest (load, worker) entries whenever no
    // loaded entry (load + d, worker) of those ranks before the count-th
    // one; an nth_element pick then replaces `count` heap pops.
    entries.clear();
    for (std::size_t i = 0; i < w; ++i) entries.emplace_back(load[i], i);
    if (count <= static_cast<std::int64_t>(w)) {
      const auto nth = entries.begin() + (count - 1);
      std::nth_element(entries.begin(), nth, entries.end());
      const bool exact = std::all_of(
          entries.begin(), nth, [&](const Entry& e) {
            return *nth < Entry{e.first + d, e.second};
          });
      if (exact) {
        for (auto it = entries.begin(); it <= nth; ++it) load[it->second] += d;
        return;
      }
    }
    // Fallback: task-by-task greedy on a binary heap.
    std::make_heap(entries.begin(), entries.end(), std::greater<>{});
    for (std::int64_t t = 0; t < count; ++t) {
      std::pop_heap(entries.begin(), entries.end(), std::greater<>{});
      auto& [l, i] = entries.back();
      l += d;
      load[i] = l;
      std::push_heap(entries.begin(), entries.end(), std::greater<>{});
    }
  };

  for (const auto& g : groups) assign_greedy(g.duration_s, g.count);
  return *std::max_element(load.begin(), load.end());
}

double total_work(const std::vector<TaskGroup>& groups) {
  double s = 0.0;
  for (const auto& g : groups) s += g.duration_s * static_cast<double>(g.count);
  return s;
}

std::int64_t total_tasks(const std::vector<TaskGroup>& groups) {
  std::int64_t n = 0;
  for (const auto& g : groups) n += g.count;
  return n;
}

}  // namespace ccpred::sim
