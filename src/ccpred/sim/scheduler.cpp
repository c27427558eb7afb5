#include "ccpred/sim/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "ccpred/common/error.hpp"

namespace ccpred::sim {

namespace {

/// Workers [first, first + len), all carrying `load`.
struct Run {
  double load = 0.0;
  std::size_t first = 0;
  std::size_t len = 0;
};

/// Appends `len` workers of `load` starting at `first` (the next index
/// after `runs`), extending the last run when the loads are equal.
void append_run(std::vector<Run>& runs, double load, std::size_t first,
                std::size_t len) {
  if (!runs.empty() && runs.back().load == load) {
    runs.back().len += len;
  } else {
    runs.push_back({load, first, len});
  }
}

}  // namespace

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

  // Worker loads as runs of equal load, tiling [0, w) in index order.
  std::vector<Run> runs{{0.0, 0, w}};
  std::vector<Run> rebuilt;
  std::vector<std::int64_t> run_extra;

  // Greedy assignment of `count` identical tasks of duration d: each task
  // goes to the currently least-loaded worker, lowest index on ties.
  auto assign_greedy = [&](double d, std::int64_t count) {
    if (count <= 0 || d == 0.0) {
      return;
    }
    if (count > static_cast<std::int64_t>(w)) {
      // Water-fill bulk step: greedy raises the lowest loads toward the
      // common level T = (sum load + count*d) / w. Pre-assign the whole
      // multiples and leave the remainder to the exact step. The sum adds
      // every worker's load in index order, so it rounds as the per-worker
      // greedy's does; outside the clamp it is the only per-worker step.
      double total = static_cast<double>(count) * d;
      for (const Run& r : runs) {
        for (std::size_t k = 0; k < r.len; ++k) total += r.load;
      }
      const double level = total / static_cast<double>(w);
      std::int64_t assigned = 0;
      run_extra.resize(runs.size());
      for (std::size_t j = 0; j < runs.size(); ++j) {
        // Capped at `count`, compared as a double before the cast: with d
        // tiny next to unequal loads the quotient can exceed any task
        // count (or int64_t), but the greedy gives no worker more than
        // `count` of this group's tasks, so the clamp would pop the
        // surplus first anyway.
        const double n = std::floor((level - runs[j].load) / d);
        if (!(n > 0.0)) {
          run_extra[j] = 0;
        } else if (n >= static_cast<double>(count)) {
          run_extra[j] = count;
        } else {
          run_extra[j] = static_cast<std::int64_t>(n);
        }
        assigned += run_extra[j] * static_cast<std::int64_t>(runs[j].len);
      }
      rebuilt.clear();
      if (assigned > count) {
        // Clamp overshoot (possible when some workers sit above the level):
        // remove tasks one by one from the worker whose top
        // load + extra*d is highest, lowest index on ties. It fires
        // rarely, so it runs per worker: a max-heap on (top, lowest index)
        // over the expanded runs, which are compressed again after.
        std::vector<double> load;
        std::vector<std::int64_t> extra;
        for (std::size_t j = 0; j < runs.size(); ++j) {
          load.insert(load.end(), runs[j].len, runs[j].load);
          extra.insert(extra.end(), runs[j].len, run_extra[j]);
        }
        using Entry = std::pair<double, std::size_t>;
        const auto below = [](const Entry& a, const Entry& b) {
          return a.first < b.first ||
                 (a.first == b.first && a.second > b.second);
        };
        std::vector<Entry> entries;
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
        for (std::size_t i = 0; i < w; ++i) {
          append_run(rebuilt, load[i] + static_cast<double>(extra[i]) * d, i,
                     1);
        }
      } else {
        for (std::size_t j = 0; j < runs.size(); ++j) {
          append_run(rebuilt,
                     runs[j].load + static_cast<double>(run_extra[j]) * d,
                     runs[j].first, runs[j].len);
        }
      }
      runs.swap(rebuilt);
      count -= assigned;
      if (count == 0) return;
    }
    // Exact greedy for the remaining tasks, on a min-heap of runs keyed on
    // (load, first index). Runs are disjoint index intervals, so the
    // popped run's workers are the least-loaded ones, in index order: the
    // whole run takes one task each, or its first `count` workers do and
    // the run splits there.
    const auto after = [](const Run& a, const Run& b) {
      return a.load > b.load || (a.load == b.load && a.first > b.first);
    };
    std::make_heap(runs.begin(), runs.end(), after);
    while (count > 0) {
      std::pop_heap(runs.begin(), runs.end(), after);
      Run& r = runs.back();
      const double next = r.load + d;
      // Absorbed: the least-loaded worker's load never changes again.
      if (next == r.load) break;
      if (count < static_cast<std::int64_t>(r.len)) {
        const auto served = static_cast<std::size_t>(count);
        const Run rest{r.load, r.first + served, r.len - served};
        r = {next, r.first, served};
        runs.push_back(rest);
        break;
      }
      count -= static_cast<std::int64_t>(r.len);
      r.load = next;
      std::push_heap(runs.begin(), runs.end(), after);
    }
    std::sort(runs.begin(), runs.end(), [](const Run& a, const Run& b) {
      return a.first < b.first;
    });
    rebuilt.clear();
    for (const Run& r : runs) append_run(rebuilt, r.load, r.first, r.len);
    runs.swap(rebuilt);
  };

  for (const auto& g : groups) assign_greedy(g.duration_s, g.count);
  double makespan = 0.0;
  for (const Run& r : runs) makespan = std::max(makespan, r.load);
  return makespan;
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
