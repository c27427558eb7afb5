#pragma once

/// \file scheduler.hpp
/// Deterministic list scheduling of tile tasks onto GPU workers.
///
/// TAMM's task-based runtime hands ready contraction tasks to idle GPUs;
/// for fixed-duration independent tasks this behaves like greedy
/// longest-processing-time (LPT) list scheduling. Because a tiled
/// contraction produces at most 2^k distinct task durations (full vs.
/// ragged tile per dimension), tasks arrive as (duration, count) groups
/// and the scheduler exploits that: a group with count >= workers loads
/// every worker evenly, and only remainders need the least-loaded search.

#include <cstdint>
#include <vector>

namespace ccpred::sim {

/// A set of identical tasks.
struct TaskGroup {
  double duration_s = 0.0;
  std::int64_t count = 0;
};

/// Greedy LPT makespan of the grouped task set on `workers` identical
/// workers. Groups are processed in descending duration; within a group,
/// whole multiples of `workers` are spread evenly and the remainder goes
/// to the currently least-loaded workers (lowest index on ties). Returns
/// the maximum worker load.
///
/// Worker loads are kept as runs of equal load in worker-index order, so
/// a group costs O((r + p) log r) for r runs and p heap pops (the daemon's
/// campaign calls see about a dozen runs and three pops per remainder),
/// plus, when count > w for w = workers, one index-order O(w) sum for the
/// water-fill's level. The remainder is a task-by-task greedy over a
/// min-heap of runs on (load, first index): a popped run's workers are the
/// least-loaded ones in index order, so each pop serves a whole run or
/// splits it. The rare water-fill overshoot clamp runs per worker, on a
/// max-heap on (top, lowest index); it costs O(surplus) pops, and since
/// each run's extra tasks are capped at the group's count, surplus <=
/// (w - 1) * count however tiny a duration is next to the loads. Results
/// are bit-identical to the previous per-worker implementation, which
/// tests keep as an oracle (tests/lpt_reference.hpp).
double lpt_makespan(std::vector<TaskGroup> groups, int workers);

/// Sum of duration*count over all groups (aggregate work).
double total_work(const std::vector<TaskGroup>& groups);

/// Total number of tasks.
std::int64_t total_tasks(const std::vector<TaskGroup>& groups);

}  // namespace ccpred::sim
