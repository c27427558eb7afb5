#pragma once

/// \file parallel_for.hpp
/// The executor layer's one data-parallel loop, over ThreadPool::global().
///
/// Every data-parallel loop in ccpred — campaign labeling, STQ/BQ sweeps,
/// forest and committee fits, kernel builds, blocked Cholesky and BLAS
/// stripes, CV folds and search candidates — runs through this function,
/// so they share one set of rules:
///
///  * static chunking: indices are split into one contiguous chunk per
///    worker, so as long as iteration i writes only its own outputs and
///    derives its randomness from its own stream, the result is bitwise
///    identical at any worker count;
///  * nested calls run serially: a loop called from inside a chunk runs on
///    the calling thread, because nested fan-out on a fixed-size pool
///    would deadlock;
///  * the first exception thrown by any iteration is rethrown to the
///    caller after every chunk has finished;
///  * the arena overload hands each chunk a bump allocator for its
///    scratch, so hot loops stop calling malloc per iteration;
///  * shuffle injection for tests: set_shuffle_for_testing(seed) runs
///    every loop in a seed-derived random order. Correct loops are
///    iteration-order independent, so the determinism suite shuffles with
///    seeds 1/7/42 and asserts bit-identical outputs.

#include <cstddef>
#include <cstdint>
#include <functional>

#include "ccpred/exec/arena.hpp"

namespace ccpred::exec {

/// Runs body(i) for i in [begin, end) across the global pool and returns
/// once every iteration has finished; rethrows the first exception.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body);

/// Arena overload: body(i, arena) runs with its chunk's bump allocator.
/// Each chunk gets a fresh arena; nothing allocated from it outlives the
/// call.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t, Arena&)>& body);

/// Test hook: a non-zero seed makes every subsequent parallel_for visit
/// its indices in a seed-derived random order (in both the pooled and the
/// serial path); 0 restores natural order. Process-global, not thread-safe
/// against in-flight loops — set it between runs.
void set_shuffle_for_testing(std::uint64_t seed);

}  // namespace ccpred::exec
