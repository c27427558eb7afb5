#pragma once

/// \file feedback_buffer.hpp
/// Bounded, dedup-keyed, thread-safe store of measured runs reported back
/// by users — the raw material of the serving layer's online learning
/// loop. The buffer keeps the most recent `capacity` distinct
/// measurements per stream (oldest evicted first) and drops exact
/// duplicates, so a client retry loop re-delivering the same report can
/// never skew training toward repeated rows.
///
/// A "duplicate" is byte-exact: same (o, v, nodes, tile) and the same
/// wall-time bit pattern. Two genuinely independent measurements of the
/// same configuration differ in their noise and are both kept.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <unordered_set>
#include <vector>

namespace ccpred::serve::online {

/// One user-reported measurement.
struct MeasuredRun {
  int o = 0;
  int v = 0;
  int nodes = 0;
  int tile = 0;
  double wall_time_s = 0.0;  ///< measured per-iteration wall time
};

/// Outcome of one add() call.
enum class AddResult {
  kAccepted,   ///< stored (possibly evicting the oldest row)
  kDuplicate,  ///< byte-identical to a buffered row; dropped
  kRejected,   ///< non-finite or non-positive wall time; dropped
};

/// Bounded FIFO of measured runs with duplicate suppression. Thread-safe.
class FeedbackBuffer {
 public:
  explicit FeedbackBuffer(std::size_t capacity);

  /// Stores `run` unless it is invalid or a byte-exact duplicate of a
  /// buffered row. When the buffer is full the oldest row (and its dedup
  /// key) is evicted first.
  AddResult add(const MeasuredRun& run);

  /// Chronological copy (oldest first) of everything buffered.
  std::vector<MeasuredRun> snapshot() const;

  std::size_t size() const;

  /// Total rows ever accepted (monotonic; eviction does not decrease it).
  std::uint64_t accepted() const;

 private:
  struct DedupKey {
    int o, v, nodes, tile;
    std::uint64_t wall_bits;

    friend bool operator==(const DedupKey&, const DedupKey&) = default;
  };
  struct DedupKeyHash {
    std::size_t operator()(const DedupKey& k) const;
  };

  static DedupKey key_of(const MeasuredRun& run);

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::deque<MeasuredRun> runs_;  ///< front = oldest
  std::unordered_set<DedupKey, DedupKeyHash> keys_;
  std::uint64_t accepted_ = 0;
};

}  // namespace ccpred::serve::online
