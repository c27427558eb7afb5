#pragma once

/// \file latency_histogram.hpp
/// A lock-free latency histogram with geometric buckets. record() is a
/// few relaxed atomic adds on the hot path; snapshot() copies the state
/// into a plain Snapshot, which answers quantiles by scanning the bucket
/// counts and interpolating inside the winning bucket. Snapshots add
/// bucket by bucket, so the quantiles of a sum are the quantiles of the
/// pooled observations — the way ServerStats sums its per-verb
/// histograms into the overall latency.

#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

namespace ccpred {

/// Histogram over positive durations in seconds. Buckets are geometric:
/// bucket i covers [kMinSeconds * growth^i, kMinSeconds * growth^(i+1));
/// with 64 buckets from 1 µs growing by 1.5x the range spans past 10^5 s.
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 64;
  static constexpr double kMinSeconds = 1e-6;
  static constexpr double kGrowth = 1.5;

  /// A plain copy of a histogram's state.
  struct Snapshot {
    /// buckets[i] counts observations in bucket i; no trailing zeros, so
    /// an empty histogram has no entries and equal histograms compare
    /// equal.
    std::vector<std::uint64_t> buckets;
    std::uint64_t count = 0;   ///< sum of `buckets`
    std::uint64_t sum_ns = 0;  ///< sum of the observations, nanoseconds
    std::uint64_t max_ns = 0;  ///< largest observation, nanoseconds

    /// Pools `other`'s observations into this one: buckets, counts and
    /// sums add, and the max is the larger max.
    Snapshot& operator+=(const Snapshot& other);
    bool operator==(const Snapshot&) const = default;

    /// Quantile in seconds, q in [0, 1]; 0 when empty. Interpolates
    /// linearly inside the selected bucket, so the error is bounded by the
    /// bucket growth factor, and clamps to the exact max: with few samples
    /// the interpolation can overshoot it, and p50 <= p99 <= max must hold.
    double quantile(double q) const;
    /// Mean of the observations in seconds (0 when empty).
    double mean() const;
    /// Largest observation in seconds (0 when empty). Exact, not
    /// bucket-quantized — tail buckets are wide, so the p99/max pair tells
    /// apart "one slow request" from "a slow tail".
    double max() const;
  };

  LatencyHistogram() = default;

  /// Records one observation (thread-safe, wait-free).
  void record(double seconds);

  /// Records `n` observations of the same value in one shot — one add per
  /// field instead of per observation. Used by the batch dispatch path,
  /// where every member of a flush completes at the same instant.
  void record_n(double seconds, std::uint64_t n);

  /// The current state as a plain value.
  Snapshot snapshot() const;

  std::uint64_t count() const { return snapshot().count; }
  double quantile(double q) const { return snapshot().quantile(q); }
  double mean() const { return snapshot().mean(); }
  double max() const { return snapshot().max(); }

  void reset();

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  /// Sum in nanoseconds so the mean survives atomic accumulation.
  std::atomic<std::uint64_t> sum_ns_{0};
  /// Max in nanoseconds, maintained with a CAS loop.
  std::atomic<std::uint64_t> max_ns_{0};
};

/// Adds count vectors index by index into `into`, growing it as needed —
/// the merge rule of every histogram the serving stats carry.
void add_counts(std::vector<std::uint64_t>& into,
                const std::vector<std::uint64_t>& from);

}  // namespace ccpred
