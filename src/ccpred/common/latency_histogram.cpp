#include "ccpred/common/latency_histogram.hpp"

#include <algorithm>
#include <cmath>

namespace ccpred {
namespace {

std::size_t bucket_for(double seconds) {
  using H = LatencyHistogram;
  if (!(seconds > H::kMinSeconds)) return 0;
  const double i = std::log(seconds / H::kMinSeconds) / std::log(H::kGrowth);
  const auto bucket = static_cast<std::size_t>(i);
  return bucket >= H::kBuckets ? H::kBuckets - 1 : bucket;
}

double bucket_lower(std::size_t i) {
  return LatencyHistogram::kMinSeconds *
         std::pow(LatencyHistogram::kGrowth, static_cast<double>(i));
}

}  // namespace

void add_counts(std::vector<std::uint64_t>& into,
                const std::vector<std::uint64_t>& from) {
  if (into.size() < from.size()) into.resize(from.size());
  for (std::size_t i = 0; i < from.size(); ++i) into[i] += from[i];
}

LatencyHistogram::Snapshot& LatencyHistogram::Snapshot::operator+=(
    const Snapshot& other) {
  add_counts(buckets, other.buckets);
  count += other.count;
  sum_ns += other.sum_ns;
  max_ns = std::max(max_ns, other.max_ns);
  return *this;
}

double LatencyHistogram::Snapshot::quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target observation (1-based, ceil so q=1 is the max bucket).
  const auto rank =
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count)));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const std::uint64_t in_bucket = buckets[i];
    if (in_bucket == 0) continue;
    if (seen + in_bucket >= rank) {
      // Interpolate position-in-bucket between the bucket bounds.
      const double lo = bucket_lower(i);
      const double hi = lo * kGrowth;
      const double frac = static_cast<double>(rank - seen) /
                          static_cast<double>(in_bucket);
      return std::min(lo + (hi - lo) * frac, max());
    }
    seen += in_bucket;
  }
  return max();
}

double LatencyHistogram::Snapshot::mean() const {
  if (count == 0) return 0.0;
  return static_cast<double>(sum_ns) / 1e9 / static_cast<double>(count);
}

double LatencyHistogram::Snapshot::max() const {
  return static_cast<double>(max_ns) / 1e9;
}

void LatencyHistogram::record(double seconds) { record_n(seconds, 1); }

void LatencyHistogram::record_n(double seconds, std::uint64_t n) {
  if (n == 0) return;
  if (seconds < 0.0) seconds = 0.0;
  buckets_[bucket_for(seconds)].fetch_add(n, std::memory_order_relaxed);
  const auto ns = static_cast<std::uint64_t>(seconds * 1e9);
  sum_ns_.fetch_add(ns * n, std::memory_order_relaxed);
  std::uint64_t seen = max_ns_.load(std::memory_order_relaxed);
  while (ns > seen &&
         !max_ns_.compare_exchange_weak(seen, ns, std::memory_order_relaxed)) {
  }
}

LatencyHistogram::Snapshot LatencyHistogram::snapshot() const {
  Snapshot s;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    const std::uint64_t n = buckets_[i].load(std::memory_order_relaxed);
    if (n == 0) continue;
    s.buckets.resize(i + 1);
    s.buckets[i] = n;
    s.count += n;
  }
  s.sum_ns = sum_ns_.load(std::memory_order_relaxed);
  s.max_ns = max_ns_.load(std::memory_order_relaxed);
  return s;
}

void LatencyHistogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  sum_ns_.store(0, std::memory_order_relaxed);
  max_ns_.store(0, std::memory_order_relaxed);
}

}  // namespace ccpred
