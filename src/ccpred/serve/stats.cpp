#include "ccpred/serve/stats.hpp"

#include <algorithm>
#include <cmath>

namespace ccpred::serve {

LatencyHistogram::Snapshot ServerStats::total_latency() const {
  LatencyHistogram::Snapshot total;
  for (const LatencyHistogram::Snapshot& verb : verb_latency) total += verb;
  return total;
}

double ServerStats::batch_size_quantile(double q) const {
  std::uint64_t total = 0;
  for (const std::uint64_t n : batch_sizes) total += n;
  if (total == 0) return 0.0;
  const auto rank =
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total)));
  std::uint64_t seen = 0;
  for (std::size_t size = 0; size < batch_sizes.size(); ++size) {
    seen += batch_sizes[size];
    if (seen >= rank) return static_cast<double>(size);
  }
  return static_cast<double>(batch_sizes.size() - 1);
}

ServerStats merge_stats(std::span<const ServerStats> parts) {
  ServerStats total;
  for (const ServerStats& s : parts) {
    for (const auto& c : kCounters) total.*c.member += s.*c.member;
    for (std::size_t v = 0; v < kNumOps; ++v) {
      total.verb_latency[v] += s.verb_latency[v];
    }
    add_counts(total.batch_sizes, s.batch_sizes);
    if (!s.online_enabled) continue;
    total.online_enabled = true;
    for (const auto& c : kOnlineCounters) {
      total.online.*c.member += s.online.*c.member;
    }
    total.online.rolling_mape =
        std::max(total.online.rolling_mape, s.online.rolling_mape);
  }
  return total;
}

}  // namespace ccpred::serve
