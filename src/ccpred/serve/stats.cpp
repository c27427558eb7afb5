#include "ccpred/serve/stats.hpp"

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

}  // namespace ccpred::serve
