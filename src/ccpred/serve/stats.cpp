#include "ccpred/serve/stats.hpp"

#include <algorithm>

namespace ccpred::serve {
namespace {

/// `sum / weight`, or 0 when nothing was weighed.
double weighted_mean(double sum, std::uint64_t weight) {
  return weight == 0 ? 0.0 : sum / static_cast<double>(weight);
}

}  // namespace

ServerStats merge_stats(std::span<const ServerStats> parts) {
  ServerStats total;
  for (const ServerStats& s : parts) {
    total.requests += s.requests;
    total.errors += s.errors;
    total.sweeps_computed += s.sweeps_computed;
    total.coalesced += s.coalesced;
    total.cache_hits += s.cache_hits;
    total.cache_misses += s.cache_misses;
    total.cache_evictions += s.cache_evictions;
    total.cache_size += s.cache_size;
    total.queue_depth += s.queue_depth;
    total.deadline_exceeded += s.deadline_exceeded;
    total.shed += s.shed;
    total.stale_served += s.stale_served;
    total.reload_failures += s.reload_failures;
    total.retries += s.retries;
    total.models_loaded += s.models_loaded;
    total.models_trained += s.models_trained;
    // Request-weighted latency means (a true fleet quantile would need
    // histogram merging; the weighted mean is stable and monotone).
    const auto requests = static_cast<double>(s.requests);
    total.latency_p50_ms += s.latency_p50_ms * requests;
    total.latency_p95_ms += s.latency_p95_ms * requests;
    total.latency_mean_ms += s.latency_mean_ms * requests;
    for (std::size_t v = 0; v < kNumOps; ++v) {
      const VerbLatency& in = s.verb_latency[v];
      VerbLatency& out = total.verb_latency[v];
      const auto count = static_cast<double>(in.count);
      out.count += in.count;
      out.p50_ms += in.p50_ms * count;
      out.p95_ms += in.p95_ms * count;
      out.p99_ms += in.p99_ms * count;
      // The fleet's worst observation is the max of the shard maxima —
      // exact, unlike the weighted quantile means.
      out.max_ms = std::max(out.max_ms, in.max_ms);
    }
    total.batched_requests += s.batched_requests;
    total.batch_flushes += s.batch_flushes;
    total.batch_bypass += s.batch_bypass;
    const auto dispatches =
        static_cast<double>(s.batch_flushes + s.batch_bypass);
    total.batch_size_p50 += s.batch_size_p50 * dispatches;
    total.batch_size_p95 += s.batch_size_p95 * dispatches;
    total.overflow_closed += s.overflow_closed;
    if (s.online_enabled) {
      total.online_enabled = true;
      total.online.reports += s.online.reports;
      total.online.measurements += s.online.measurements;
      total.online.duplicates += s.online.duplicates;
      total.online.rejected += s.online.rejected;
      total.online.buffered += s.online.buffered;
      total.online.rolling_mape =
          std::max(total.online.rolling_mape, s.online.rolling_mape);
      total.online.drift_events += s.online.drift_events;
      total.online.incremental_updates += s.online.incremental_updates;
      total.online.refits += s.online.refits;
      total.online.shadow_evals += s.online.shadow_evals;
      total.online.promotions += s.online.promotions;
      total.online.promotions_rejected += s.online.promotions_rejected;
      total.online.cache_invalidated += s.online.cache_invalidated;
    }
  }
  total.latency_p50_ms = weighted_mean(total.latency_p50_ms, total.requests);
  total.latency_p95_ms = weighted_mean(total.latency_p95_ms, total.requests);
  total.latency_mean_ms = weighted_mean(total.latency_mean_ms, total.requests);
  for (VerbLatency& out : total.verb_latency) {
    out.p50_ms = weighted_mean(out.p50_ms, out.count);
    out.p95_ms = weighted_mean(out.p95_ms, out.count);
    out.p99_ms = weighted_mean(out.p99_ms, out.count);
  }
  const std::uint64_t dispatches = total.batch_flushes + total.batch_bypass;
  total.batch_size_p50 = weighted_mean(total.batch_size_p50, dispatches);
  total.batch_size_p95 = weighted_mean(total.batch_size_p95, dispatches);
  total.cache_hit_rate = weighted_mean(static_cast<double>(total.cache_hits),
                                       total.cache_hits + total.cache_misses);
  return total;
}

}  // namespace ccpred::serve
