#pragma once

/// \file stats.hpp
/// The serving subsystem's observable state: one plain snapshot struct
/// filled by Server::stats() and rendered by the line protocol's `stats`
/// response, and the one list of its counters.
///
/// A snapshot stores only counters and histograms:
///  * named counters (gauges such as `cache_size` included);
///  * one latency histogram per verb and the dispatch-size histogram;
///  * the online loop's `rolling_mape`.
///
/// Everything else is derived from that state when it is read: the cache
/// hit rate, the overall latency (the sum of the per-verb histograms) and
/// every quantile, mean and max.
///
/// kCounters and kOnlineCounters name each counter once, with its key in
/// the `stats` line. The binary wire codec and the JSON renderer loop over
/// them, so a new counter is one member and one line.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ccpred/common/latency_histogram.hpp"
#include "ccpred/common/lru_cache.hpp"

namespace ccpred::serve {

/// Number of protocol verbs (must match the Op enum in protocol.hpp, which
/// indexes the per-verb latency array below).
inline constexpr std::size_t kNumOps = 6;

/// Observable state of the online learning loop, as
/// online::OnlineTrainer::counters() reports it (zero when disabled).
struct OnlineStats {
  std::uint64_t reports = 0;       ///< report requests ingested
  std::uint64_t measurements = 0;  ///< individual wall times received
  std::uint64_t duplicates = 0;    ///< byte-exact repeats dropped
  std::uint64_t rejected = 0;      ///< invalid wall times dropped
  std::uint64_t buffered = 0;      ///< rows buffered across streams
  double rolling_mape = 0.0;       ///< worst stream's rolling MAPE
  std::uint64_t drift_events = 0;  ///< transitions into the drifting state
  std::uint64_t refits = 0;               ///< background candidates trained
  std::uint64_t shadow_evals = 0;
  std::uint64_t promotions = 0;
  std::uint64_t promotions_rejected = 0;  ///< candidates that lost shadow eval
  std::uint64_t cache_invalidated = 0;    ///< sweeps dropped by promotions

  bool operator==(const OnlineStats&) const = default;
};

/// Point-in-time snapshot of a running Server (see file comment).
struct ServerStats {
  std::uint64_t requests = 0;        ///< requests handled (incl. errors)
  std::uint64_t errors = 0;          ///< requests answered with ok=false
  std::uint64_t sweeps_computed = 0; ///< full enumerate+predict sweeps run
  std::uint64_t coalesced = 0;       ///< requests that joined a sweep in flight
  std::uint64_t cache_hits = 0;      ///< sweep-cache hits
  std::uint64_t cache_misses = 0;    ///< keys that led a new sweep; a request
                                     ///< joining one is coalesced, not a miss
  std::uint64_t cache_evictions = 0; ///< sweep-cache LRU evictions
  std::uint64_t cache_size = 0;      ///< cached sweeps right now
  std::uint64_t queue_depth = 0;     ///< submitted but unfinished requests
  std::uint64_t deadline_exceeded = 0;  ///< requests answered code="deadline"
  std::uint64_t shed = 0;               ///< requests rejected code="overloaded"
  std::uint64_t stale_served = 0;       ///< ok answers from a stale model
  std::uint64_t reload_failures = 0;    ///< failed artifact load attempts
  std::uint64_t models_loaded = 0;   ///< registry artifact (re)loads
  std::uint64_t models_trained = 0;  ///< train-and-cache fallbacks taken
  /// Dynamic micro-batching (BatchScheduler; all zero when disabled).
  std::uint64_t batched_requests = 0;  ///< requests dispatched in flushes >= 2
  std::uint64_t batch_flushes = 0;     ///< flushes of 2+ coalesced requests
  std::uint64_t batch_bypass = 0;      ///< size-1 dispatches (empty-queue path)
  /// Connections the event loop closed for exceeding a buffer cap (fed by
  /// the daemon through Server::set_overflow_source).
  std::uint64_t overflow_closed = 0;

  /// Handler latency of each verb's requests, in Op order.
  LatencyHistogram::Snapshot verb_latency[kNumOps];
  /// batch_sizes[s] counts dispatches of exactly s requests (bypasses
  /// included); no trailing zeros.
  std::vector<std::uint64_t> batch_sizes;

  bool online_enabled = false;  ///< online learning loop active
  OnlineStats online;

  bool operator==(const ServerStats&) const = default;

  /// hits / (hits + misses), 0 before the first probe.
  double cache_hit_rate() const {
    return CacheCounters{.hits = cache_hits, .misses = cache_misses}
        .hit_rate();
  }
  /// Every request's latency: the sum of the per-verb histograms.
  LatencyHistogram::Snapshot total_latency() const;
  /// The q-quantile of dispatch sizes (0 when nothing was dispatched).
  double batch_size_quantile(double q) const;
};

/// One counter of a snapshot: its key in the `stats` line and its member.
template <typename Stats>
struct Counter {
  const char* name;
  std::uint64_t Stats::*member;
};

/// Every ServerStats counter, in `stats` line order.
inline constexpr Counter<ServerStats> kCounters[] = {
    {"requests", &ServerStats::requests},
    {"errors", &ServerStats::errors},
    {"sweeps_computed", &ServerStats::sweeps_computed},
    {"coalesced", &ServerStats::coalesced},
    {"cache_hits", &ServerStats::cache_hits},
    {"cache_misses", &ServerStats::cache_misses},
    {"cache_evictions", &ServerStats::cache_evictions},
    {"cache_size", &ServerStats::cache_size},
    {"queue_depth", &ServerStats::queue_depth},
    {"deadline_exceeded", &ServerStats::deadline_exceeded},
    {"shed", &ServerStats::shed},
    {"stale_served", &ServerStats::stale_served},
    {"reload_failures", &ServerStats::reload_failures},
    {"models_loaded", &ServerStats::models_loaded},
    {"models_trained", &ServerStats::models_trained},
    {"batched_requests", &ServerStats::batched_requests},
    {"batch_flushes", &ServerStats::batch_flushes},
    {"batch_bypass", &ServerStats::batch_bypass},
    {"overflow_closed", &ServerStats::overflow_closed},
};

/// Every OnlineStats counter; present in the `stats` line only while the
/// online loop is enabled.
inline constexpr Counter<OnlineStats> kOnlineCounters[] = {
    {"online_reports", &OnlineStats::reports},
    {"online_measurements", &OnlineStats::measurements},
    {"online_duplicates", &OnlineStats::duplicates},
    {"online_rejected", &OnlineStats::rejected},
    {"online_buffered", &OnlineStats::buffered},
    {"online_drift_events", &OnlineStats::drift_events},
    {"online_refits", &OnlineStats::refits},
    {"online_shadow_evals", &OnlineStats::shadow_evals},
    {"online_promotions", &OnlineStats::promotions},
    {"online_promotions_rejected", &OnlineStats::promotions_rejected},
    {"online_cache_invalidated", &OnlineStats::cache_invalidated},
};

}  // namespace ccpred::serve
