#pragma once

/// \file stats.hpp
/// The serving subsystem's observable state: one plain snapshot struct
/// filled by Server::stats() and rendered by the line protocol's `stats`
/// response, plus the one function that merges shard snapshots. Kept
/// dependency-free so both server.cpp and protocol.cpp can include it.

#include <cstddef>
#include <cstdint>
#include <span>

namespace ccpred::serve {

/// Number of protocol verbs (must match the Op enum in protocol.hpp, which
/// indexes the per-verb latency array below).
inline constexpr std::size_t kNumOps = 6;

/// Latency quantiles of one protocol verb.
struct VerbLatency {
  std::uint64_t count = 0;  ///< requests of this verb handled
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;  ///< exact worst observation, not bucket-quantized
};

/// Observable state of the online learning loop, as
/// online::OnlineTrainer::counters() reports it (zero when disabled).
struct OnlineStats {
  std::uint64_t reports = 0;       ///< report requests ingested
  std::uint64_t measurements = 0;  ///< individual wall times received
  std::uint64_t duplicates = 0;    ///< byte-exact repeats dropped
  std::uint64_t rejected = 0;      ///< invalid wall times dropped
  std::size_t buffered = 0;        ///< rows buffered across streams
  double rolling_mape = 0.0;       ///< worst stream's rolling MAPE
  std::uint64_t drift_events = 0;  ///< transitions into the drifting state
  std::uint64_t incremental_updates = 0;  ///< GP surrogate update() calls
  std::uint64_t refits = 0;               ///< background candidates trained
  std::uint64_t shadow_evals = 0;
  std::uint64_t promotions = 0;
  std::uint64_t promotions_rejected = 0;  ///< candidates that lost shadow eval
  std::uint64_t cache_invalidated = 0;    ///< sweeps dropped by promotions
};

/// Point-in-time snapshot of a running Server.
struct ServerStats {
  std::uint64_t requests = 0;        ///< requests handled (incl. errors)
  std::uint64_t errors = 0;          ///< requests answered with ok=false
  std::uint64_t sweeps_computed = 0; ///< full enumerate+predict sweeps run
  std::uint64_t coalesced = 0;       ///< requests that joined an in-flight sweep
  std::uint64_t cache_hits = 0;      ///< sweep-cache hits
  std::uint64_t cache_misses = 0;    ///< sweep-cache misses
  std::uint64_t cache_evictions = 0; ///< sweep-cache LRU evictions
  double cache_hit_rate = 0.0;       ///< hits / (hits + misses), 0 if unused
  std::size_t cache_size = 0;        ///< cached sweeps right now
  std::size_t queue_depth = 0;       ///< submitted but unfinished requests
  std::uint64_t deadline_exceeded = 0;  ///< requests answered code="deadline"
  std::uint64_t shed = 0;               ///< requests rejected code="overloaded"
  std::uint64_t stale_served = 0;       ///< ok answers from a stale model
  std::uint64_t reload_failures = 0;    ///< failed artifact load attempts
  std::uint64_t retries = 0;            ///< client retries recorded (serverd)
  std::uint64_t models_loaded = 0;   ///< registry artifact (re)loads
  std::uint64_t models_trained = 0;  ///< train-and-cache fallbacks taken
  double latency_p50_ms = 0.0;       ///< median request latency
  double latency_p95_ms = 0.0;       ///< tail request latency
  double latency_mean_ms = 0.0;      ///< mean request latency
  VerbLatency verb_latency[kNumOps];  ///< per-verb quantiles, Op order
  /// Dynamic micro-batching (BatchScheduler; all zero when disabled).
  std::uint64_t batched_requests = 0;  ///< requests dispatched in flushes >= 2
  std::uint64_t batch_flushes = 0;     ///< flushes of 2+ coalesced requests
  std::uint64_t batch_bypass = 0;      ///< size-1 dispatches (empty-queue path)
  double batch_size_p50 = 0.0;         ///< median dispatch size (incl. bypass)
  double batch_size_p95 = 0.0;         ///< tail dispatch size
  /// Connections the event loop closed for exceeding a buffer cap (fed by
  /// the daemon through Server::set_overflow_source).
  std::uint64_t overflow_closed = 0;
  bool online_enabled = false;        ///< online learning loop active
  OnlineStats online;
};

/// Fleet view of several shards' snapshots: counters and gauges sum, each
/// verb's `max_ms` and the online `rolling_mape` take the maximum, latency
/// quantiles are request-weighted means (per-verb ones weighted by that
/// verb's count), batch-size quantiles are weighted by dispatch count, and
/// `cache_hit_rate` is recomputed from the summed hits and misses.
/// Registry counters sum too; callers whose shards share one registry
/// overwrite them.
ServerStats merge_stats(std::span<const ServerStats> parts);

}  // namespace ccpred::serve
