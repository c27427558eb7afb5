#include "ccpred/serve/fault_injector.hpp"

#include <chrono>
#include <thread>

#include "ccpred/common/error.hpp"

namespace ccpred::serve {
namespace {

/// splitmix64 finalizer: a strong 64-bit mixer, the same construction the
/// library's Rng uses for seeding.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

int index_of(FaultPoint point) {
  const int i = static_cast<int>(point);
  CCPRED_CHECK_MSG(i >= 0 && i < kFaultPointCount,
                   "invalid fault point " << i);
  return i;
}

double point_probability(const FaultOptions& o, FaultPoint point) {
  switch (point) {
    case FaultPoint::kArtifactRead: return o.artifact_read_failure;
    case FaultPoint::kSweepCompute: return o.sweep_delay;
    case FaultPoint::kWorkerStall: return o.worker_stall;
    case FaultPoint::kCacheShard: return o.cache_shard_hold;
    case FaultPoint::kReportIngest: return o.report_ingest;
    case FaultPoint::kRefitStall: return o.refit_stall;
    case FaultPoint::kPromotionRace: return o.promotion_race;
  }
  return 0.0;
}

double point_base_delay_ms(const FaultOptions& o, FaultPoint point) {
  switch (point) {
    case FaultPoint::kSweepCompute: return o.sweep_delay_ms;
    case FaultPoint::kWorkerStall: return o.worker_stall_ms;
    case FaultPoint::kCacheShard: return o.cache_shard_hold_ms;
    case FaultPoint::kReportIngest: return o.report_ingest_ms;
    case FaultPoint::kRefitStall: return o.refit_stall_ms;
    case FaultPoint::kPromotionRace: return o.promotion_race_ms;
    case FaultPoint::kArtifactRead: return 0.0;  // fires by throwing
  }
  return 0.0;
}

}  // namespace

const char* fault_point_name(FaultPoint point) {
  switch (point) {
    case FaultPoint::kArtifactRead: return "artifact_read";
    case FaultPoint::kSweepCompute: return "sweep_compute";
    case FaultPoint::kWorkerStall: return "worker_stall";
    case FaultPoint::kCacheShard: return "cache_shard";
    case FaultPoint::kReportIngest: return "report_ingest";
    case FaultPoint::kRefitStall: return "refit_stall";
    case FaultPoint::kPromotionRace: return "promotion_race";
  }
  return "?";
}

FaultInjector::FaultInjector(FaultOptions options) : options_(options) {
  CCPRED_CHECK_MSG(options_.sweep_delay_ms >= 0.0 &&
                       options_.worker_stall_ms >= 0.0 &&
                       options_.cache_shard_hold_ms >= 0.0 &&
                       options_.report_ingest_ms >= 0.0 &&
                       options_.refit_stall_ms >= 0.0 &&
                       options_.promotion_race_ms >= 0.0,
                   "fault delays must be non-negative");
  enabled_ = options_.artifact_read_failure > 0.0 ||
             options_.sweep_delay > 0.0 || options_.worker_stall > 0.0 ||
             options_.cache_shard_hold > 0.0 || options_.report_ingest > 0.0 ||
             options_.refit_stall > 0.0 || options_.promotion_race > 0.0;
}

double FaultInjector::probability(FaultPoint point) const {
  return point_probability(options_, point);
}

double FaultInjector::base_delay_ms(FaultPoint point) const {
  return point_base_delay_ms(options_, point);
}

double FaultInjector::unit_draw(std::uint64_t seed, FaultPoint point,
                                std::uint64_t arrival, std::uint64_t salt) {
  std::uint64_t h =
      mix64(seed + 0x632be59bd9b4e019ULL *
                       (static_cast<std::uint64_t>(index_of(point)) + 1));
  h = mix64(h ^ mix64(arrival));
  if (salt != 0) h = mix64(h ^ salt);
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

double FaultInjector::delay_for(const FaultOptions& options, FaultPoint point,
                                std::uint64_t arrival) {
  if (unit_draw(options.seed, point, arrival, 0) >=
      point_probability(options, point)) {
    return 0.0;
  }
  // Jitter in [0.5, 1.5) x base so contention patterns are not lockstep.
  const double jitter = 0.5 + unit_draw(options.seed, point, arrival, 1);
  return point_base_delay_ms(options, point) * jitter;
}

bool FaultInjector::fire(FaultPoint point) {
  if (!enabled_) return false;
  const int i = index_of(point);
  const std::uint64_t n =
      arrivals_[i].fetch_add(1, std::memory_order_relaxed);
  if (unit_draw(options_.seed, point, n, 0) >= probability(point)) {
    return false;
  }
  injected_[i].fetch_add(1, std::memory_order_relaxed);
  return true;
}

double FaultInjector::maybe_delay(FaultPoint point) {
  if (!enabled_) return 0.0;
  const int i = index_of(point);
  const std::uint64_t n =
      arrivals_[i].fetch_add(1, std::memory_order_relaxed);
  const double ms = delay_for(options_, point, n);
  if (ms <= 0.0) return 0.0;
  injected_[i].fetch_add(1, std::memory_order_relaxed);
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
  return ms;
}

std::uint64_t FaultInjector::arrivals(FaultPoint point) const {
  return arrivals_[index_of(point)].load(std::memory_order_relaxed);
}

std::uint64_t FaultInjector::injected(FaultPoint point) const {
  return injected_[index_of(point)].load(std::memory_order_relaxed);
}

}  // namespace ccpred::serve
