#pragma once

/// \file fault_injector.hpp
/// Deterministic fault injection for the serving layer. Chaos tests (and
/// operators rehearsing failure drills) arm an injector with per-point
/// probabilities; the server, registry, sweep cache and online trainer
/// consult it at seven injection points:
///
///  * kArtifactRead  — a registry read of an artifact from disk (a first
///    load or a hot reload) throws as if the file were unreadable,
///    exercising the registry's stale-while-revalidate path. A model the
///    registry publish()es was fitted in-process and is never read back,
///    so publishing consumes no arrival here;
///  * kSweepCompute  — an enumerate+predict sweep is slowed down,
///    exercising deadlines and single-flight waiting;
///  * kWorkerStall   — a worker stalls before handling a request,
///    exercising queue backpressure and load shedding;
///  * kCacheShard    — a cache shard's mutex is held longer, exercising
///    contention between requests that hash to the same shard;
///  * kReportIngest  — feedback-report ingestion is slowed, exercising
///    report storms against the online-learning buffers;
///  * kRefitStall    — a background full refit stalls mid-flight,
///    exercising drift recovery under slow retraining;
///  * kPromotionRace — the window between a passed shadow evaluation and
///    the atomic republish is stretched, exercising promotion races.
///
/// Every decision is a pure function of (seed, point, arrival index): the
/// Nth arrival at a point always draws the same verdict and the same delay,
/// so a chaos run's fault schedule is bit-reproducible from its seed. The
/// injector is compiled in always; production code holds a null pointer
/// (or a default-constructed injector with all probabilities zero), which
/// costs one branch on the happy path.

#include <atomic>
#include <cstdint>

namespace ccpred::serve {

/// Where a fault can be injected.
enum class FaultPoint : int {
  kArtifactRead = 0,   ///< registry artifact read from disk throws
  kSweepCompute = 1,   ///< sweep computation is delayed
  kWorkerStall = 2,    ///< request worker stalls before dispatch
  kCacheShard = 3,     ///< cache shard mutex held longer
  kReportIngest = 4,   ///< feedback-report ingestion is delayed
  kRefitStall = 5,     ///< background full refit stalls
  kPromotionRace = 6,  ///< shadow-eval-to-republish window stretched
};

inline constexpr int kFaultPointCount = 7;

/// Human-readable name ("artifact_read", "sweep_compute", ...).
const char* fault_point_name(FaultPoint point);

/// Per-point probabilities and base delays. All probabilities default to
/// zero: a default-constructed injector never fires.
struct FaultOptions {
  std::uint64_t seed = 2025;

  double artifact_read_failure = 0.0;  ///< P(artifact read throws)
  double sweep_delay = 0.0;            ///< P(sweep is slowed)
  double sweep_delay_ms = 10.0;        ///< base sweep slowdown
  double worker_stall = 0.0;           ///< P(worker stalls)
  double worker_stall_ms = 5.0;        ///< base stall duration
  double cache_shard_hold = 0.0;       ///< P(shard lock held longer)
  double cache_shard_hold_ms = 2.0;    ///< base extra hold time
  double report_ingest = 0.0;          ///< P(report ingestion delayed)
  double report_ingest_ms = 2.0;       ///< base ingestion delay
  double refit_stall = 0.0;            ///< P(background refit stalls)
  double refit_stall_ms = 20.0;        ///< base refit stall
  double promotion_race = 0.0;         ///< P(promotion window stretched)
  double promotion_race_ms = 10.0;     ///< base promotion delay
};

/// Seeded, thread-safe fault source. fire()/maybe_delay() consume one
/// arrival at the point; the verdict for arrival N is deterministic.
class FaultInjector {
 public:
  /// All probabilities zero: never fires, near-zero cost.
  FaultInjector() = default;

  explicit FaultInjector(FaultOptions options);

  /// True if any injection point has a non-zero probability.
  bool enabled() const { return enabled_; }

  /// Consumes one arrival at `point`; true if a fault fires. The caller
  /// turns `true` into the point's failure mode (e.g. throwing).
  bool fire(FaultPoint point);

  /// Consumes one arrival at `point`; on a fault, sleeps for the point's
  /// jittered delay and returns it in ms (0.0 when nothing fired).
  double maybe_delay(FaultPoint point);

  /// The configured probability / base delay of a point.
  double probability(FaultPoint point) const;
  double base_delay_ms(FaultPoint point) const;

  /// Arrivals consumed / faults fired at a point so far.
  std::uint64_t arrivals(FaultPoint point) const;
  std::uint64_t injected(FaultPoint point) const;

  const FaultOptions& options() const { return options_; }

  /// The deterministic uniform draw in [0, 1) behind arrival `arrival` at
  /// `point` (salt 0 decides fire-or-not, salt 1 jitters the delay).
  /// Exposed so tests can predict a schedule without consuming arrivals.
  static double unit_draw(std::uint64_t seed, FaultPoint point,
                          std::uint64_t arrival, std::uint64_t salt = 0);

  /// The jittered delay (ms) arrival `arrival` at `point` would sleep
  /// under `options`, or 0.0 if the arrival does not fire. Pure function:
  /// the whole fault schedule can be reconstructed from the options alone.
  static double delay_for(const FaultOptions& options, FaultPoint point,
                          std::uint64_t arrival);

 private:
  FaultOptions options_{};
  bool enabled_ = false;
  std::atomic<std::uint64_t> arrivals_[kFaultPointCount] = {};
  std::atomic<std::uint64_t> injected_[kFaultPointCount] = {};
};

}  // namespace ccpred::serve
