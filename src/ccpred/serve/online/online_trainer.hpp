#pragma once

/// \file online_trainer.hpp
/// The closed-loop coordinator of the serving layer's online learning:
///
///   report -> FeedbackBuffer -> DriftDetector -> background refit
///          -> ShadowEvaluator -> atomic promotion -> cache invalidation
///
/// Per (machine, kind) stream the trainer:
///  * ingests user-reported measurements on the request worker: predicts
///    each reported configuration with the serving model, feeds the
///    (predicted, measured) pair to the drift detector, and buffers the
///    row (dedup-keyed, bounded);
///  * schedules a background full refit when drift trips: candidate = the
///    stream's model kind retrained on the registry's deterministic
///    fallback campaign blended with the buffered feedback (feedback rows
///    replicated `feedback_weight` times, so a few dozen reports can
///    outvote a 600-row campaign where they overlap);
///  * shadow-evaluates the candidate against the incumbent on a holdout of
///    the newest reports (excluded from training) and, only on a win,
///    promotes it with one ModelRegistry::publish() — the candidate is
///    streamed to its artifact (tmp + rename) and served as fitted, with
///    no read-back — and invalidates the affected sweep-cache shards.
///
/// A failed or losing refit changes nothing: the incumbent keeps serving
/// and the feedback keeps accumulating. All entry points are thread-safe.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "ccpred/common/thread_pool.hpp"
#include "ccpred/data/dataset.hpp"
#include "ccpred/serve/fault_injector.hpp"
#include "ccpred/serve/model_registry.hpp"
#include "ccpred/serve/online/drift_detector.hpp"
#include "ccpred/serve/online/feedback_buffer.hpp"
#include "ccpred/serve/online/shadow_evaluator.hpp"
#include "ccpred/serve/stats.hpp"
#include "ccpred/serve/sweep_cache.hpp"
#include "ccpred/sim/ccsd_simulator.hpp"

namespace ccpred::serve::online {

/// Online-learning knobs. The defaults suit a long-running daemon; tests
/// shrink the thresholds and wait_idle() for the background refits.
struct OnlineOptions {
  bool enabled = false;           ///< master switch (serverd --online)
  DriftOptions drift;             ///< rolling-MAPE drift detection
  std::size_t min_refit_rows = 32;  ///< buffered rows required to refit
  std::size_t holdout = 16;         ///< newest rows reserved for shadow eval
  /// Relative holdout-MAPE improvement required to promote (0 = any win).
  double min_improvement = 0.0;
  /// Each feedback row appears this many times in the candidate's training
  /// set, weighting recent truth against the synthetic campaign.
  std::size_t feedback_weight = 8;
};

/// What one report ingest did — echoed to the client.
struct ReportOutcome {
  std::size_t accepted = 0;    ///< measurements stored
  std::size_t duplicates = 0;  ///< byte-exact repeats dropped
  std::size_t rejected = 0;    ///< invalid wall times dropped
  std::size_t buffered = 0;    ///< stream buffer size afterwards
  double rolling_mape = 0.0;   ///< drift window MAPE afterwards
  bool drifting = false;
  bool refit_scheduled = false;
  std::uint64_t model_version = 0;  ///< model that scored the reports
};

/// See file comment. The registry (and cache, when given) must outlive the
/// trainer; the destructor drains in-flight background refits.
class OnlineTrainer {
 public:
  /// Measurements kept per stream.
  static constexpr std::size_t kBufferCapacity = 4096;

  /// Throws ccpred::Error on invalid options, the drift options included.
  OnlineTrainer(ModelRegistry& registry, SweepCache* cache,
                OnlineOptions options, FaultInjector* fault = nullptr);

  /// Ingests one report: `wall_times` are repeat measurements of `cfg` on
  /// `machine` under model `kind`. Throws ccpred::Error on unknown
  /// machines/kinds (same contract as ModelRegistry::get).
  ReportOutcome ingest(const std::string& machine, const std::string& kind,
                       const sim::RunConfig& cfg,
                       const std::vector<double>& wall_times);

  /// Point-in-time counters across all streams.
  OnlineStats counters() const;

  /// Blocks until no background refit is in flight. A refit scheduled by
  /// an ingest() that returned before this call has finished, and so has
  /// its promotion, when this returns.
  void wait_idle();

  const OnlineOptions& options() const { return options_; }

 private:
  /// All per-(machine, kind) state. `mutex` guards everything but the
  /// buffer (which locks itself — refits snapshot it without holding the
  /// stream lock).
  struct Stream {
    explicit Stream(const OnlineOptions& opt)
        : buffer(kBufferCapacity), drift(opt.drift) {}

    std::mutex mutex;
    FeedbackBuffer buffer;
    DriftDetector drift;
    bool was_drifting = false;
    bool refit_inflight = false;
  };

  Stream& stream(const std::string& machine, const std::string& kind);

  /// The background refit + shadow eval + promotion job. Never throws —
  /// a failed refit leaves the incumbent serving.
  void run_refit(const std::string& machine, const std::string& kind);

  /// The deterministic fallback campaign for `machine`, generated once and
  /// cached (refit path only).
  const data::Dataset& campaign(const std::string& machine);

  ModelRegistry& registry_;
  SweepCache* cache_;  ///< may be null (no sweeps to invalidate)
  OnlineOptions options_;
  FaultInjector* fault_;

  mutable std::mutex streams_mutex_;
  std::map<std::string, std::unique_ptr<Stream>> streams_;

  std::mutex campaigns_mutex_;
  std::map<std::string, data::Dataset> campaigns_;

  /// Serializes the publish -> invalidate window across streams, so two
  /// promotions can never interleave their swaps.
  std::mutex promote_mutex_;

  std::atomic<std::uint64_t> reports_{0};
  std::atomic<std::uint64_t> measurements_{0};
  std::atomic<std::uint64_t> duplicates_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> drift_events_{0};
  std::atomic<std::uint64_t> refits_{0};
  std::atomic<std::uint64_t> shadow_evals_{0};
  std::atomic<std::uint64_t> promotions_{0};
  std::atomic<std::uint64_t> promotions_rejected_{0};
  std::atomic<std::uint64_t> cache_invalidated_{0};

  std::mutex idle_mutex_;
  std::condition_variable idle_cv_;
  std::size_t refits_inflight_ = 0;

  /// Last member: destructs (drains + joins) first, while every field its
  /// refit tasks touch is still alive. One thread — refits are rare and
  /// serializing them bounds their memory.
  ThreadPool refit_pool_{1};
};

}  // namespace ccpred::serve::online
