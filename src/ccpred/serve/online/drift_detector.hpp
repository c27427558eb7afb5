#pragma once

/// \file drift_detector.hpp
/// Rolling comparison of what the serving model predicted against what
/// users measured. Each observe() pushes one (predicted, measured) pair
/// into a fixed window; the detector reports the window's mean absolute
/// percentage error (MAPE, the paper's headline accuracy metric).
/// `drifting()` trips once the window holds at least `min_samples` pairs
/// AND the rolling MAPE exceeds the threshold — the trigger for a
/// background refit.
///
/// Not thread-safe by itself; the OnlineTrainer serializes access per
/// stream.

#include <cstddef>
#include <vector>

namespace ccpred::serve::online {

/// Detection knobs. The defaults suit a serving model whose offline MAPE
/// is a few percent: 25% rolling error is unambiguous regime change, not
/// measurement noise.
struct DriftOptions {
  std::size_t window = 64;        ///< pairs kept in the rolling window
  std::size_t min_samples = 16;   ///< pairs required before drifting() can trip
  double mape_threshold = 0.25;   ///< rolling MAPE above this = drift
};

/// See file comment.
class DriftDetector {
 public:
  explicit DriftDetector(DriftOptions options);

  /// Records one served-prediction / reported-measurement pair. Pairs with
  /// non-finite values or non-positive measurements are ignored (the parse
  /// boundary already rejects them; this is defense in depth).
  void observe(double predicted_s, double measured_s);

  /// Mean |predicted - measured| / measured over the window (0 if empty).
  double rolling_mape() const;

  /// Pairs currently in the window.
  std::size_t samples() const { return ape_.size(); }

  /// True when the window is warm and its MAPE exceeds the threshold.
  bool drifting() const;

  /// Forgets the window (called after a promotion: the new model gets a
  /// clean slate instead of inheriting its predecessor's errors).
  void reset();

  const DriftOptions& options() const { return options_; }

 private:
  DriftOptions options_;
  std::vector<double> ape_;  ///< ring of absolute percentage errors
  std::size_t next_ = 0;     ///< ring write position
};

}  // namespace ccpred::serve::online
