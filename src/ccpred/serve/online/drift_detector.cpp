#include "ccpred/serve/online/drift_detector.hpp"

#include <cmath>

#include "ccpred/common/error.hpp"

namespace ccpred::serve::online {

DriftDetector::DriftDetector(DriftOptions options) : options_(options) {
  CCPRED_CHECK_MSG(options_.window > 0, "DriftDetector window must be > 0");
  CCPRED_CHECK_MSG(options_.min_samples > 0,
                   "DriftDetector min_samples must be > 0");
  CCPRED_CHECK_MSG(options_.mape_threshold > 0.0,
                   "DriftDetector mape_threshold must be > 0");
  ape_.reserve(options_.window);
}

void DriftDetector::observe(double predicted_s, double measured_s) {
  if (!std::isfinite(predicted_s) || !std::isfinite(measured_s) ||
      measured_s <= 0.0) {
    return;
  }
  const double ape = std::abs(predicted_s - measured_s) / measured_s;
  if (ape_.size() < options_.window) {
    ape_.push_back(ape);
  } else {
    ape_[next_] = ape;
    next_ = (next_ + 1) % options_.window;
  }
}

double DriftDetector::rolling_mape() const {
  if (ape_.empty()) return 0.0;
  double sum = 0.0;
  for (const double a : ape_) sum += a;
  return sum / static_cast<double>(ape_.size());
}

bool DriftDetector::drifting() const {
  return ape_.size() >= options_.min_samples &&
         rolling_mape() > options_.mape_threshold;
}

void DriftDetector::reset() {
  ape_.clear();
  next_ = 0;
}

}  // namespace ccpred::serve::online
