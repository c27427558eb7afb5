#include "ccpred/serve/online/feedback_buffer.hpp"

#include <cmath>
#include <cstring>

#include "ccpred/common/error.hpp"

namespace ccpred::serve::online {

std::size_t FeedbackBuffer::DedupKeyHash::operator()(const DedupKey& k) const {
  std::size_t h = std::hash<int>()(k.o);
  h = h * 1000003u ^ std::hash<int>()(k.v);
  h = h * 1000003u ^ std::hash<int>()(k.nodes);
  h = h * 1000003u ^ std::hash<int>()(k.tile);
  h = h * 1000003u ^ std::hash<std::uint64_t>()(k.wall_bits);
  return h;
}

FeedbackBuffer::DedupKey FeedbackBuffer::key_of(const MeasuredRun& run) {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof run.wall_time_s);
  std::memcpy(&bits, &run.wall_time_s, sizeof bits);
  return DedupKey{run.o, run.v, run.nodes, run.tile, bits};
}

FeedbackBuffer::FeedbackBuffer(std::size_t capacity) : capacity_(capacity) {
  CCPRED_CHECK_MSG(capacity > 0, "FeedbackBuffer capacity must be > 0");
}

AddResult FeedbackBuffer::add(const MeasuredRun& run) {
  if (!std::isfinite(run.wall_time_s) || run.wall_time_s <= 0.0) {
    return AddResult::kRejected;
  }
  const DedupKey key = key_of(run);
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!keys_.insert(key).second) return AddResult::kDuplicate;
  if (runs_.size() == capacity_) {
    keys_.erase(key_of(runs_.front()));
    runs_.pop_front();
  }
  ++accepted_;
  runs_.push_back(run);
  return AddResult::kAccepted;
}

std::vector<MeasuredRun> FeedbackBuffer::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return {runs_.begin(), runs_.end()};
}

std::size_t FeedbackBuffer::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return runs_.size();
}

std::uint64_t FeedbackBuffer::accepted() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return accepted_;
}

}  // namespace ccpred::serve::online
