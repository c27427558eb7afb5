#pragma once

/// \file ledger.hpp
/// Small pieces shared by the ledger's modules: the run clock, quantiles,
/// and the named-metric report every run prints.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ccpred/common/error.hpp"

namespace ccpred::ledger {

/// Steady-clock nanoseconds. Every timestamp in a run (intended send,
/// actual send, dispatch, completion, receive) is on this one clock, so
/// spans from the generator and from an in-process server subtract
/// exactly.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank quantile of `v` (sorted in place); 0 for an empty vector.
inline double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // The epsilon keeps q * n from rounding up past an exact rank (0.99 * 100).
  const double exact = q * static_cast<double>(v.size());
  const auto rank = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::ceil(exact - 1e-9)), 1, v.size());
  return v[rank - 1];
}

/// Median of `v` (sorted in place).
inline double median(std::vector<double>& v) { return quantile(v, 0.5); }

/// The whole file at `path`; throws ccpred::Error if it cannot be read.
inline std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  CCPRED_CHECK_MSG(in.good(), "cannot read " << path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Replaces `path` with `bytes` the way a model publisher must: write a
/// temporary file beside it, then rename(2) over it, so a reader sees the
/// old artifact or the new one, never half of one.
inline void publish_atomically(const std::string& path,
                               const std::string& bytes) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    CCPRED_CHECK_MSG(out.good(), "cannot write " << tmp);
  }
  std::filesystem::rename(tmp, path);
}

/// One named measurement with its unit and the number of samples behind it.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

/// The metrics of one run, in the order they were measured.
using Report = std::vector<Metric>;

}  // namespace ccpred::ledger
