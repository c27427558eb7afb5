#pragma once

/// \file replay.hpp
/// Per-layer replays (source "R" in README.md): the workload's own request
/// stream, replayed serially through each layer's public functions, one
/// layer at a time, timing the calls. They say what a layer costs with
/// nothing else running; the traced run says what it costs under load.

#include <cstdint>
#include <string>
#include <vector>

#include "ledger.hpp"
#include "workload.hpp"

namespace ccpred::ledger {

struct ReplayInput {
  const Traffic* traffic = nullptr;
  const Reference* reference = nullptr;  ///< answers for `classes`' keys
  std::vector<std::uint32_t> classes;    ///< the stream's first requests
  std::string artifact_dir;  ///< a private copy of the served artifacts
  std::string scratch_dir;   ///< for artifacts the replays write
  bool smoke = false;        ///< tiny training sizes and few repetitions
};

/// Runs every replay and adds its metrics to `out`.
void replay_layers(const ReplayInput& in, Report* out);

}  // namespace ccpred::ledger
