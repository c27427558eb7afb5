#pragma once

/// \file traced_server.hpp
/// The traced run's server: serve::Server behind serve::EventLoopServer in
/// this process, set up like `ccpred_serverd serve` with its default
/// flags. The ledger's own dispatch callback stamps two boundaries per
/// request — entry into the server (after the event loop has read and
/// parsed the line) and completion (before the response is rendered and
/// handed back to the loop) — on the same clock as the load generator, so
/// the spans subtract exactly from client-measured latency.

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "ccpred/serve/event_loop.hpp"
#include "ccpred/serve/model_registry.hpp"
#include "ccpred/serve/server.hpp"

namespace ccpred::ledger {

/// ccpred_serverd's default registry and serve options (`--online 1` and
/// the drift threshold added when `online`); `smoke` shrinks the
/// train-and-cache fallback like the daemon's --rows/--estimators.
serve::RegistryOptions daemon_registry_options(bool smoke);
serve::ServeOptions daemon_serve_options(bool online);

class TracedServer {
 public:
  /// Serves `artifact_dir` on an ephemeral loopback port. Requests whose
  /// "id" is a number below `max_ids` are stamped.
  TracedServer(const std::string& artifact_dir, bool online, bool smoke,
               std::size_t max_ids);

  TracedServer(const TracedServer&) = delete;
  TracedServer& operator=(const TracedServer&) = delete;

  int port() const { return listener_.port(); }
  /// now_ns() when request `id` entered the server / completed; 0 = never.
  std::int64_t dispatched_ns(std::uint64_t id) const;
  std::int64_t completed_ns(std::uint64_t id) const;

 private:
  std::vector<std::atomic<std::int64_t>> dispatched_;
  std::vector<std::atomic<std::int64_t>> completed_;
  serve::ModelRegistry registry_;
  serve::Server server_;
  /// Last member: stops the loop before the server drains its pools.
  serve::EventLoopServer listener_;
};

}  // namespace ccpred::ledger
