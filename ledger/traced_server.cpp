#include "traced_server.hpp"

#include <charconv>

#include "ledger.hpp"

namespace ccpred::ledger {
namespace {

/// The numeric id of a request, or max_ids when it has none in range.
std::size_t traced_id(const serve::Request& request, std::size_t max_ids) {
  std::size_t id = max_ids;
  const char* first = request.id.data();
  const char* last = first + request.id.size();
  const auto [end, ec] = std::from_chars(first, last, id);
  return ec == std::errc() && end == last && id < max_ids ? id : max_ids;
}

}  // namespace

serve::RegistryOptions daemon_registry_options(bool smoke) {
  serve::RegistryOptions opt;  // serverd: --rows 600 --seed 2025, 750 stages
  if (smoke) {
    opt.fallback_rows = 200;
    opt.gb_estimators = opt.rf_estimators = 20;
  }
  return opt;
}

serve::ServeOptions daemon_serve_options(bool online) {
  serve::ServeOptions opt;  // serverd: --threads 0 --cache 256 --max-queue 0
  opt.batch.enabled = true;  // serverd: --batch-max 64 --batch-hold-us 200
  opt.batch.max_batch = 64;
  opt.batch.max_hold_us = 200;
  if (online) {
    opt.online.enabled = true;
    opt.online.drift.mape_threshold = 1e9;
  }
  return opt;
}

TracedServer::TracedServer(const std::string& artifact_dir, bool online,
                           bool smoke, std::size_t max_ids)
    : dispatched_(max_ids),
      completed_(max_ids),
      registry_(artifact_dir, daemon_registry_options(smoke)),
      server_(registry_, daemon_serve_options(online)),
      listener_(
          [this, max_ids](serve::Request request,
                          serve::EventLoopServer::Completion done) {
            const std::size_t id = traced_id(request, max_ids);
            if (id < max_ids) {
              dispatched_[id].store(now_ns(), std::memory_order_relaxed);
            }
            server_.submit_with(
                std::move(request),
                [this, id, max_ids, done = std::move(done)](serve::Response r) {
                  if (id < max_ids) {
                    completed_[id].store(now_ns(), std::memory_order_relaxed);
                  }
                  done(std::move(r));
                });
          },
          nullptr, serve::EventLoopOptions{}) {}

std::int64_t TracedServer::dispatched_ns(std::uint64_t id) const {
  return id < dispatched_.size()
             ? dispatched_[id].load(std::memory_order_relaxed)
             : 0;
}

std::int64_t TracedServer::completed_ns(std::uint64_t id) const {
  return id < completed_.size()
             ? completed_[id].load(std::memory_order_relaxed)
             : 0;
}

}  // namespace ccpred::ledger
