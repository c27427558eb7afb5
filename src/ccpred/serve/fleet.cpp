#include "ccpred/serve/fleet.hpp"

#include <algorithm>
#include <utility>

#include "ccpred/common/error.hpp"
#include "ccpred/common/strings.hpp"

namespace ccpred::serve {
namespace {

/// splitmix64 finalizer (same construction as the FaultInjector's mixer):
/// ring point placement must be identical in every process.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

const char* const kNoLiveShard = "no live shard for this key";

}  // namespace

HashRing::HashRing(std::size_t vnodes) : vnodes_(vnodes) {
  CCPRED_CHECK_MSG(vnodes_ > 0, "hash ring needs at least one vnode");
}

void HashRing::add(int shard) {
  if (!shards_.insert(shard).second) return;
  for (std::size_t r = 0; r < vnodes_; ++r) {
    const std::uint64_t point =
        mix64(mix64(static_cast<std::uint64_t>(shard) + 1) ^
              mix64(static_cast<std::uint64_t>(r) + 0x51ULL));
    ring_.emplace(point, shard);  // collisions keep the first owner
  }
}

void HashRing::remove(int shard) {
  if (shards_.erase(shard) == 0) return;
  for (auto it = ring_.begin(); it != ring_.end();) {
    it = it->second == shard ? ring_.erase(it) : std::next(it);
  }
}

int HashRing::owner(std::uint64_t key) const {
  CCPRED_CHECK_MSG(!ring_.empty(), "hash ring is empty");
  const auto it = ring_.lower_bound(key);
  return it == ring_.end() ? ring_.begin()->second : it->second;
}

std::vector<int> HashRing::preference(std::uint64_t key, std::size_t n) const {
  std::vector<int> out;
  if (ring_.empty() || n == 0) return out;
  auto it = ring_.lower_bound(key);
  for (std::size_t steps = 0; steps < ring_.size() && out.size() < n; ++steps) {
    if (it == ring_.end()) it = ring_.begin();
    if (std::find(out.begin(), out.end(), it->second) == out.end()) {
      out.push_back(it->second);
    }
    ++it;
  }
  return out;
}

std::uint64_t HashRing::key_hash(const std::string& machine,
                                 const std::string& kind, int o, int v) {
  // FNV-1a, explicitly — std::hash makes no cross-process guarantee, and
  // the serverd router and its shard children must agree on every key.
  // The seed is not the FNV offset basis; it stays for stable placement.
  std::uint64_t h = fnv1a64(machine, 1469598103934665603ULL);
  h = fnv1a64("/", h);  // separator: ("ab","c") must differ from ("a","bc")
  h = fnv1a64(kind, h);
  const std::uint64_t ov =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(o)) << 32) |
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(v));
  return mix64(h ^ mix64(ov));
}

ShardFleet::ShardFleet(ModelRegistry& registry, FleetOptions options)
    : registry_(registry), options_(std::move(options)), ring_(options_.vnodes) {
  CCPRED_CHECK_MSG(options_.shards > 0, "fleet needs at least one shard");
  slots_.reserve(options_.shards);
  for (std::size_t i = 0; i < options_.shards; ++i) {
    auto slot = std::make_unique<Slot>();
    slot->server = std::make_shared<Server>(registry_, options_.serve);
    slots_.push_back(std::move(slot));
    ring_.add(static_cast<int>(i));
  }
}

std::shared_ptr<Server> ShardFleet::pin(std::size_t i) const {
  const Slot& slot = *slots_[i];
  const std::lock_guard<std::mutex> lock(slot.mutex);
  return slot.server;
}

std::uint64_t ShardFleet::request_key(const Request& req) const {
  const std::string& machine =
      req.machine.empty() ? options_.serve.default_machine : req.machine;
  const std::string& kind =
      req.model.empty() ? options_.serve.default_model : req.model;
  return HashRing::key_hash(machine, kind, req.o, req.v);
}

int ShardFleet::pick(std::uint64_t key, bool* failed_over) const {
  if (failed_over != nullptr) *failed_over = false;
  for (const int s : ring_.preference(key, slots_.size())) {
    if (slots_[static_cast<std::size_t>(s)]->alive.load(
            std::memory_order_acquire)) {
      return s;
    }
    if (failed_over != nullptr) *failed_over = true;
  }
  return -1;
}

void ShardFleet::maybe_chaos(std::uint64_t key) {
  FaultInjector* fault = options_.fault_injector;
  if (fault == nullptr || !fault->enabled()) return;
  if (fault->fire(FaultPoint::kShardKill)) {
    const int target = pick(key, nullptr);
    if (target >= 0) kill_shard(static_cast<std::size_t>(target));
  }
  if (fault->fire(FaultPoint::kShardRestart)) {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (!slots_[i]->alive.load(std::memory_order_acquire)) {
        restart_shard(i);
        break;
      }
    }
  }
}

std::shared_ptr<Server> ShardFleet::route(const Request& req, std::size_t n) {
  const std::uint64_t key = request_key(req);
  maybe_chaos(key);
  bool failed_over = false;
  for (const int s : ring_.preference(key, slots_.size())) {
    const auto i = static_cast<std::size_t>(s);
    std::shared_ptr<Server> srv = pin(i);
    if (srv == nullptr) {
      failed_over = true;
      continue;
    }
    if (failed_over) failovers_.fetch_add(1, std::memory_order_relaxed);
    slots_[i]->routed.fetch_add(n, std::memory_order_relaxed);
    return srv;
  }
  unrouteable_.fetch_add(1, std::memory_order_relaxed);
  return nullptr;
}

Response ShardFleet::handle(const Request& req) {
  if (req.op == Op::kStats) return stats_response(req);
  if (const std::shared_ptr<Server> srv = route(req, 1)) {
    return srv->handle(req);
  }
  return error_response(kNoLiveShard, op_name(req.op), req.id, "unavailable");
}

void ShardFleet::submit_with(Request req, std::function<void(Response)> done) {
  if (req.op == Op::kStats) {
    done(stats_response(req));
    return;
  }
  if (const std::shared_ptr<Server> srv = route(req, 1)) {
    srv->submit_with(std::move(req), std::move(done));
    return;
  }
  done(error_response(kNoLiveShard, op_name(req.op), req.id, "unavailable"));
}

void ShardFleet::submit_batch_with(
    std::vector<Request> batch,
    std::function<void(std::vector<Response>)> done) {
  if (batch.empty()) {
    done({});
    return;
  }
  // Stats inside a frame would need a fan-out from a shard worker; answer
  // such frames through the synchronous per-record path instead.
  const bool any_stats =
      std::any_of(batch.begin(), batch.end(),
                  [](const Request& r) { return r.op == Op::kStats; });
  if (any_stats) {
    std::vector<Response> out;
    out.reserve(batch.size());
    for (const Request& r : batch) out.push_back(handle(r));
    done(std::move(out));
    return;
  }
  // Route the whole frame by its first record: clients batch questions
  // that share a destination; strays still answer correctly, they just
  // miss this shard's cache.
  if (const std::shared_ptr<Server> srv =
          route(batch.front(), batch.size())) {
    srv->submit_batch_with(std::move(batch), std::move(done));
    return;
  }
  done(frame_error(batch, kNoLiveShard, "unavailable"));
}

bool ShardFleet::kill_shard(std::size_t i) {
  if (i >= slots_.size()) return false;
  std::shared_ptr<Server> victim;
  {
    const std::lock_guard<std::mutex> membership(membership_mutex_);
    std::size_t live = 0;
    for (const auto& slot : slots_) {
      if (slot->alive.load(std::memory_order_acquire)) ++live;
    }
    Slot& slot = *slots_[i];
    const std::lock_guard<std::mutex> lock(slot.mutex);
    if (slot.server == nullptr || live <= 1) return false;
    victim = std::move(slot.server);
    slot.server = nullptr;
    slot.alive.store(false, std::memory_order_release);
    kills_.fetch_add(1, std::memory_order_relaxed);
  }
  // `victim` dies here unless in-flight requests still pin it; the last
  // holder runs the destructor (draining the shard's pools) off the locks.
  return true;
}

bool ShardFleet::restart_shard(std::size_t i) {
  if (i >= slots_.size()) return false;
  // Built outside the locks: Server construction spawns worker pools.
  auto fresh = std::make_shared<Server>(registry_, options_.serve);
  const std::lock_guard<std::mutex> membership(membership_mutex_);
  Slot& slot = *slots_[i];
  const std::lock_guard<std::mutex> lock(slot.mutex);
  if (slot.server != nullptr) return false;
  slot.server = std::move(fresh);
  slot.alive.store(true, std::memory_order_release);
  restarts_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool ShardFleet::alive(std::size_t i) const {
  return i < slots_.size() &&
         slots_[i]->alive.load(std::memory_order_acquire);
}

int ShardFleet::route_of(const Request& req) const {
  if (req.op == Op::kStats) return -1;
  return pick(request_key(req), nullptr);
}

FleetCounters ShardFleet::counters() const {
  FleetCounters c;
  c.shards = slots_.size();
  for (const auto& slot : slots_) {
    if (slot->alive.load(std::memory_order_acquire)) ++c.alive;
    c.routed += slot->routed.load(std::memory_order_relaxed);
  }
  c.failovers = failovers_.load(std::memory_order_relaxed);
  c.kills = kills_.load(std::memory_order_relaxed);
  c.restarts = restarts_.load(std::memory_order_relaxed);
  c.unrouteable = unrouteable_.load(std::memory_order_relaxed);
  return c;
}

ServerStats ShardFleet::aggregated_stats() const {
  std::vector<ServerStats> parts;
  parts.reserve(slots_.size());
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (const std::shared_ptr<Server> srv = pin(i)) {
      parts.push_back(srv->stats());
    }
  }
  ServerStats total = merge_stats(parts);
  // Every shard shares registry_: its counters count once, not per shard.
  total.reload_failures = registry_.reload_failures();
  total.models_loaded = registry_.loads();
  total.models_trained = registry_.trainings();
  return total;
}

Response ShardFleet::stats_response(const Request& req) {
  Response r;
  r.ok = true;
  r.op = op_name(Op::kStats);
  r.id = req.id;
  r.has_stats = true;
  r.stats = aggregated_stats();
  return r;
}

}  // namespace ccpred::serve
