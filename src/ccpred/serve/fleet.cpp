#include "ccpred/serve/fleet.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <thread>
#include <utility>

#include "ccpred/common/error.hpp"
#include "ccpred/common/strings.hpp"
#include "ccpred/serve/wire.hpp"

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

/// Shard processes train missing artifacts on first use, so the first
/// connect can race a multi-second startup: retry for up to ~60 s.
int connect_with_retry(int port) {
  for (int attempt = 0;; ++attempt) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    CCPRED_CHECK_MSG(fd >= 0, "cannot create router socket");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      return fd;
    }
    ::close(fd);
    CCPRED_CHECK_MSG(attempt < 300, "cannot connect to shard on port " << port);
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
}

void send_all(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    CCPRED_CHECK_MSG(n > 0, "shard connection lost mid-send");
    sent += static_cast<std::size_t>(n);
  }
}

std::vector<Response> read_response_frame(int fd) {
  std::string buf;
  char chunk[65536];
  wire::FrameHeader header;
  while (true) {
    std::string error;
    const wire::FrameStatus status = wire::probe_frame(
        reinterpret_cast<const unsigned char*>(buf.data()), buf.size(),
        &header, &error);
    CCPRED_CHECK_MSG(status != wire::FrameStatus::kBad,
                     "shard protocol error: " << error);
    if (status == wire::FrameStatus::kHeader &&
        buf.size() >= wire::kHeaderBytes + header.payload_bytes) {
      // Round trips are serialized per connection, so nothing may follow
      // the frame.
      CCPRED_CHECK_MSG(buf.size() == wire::kHeaderBytes + header.payload_bytes,
                       "unexpected bytes after shard response frame");
      return wire::decode_response_frame(
          header, reinterpret_cast<const unsigned char*>(buf.data()) +
                      wire::kHeaderBytes);
    }
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    CCPRED_CHECK_MSG(n > 0, "shard connection closed mid-frame");
    buf.append(chunk, static_cast<std::size_t>(n));
  }
}

/// A shard process on 127.0.0.1:port, over one lazily opened binary-wire
/// connection that serializes its round trips. The first failed round
/// trip closes the connection for good — the process is presumed gone —
/// and every call from then on throws ShardDown at once.
class RemoteShard final : public Shard {
 public:
  explicit RemoteShard(int port) : port_(port) {}
  ~RemoteShard() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Response handle(const Request& request) override {
    return std::move(exchange({request}).front());
  }
  void submit_with(Request request,
                   std::function<void(Response)> done) override {
    done(handle(request));
  }
  void submit_batch_with(
      std::vector<Request> batch,
      std::function<void(std::vector<Response>)> done) override {
    done(exchange(batch));
  }
  ServerStats stats() const override {
    Request request;
    request.op = Op::kStats;
    const std::vector<Response> reply = exchange({request});
    if (!reply.front().has_stats) {
      throw ShardDown("shard on port " + std::to_string(port_) +
                      " did not answer stats: " + reply.front().error);
    }
    return reply.front().stats;
  }

 private:
  /// One frame out, one frame back.
  std::vector<Response> exchange(const std::vector<Request>& batch) const {
    // A record the wire cannot carry (a JSON line may hold a string field
    // over wire::kMaxStringBytes) is the request's fault, not the shard's.
    std::string frame;
    try {
      frame = wire::encode_request_frame(batch);
    } catch (const std::exception& e) {
      return frame_error(batch, e.what(), "bad_request");
    }
    const std::lock_guard<std::mutex> lock(mutex_);
    if (down_) {
      throw ShardDown("shard on port " + std::to_string(port_) + " is down");
    }
    try {
      if (fd_ < 0) fd_ = connect_with_retry(port_);
      send_all(fd_, frame);
      std::vector<Response> replies = read_response_frame(fd_);
      CCPRED_CHECK_MSG(replies.size() == batch.size(),
                       "shard answered " << replies.size() << " records for "
                                         << batch.size());
      return replies;
    } catch (const std::exception& e) {
      if (fd_ >= 0) ::close(fd_);
      fd_ = -1;
      down_ = true;
      throw ShardDown("shard on port " + std::to_string(port_) + ": " +
                      e.what());
    }
  }

  const int port_;
  mutable std::mutex mutex_;  ///< serializes round trips on fd_
  mutable int fd_ = -1;       ///< pooled connection, opened lazily
  mutable bool down_ = false;
};

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
    : registry_(&registry), options_(std::move(options)) {
  CCPRED_CHECK_MSG(options_.shards > 0, "fleet needs at least one shard");
  slots_.reserve(options_.shards);
  for (std::size_t i = 0; i < options_.shards; ++i) {
    slots_.push_back(std::make_unique<Slot>(
        std::make_shared<Server>(registry, options_.serve)));
    ring_.add(static_cast<int>(i));
  }
}

ShardFleet::ShardFleet(const std::vector<int>& ports, FleetOptions options)
    : registry_(nullptr),
      options_(std::move(options)),
      pool_(std::make_unique<ThreadPool>(options_.serve.threads)) {
  CCPRED_CHECK_MSG(!ports.empty(), "fleet needs at least one shard");
  options_.shards = ports.size();
  slots_.reserve(ports.size());
  for (std::size_t i = 0; i < ports.size(); ++i) {
    slots_.push_back(
        std::make_unique<Slot>(std::make_shared<RemoteShard>(ports[i])));
    ring_.add(static_cast<int>(i));
  }
}

std::shared_ptr<Shard> ShardFleet::pin(std::size_t i) const {
  const Slot& slot = *slots_[i];
  const std::lock_guard<std::mutex> lock(slot.mutex);
  return slot.shard;
}

std::uint64_t ShardFleet::request_key(const Request& req) const {
  const std::string& machine =
      req.machine.empty() ? options_.serve.default_machine : req.machine;
  const std::string& kind =
      req.model.empty() ? options_.serve.default_model : req.model;
  return HashRing::key_hash(machine, kind, req.o, req.v);
}

int ShardFleet::pick(std::uint64_t key) const {
  for (const int s : ring_.preference(key, slots_.size())) {
    if (slots_[static_cast<std::size_t>(s)]->alive.load(
            std::memory_order_acquire)) {
      return s;
    }
  }
  return -1;
}

void ShardFleet::maybe_chaos(std::uint64_t key) {
  FaultInjector* fault = options_.fault_injector;
  if (fault == nullptr || !fault->enabled()) return;
  if (fault->fire(FaultPoint::kShardKill)) {
    const int target = pick(key);
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

template <typename Serve>
bool ShardFleet::route(const Request& req, std::size_t n, Serve&& serve) {
  const std::uint64_t key = request_key(req);
  maybe_chaos(key);
  bool failed_over = false;
  for (const int s : ring_.preference(key, slots_.size())) {
    const auto i = static_cast<std::size_t>(s);
    const std::shared_ptr<Shard> shard = pin(i);
    if (shard == nullptr) {
      failed_over = true;
      continue;
    }
    // Counted before `serve`, which may complete the request on this
    // thread: a caller woken by its answer must see the counts.
    if (failed_over) failovers_.fetch_add(1, std::memory_order_relaxed);
    slots_[i]->routed.fetch_add(n, std::memory_order_relaxed);
    try {
      serve(*shard);
      return true;
    } catch (const ShardDown& e) {
      if (failed_over) failovers_.fetch_sub(1, std::memory_order_relaxed);
      slots_[i]->routed.fetch_sub(n, std::memory_order_relaxed);
      if (retire(i, /*keep_last=*/false)) {
        std::fprintf(stderr, "fleet: shard %zu marked dead: %s\n", i,
                     e.what());
      }
      failed_over = true;
    }
  }
  unrouteable_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

Response ShardFleet::handle(const Request& req) {
  if (req.op == Op::kStats) return stats_response(req);
  Response out;
  if (route(req, 1, [&](Shard& shard) { out = shard.handle(req); })) {
    return out;
  }
  return error_response(kNoLiveShard, op_name(req.op), req.id, "unavailable");
}

void ShardFleet::submit_with(Request req, std::function<void(Response)> done) {
  std::vector<Request> frame;
  frame.push_back(std::move(req));
  submit_batch_with(std::move(frame),
                    [done = std::move(done)](std::vector<Response> out) {
                      done(std::move(out.front()));
                    });
}

void ShardFleet::submit_batch_with(
    std::vector<Request> batch,
    std::function<void(std::vector<Response>)> done) {
  if (pool_ == nullptr) {
    route_frame(batch, done);
    return;
  }
  // Remote round trips block: keep them off the caller's (event-loop)
  // thread.
  pool_->post([this, batch = std::move(batch), done = std::move(done)] {
    route_frame(batch, done);
  });
}

void ShardFleet::route_frame(
    const std::vector<Request>& batch,
    const std::function<void(std::vector<Response>)>& done) {
  if (batch.empty()) {
    done({});
    return;
  }
  // A stats record fans out to every shard, so a frame holding one cannot
  // go to a single shard: answer it record by record.
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
  // miss this shard's cache. Each attempt gets its own copy of the frame,
  // so a failed round trip leaves it for the next shard.
  if (!route(batch.front(), batch.size(),
             [&](Shard& shard) { shard.submit_batch_with(batch, done); })) {
    done(frame_error(batch, kNoLiveShard, "unavailable"));
  }
}

bool ShardFleet::retire(std::size_t i, bool keep_last) {
  std::shared_ptr<Shard> victim;
  {
    const std::lock_guard<std::mutex> membership(membership_mutex_);
    std::size_t live = 0;
    for (const auto& slot : slots_) {
      if (slot->alive.load(std::memory_order_acquire)) ++live;
    }
    Slot& slot = *slots_[i];
    const std::lock_guard<std::mutex> lock(slot.mutex);
    if (slot.shard == nullptr || (keep_last && live <= 1)) return false;
    victim = std::move(slot.shard);
    slot.shard = nullptr;
    slot.alive.store(false, std::memory_order_release);
    kills_.fetch_add(1, std::memory_order_relaxed);
  }
  // `victim` dies here unless in-flight requests still pin it; the last
  // holder runs the destructor (draining the shard's pools) off the locks.
  return true;
}

bool ShardFleet::kill_shard(std::size_t i) {
  return i < slots_.size() && retire(i, /*keep_last=*/true);
}

bool ShardFleet::restart_shard(std::size_t i) {
  if (i >= slots_.size() || registry_ == nullptr) return false;
  // Built outside the locks: Server construction spawns worker pools.
  auto fresh = std::make_shared<Server>(*registry_, options_.serve);
  const std::lock_guard<std::mutex> membership(membership_mutex_);
  Slot& slot = *slots_[i];
  const std::lock_guard<std::mutex> lock(slot.mutex);
  if (slot.shard != nullptr) return false;
  slot.shard = std::move(fresh);
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
  return pick(request_key(req));
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
    const std::shared_ptr<Shard> shard = pin(i);
    if (shard == nullptr) continue;
    try {
      parts.push_back(shard->stats());
    } catch (const ShardDown&) {
      // Left out; the next request routed to it marks the slot dead.
    }
  }
  ServerStats total = merge_stats(parts);
  if (registry_ != nullptr) {
    // Every shard shares the registry: its counters count once, not per
    // shard.
    total.reload_failures = registry_->reload_failures();
    total.models_loaded = registry_->loads();
    total.models_trained = registry_->trainings();
  }
  return total;
}

Response ShardFleet::stats_response(const Request& req) {
  if (counters().alive == 0) {
    return error_response("no live shard", op_name(Op::kStats), req.id,
                          "unavailable");
  }
  Response r;
  r.ok = true;
  r.op = op_name(Op::kStats);
  r.id = req.id;
  r.has_stats = true;
  r.stats = aggregated_stats();
  return r;
}

}  // namespace ccpred::serve
