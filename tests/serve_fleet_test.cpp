// Tests for the serving fleet: the consistent-hash ring (stable assignment
// under membership churn), the in-process ShardFleet (failover to a live
// replica, kill/restart rejoining with an empty cache but bit-identical
// answers), the epoll EventLoopServer end to end over real sockets
// (response ordering, JSON/binary interleaving on one connection, garbage
// input, oversized declared lengths, mid-frame disconnects) and the fleet
// of remote shards that `ccpred_serverd serve --fleet N` routes through
// (fleet-wide stats inside a frame, failover when a shard's socket dies).

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ccpred/common/error.hpp"
#include "ccpred/core/gradient_boosting.hpp"
#include "ccpred/core/serialize.hpp"
#include "ccpred/serve/event_loop.hpp"
#include "ccpred/serve/fleet.hpp"
#include "ccpred/serve/model_registry.hpp"
#include "ccpred/serve/server.hpp"
#include "ccpred/serve/wire.hpp"
#include "test_util.hpp"

namespace ccpred::serve {
namespace {

namespace fs = std::filesystem;

// ------------------------------------------------------------------ HashRing

std::vector<std::uint64_t> probe_keys(std::size_t n) {
  std::vector<std::uint64_t> keys;
  keys.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    keys.push_back(HashRing::key_hash("aurora", "gb", static_cast<int>(i % 211),
                                      static_cast<int>(i)));
  }
  return keys;
}

TEST(HashRingTest, RemovalMovesOnlyTheDepartedShardsKeys) {
  HashRing ring;
  for (int s = 0; s < 5; ++s) ring.add(s);
  const auto keys = probe_keys(4000);
  std::vector<int> before;
  before.reserve(keys.size());
  for (const auto k : keys) before.push_back(ring.owner(k));

  ring.remove(2);
  std::size_t moved = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const int now = ring.owner(keys[i]);
    if (before[i] == 2) {
      EXPECT_NE(now, 2);  // departed shard's keys must land elsewhere
      ++moved;
    } else {
      // THE consistent-hashing property: everyone else's keys stay put.
      EXPECT_EQ(now, before[i]) << "key " << i << " moved needlessly";
    }
  }
  EXPECT_GT(moved, 0u);

  // Adding the shard back restores the original assignment exactly.
  ring.add(2);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(ring.owner(keys[i]), before[i]);
  }
}

TEST(HashRingTest, PreferenceListsStartAtOwnerAndAreDistinct) {
  HashRing ring;
  for (int s = 0; s < 4; ++s) ring.add(s);
  for (const auto k : probe_keys(500)) {
    const auto prefs = ring.preference(k, 4);
    ASSERT_EQ(prefs.size(), 4u);
    EXPECT_EQ(prefs[0], ring.owner(k));
    EXPECT_EQ(std::set<int>(prefs.begin(), prefs.end()).size(), 4u);
  }
  // Asking for more shards than exist returns what exists.
  EXPECT_EQ(ring.preference(probe_keys(1)[0], 16).size(), 4u);
}

TEST(HashRingTest, OwnershipIsReasonablyBalanced) {
  HashRing ring(64);
  for (int s = 0; s < 5; ++s) ring.add(s);
  std::map<int, std::size_t> counts;
  const auto keys = probe_keys(10000);
  for (const auto k : keys) ++counts[ring.owner(k)];
  for (int s = 0; s < 5; ++s) {
    // With 64 vnodes per shard the slices are uneven but every shard must
    // own a real fraction of the keyspace (fair share would be 20%).
    EXPECT_GT(counts[s], keys.size() / 20) << "shard " << s << " starved";
  }
}

TEST(HashRingTest, KeyHashSeparatesEveryField) {
  const auto base = HashRing::key_hash("aurora", "gb", 134, 951);
  EXPECT_NE(base, HashRing::key_hash("frontier", "gb", 134, 951));
  EXPECT_NE(base, HashRing::key_hash("aurora", "rf", 134, 951));
  EXPECT_NE(base, HashRing::key_hash("aurora", "gb", 135, 951));
  EXPECT_NE(base, HashRing::key_hash("aurora", "gb", 134, 952));
  // The separator keeps concatenation ambiguity out of the key.
  EXPECT_NE(HashRing::key_hash("ab", "c", 1, 2),
            HashRing::key_hash("a", "bc", 1, 2));
  // Deterministic: the serverd router and its shard children must agree.
  EXPECT_EQ(base, HashRing::key_hash("aurora", "gb", 134, 951));
}

// ---------------------------------------------------------------- ShardFleet

std::string scratch_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("ccpred_fleet_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

const ml::GradientBoostingRegressor& fleet_gb() {
  static const auto* model = [] {
    const auto split = test::small_campaign(250);
    auto* m = new ml::GradientBoostingRegressor(15);
    m->fit(split.train.features(), split.train.targets());
    return m;
  }();
  return *model;
}

struct FleetFixture {
  FleetFixture(const std::string& name, FleetOptions opt)
      : dir(scratch_dir(name)), registry(dir) {
    ml::save_gb(fleet_gb(), registry.artifact_path("aurora", "gb"));
    opt.serve.threads = 2;
    fleet = std::make_unique<ShardFleet>(registry, opt);
  }

  std::string dir;
  ModelRegistry registry;
  std::unique_ptr<ShardFleet> fleet;
};

Request stq(int o, int v) {
  Request r;
  r.op = Op::kStq;
  r.machine = "aurora";
  r.o = o;
  r.v = v;
  return r;
}

const std::vector<std::pair<int, int>> kProblems = {
    {44, 260}, {85, 698}, {116, 575}, {134, 951}, {99, 718}, {70, 400}};

TEST(ShardFleetTest, RoutesDeterministicallyAndSpreadsKeys) {
  FleetOptions opt;
  opt.shards = 3;
  FleetFixture f("routing", opt);
  std::set<int> shards_hit;
  for (const auto& [o, v] : kProblems) {
    const int first = f.fleet->route_of(stq(o, v));
    ASSERT_GE(first, 0);
    shards_hit.insert(first);
    for (int rep = 0; rep < 3; ++rep) {
      EXPECT_EQ(f.fleet->route_of(stq(o, v)), first);
    }
  }
  // Six distinct keys across three shards: more than one shard must serve.
  EXPECT_GE(shards_hit.size(), 2u);
  // Stats are a fan-out, not a routed key.
  Request stats;
  stats.op = Op::kStats;
  EXPECT_EQ(f.fleet->route_of(stats), -1);
}

TEST(ShardFleetTest, FailoverReRoutesToALiveReplicaBitIdentically) {
  FleetOptions opt;
  opt.shards = 3;
  FleetFixture f("failover", opt);
  const Request req = stq(134, 951);
  const Response before = f.fleet->handle(req);
  ASSERT_TRUE(before.ok) << before.error;

  const int owner = f.fleet->route_of(req);
  ASSERT_GE(owner, 0);
  ASSERT_TRUE(f.fleet->kill_shard(static_cast<std::size_t>(owner)));
  EXPECT_FALSE(f.fleet->alive(static_cast<std::size_t>(owner)));

  const int replica = f.fleet->route_of(req);
  ASSERT_GE(replica, 0);
  EXPECT_NE(replica, owner);
  EXPECT_TRUE(f.fleet->alive(static_cast<std::size_t>(replica)));

  // Sweeps are deterministic, so the replica's answer is bit-identical
  // (it just cannot be a cache hit — the replica never saw this key).
  const Response after = f.fleet->handle(req);
  ASSERT_TRUE(after.ok) << after.error;
  EXPECT_EQ(after.nodes, before.nodes);
  EXPECT_EQ(after.tile, before.tile);
  EXPECT_EQ(after.time_s, before.time_s);
  EXPECT_EQ(after.node_hours, before.node_hours);
  EXPECT_GE(f.fleet->counters().failovers, 1u);
}

TEST(ShardFleetTest, TheLastLiveShardCannotBeKilled) {
  FleetOptions opt;
  opt.shards = 3;
  FleetFixture f("lastlive", opt);
  EXPECT_TRUE(f.fleet->kill_shard(0));
  EXPECT_TRUE(f.fleet->kill_shard(1));
  EXPECT_FALSE(f.fleet->kill_shard(2)) << "killed the last live shard";
  EXPECT_TRUE(f.fleet->alive(2));
  // Killing a dead shard is a no-op, not a double free.
  EXPECT_FALSE(f.fleet->kill_shard(0));
  // Every key still routes to the survivor.
  for (const auto& [o, v] : kProblems) {
    EXPECT_EQ(f.fleet->route_of(stq(o, v)), 2);
    EXPECT_TRUE(f.fleet->handle(stq(o, v)).ok);
  }
  EXPECT_EQ(f.fleet->counters().alive, 1u);
  EXPECT_EQ(f.fleet->counters().unrouteable, 0u);
}

TEST(ShardFleetTest, RestartedShardRejoinsWithEmptyCacheButIdenticalAnswers) {
  FleetOptions opt;
  opt.shards = 3;
  FleetFixture f("restart", opt);
  const Request req = stq(85, 698);
  const int owner = f.fleet->route_of(req);

  const Response first = f.fleet->handle(req);
  ASSERT_TRUE(first.ok);
  EXPECT_FALSE(first.cache_hit);
  const Response second = f.fleet->handle(req);
  ASSERT_TRUE(second.ok);
  EXPECT_TRUE(second.cache_hit);  // owner's sweep cache is warm

  ASSERT_TRUE(f.fleet->kill_shard(static_cast<std::size_t>(owner)));
  // Restarting an alive shard is refused; the dead one revives.
  EXPECT_FALSE(
      f.fleet->restart_shard(static_cast<std::size_t>((owner + 1) % 3)));
  ASSERT_TRUE(f.fleet->restart_shard(static_cast<std::size_t>(owner)));
  EXPECT_TRUE(f.fleet->alive(static_cast<std::size_t>(owner)));
  EXPECT_EQ(f.fleet->route_of(req), owner);  // ownership handed back

  const Response rejoined = f.fleet->handle(req);
  ASSERT_TRUE(rejoined.ok) << rejoined.error;
  EXPECT_FALSE(rejoined.cache_hit);  // fresh server, empty cache...
  EXPECT_EQ(rejoined.nodes, first.nodes);  // ...but bit-identical values
  EXPECT_EQ(rejoined.tile, first.tile);
  EXPECT_EQ(rejoined.time_s, first.time_s);
  EXPECT_EQ(rejoined.node_hours, first.node_hours);
  EXPECT_EQ(rejoined.model_version, first.model_version);

  const FleetCounters c = f.fleet->counters();
  EXPECT_EQ(c.kills, 1u);
  EXPECT_EQ(c.restarts, 1u);
  EXPECT_EQ(c.alive, 3u);
}

TEST(ShardFleetTest, StatsAggregateAcrossShardsAndBatchesAnswerInOrder) {
  FleetOptions opt;
  opt.shards = 3;
  FleetFixture f("stats", opt);
  std::vector<Request> batch;
  for (int i = 0; i < static_cast<int>(kProblems.size()); ++i) {
    Request r = stq(kProblems[static_cast<std::size_t>(i)].first,
                    kProblems[static_cast<std::size_t>(i)].second);
    r.id = "b" + std::to_string(i);
    batch.push_back(std::move(r));
  }
  std::vector<Response> got;
  std::mutex m;
  std::condition_variable cv;
  bool done_flag = false;
  f.fleet->submit_batch_with(batch, [&](std::vector<Response> rs) {
    std::lock_guard<std::mutex> lock(m);
    got = std::move(rs);
    done_flag = true;
    cv.notify_one();
  });
  {
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return done_flag; });
  }
  ASSERT_EQ(got.size(), batch.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(got[i].ok) << got[i].error;
    EXPECT_EQ(got[i].id, "b" + std::to_string(i));  // order preserved
  }

  Request stats;
  stats.op = Op::kStats;
  const Response agg = f.fleet->handle(stats);
  ASSERT_TRUE(agg.ok);
  ASSERT_TRUE(agg.has_stats);
  EXPECT_GE(agg.stats.requests, batch.size());
  EXPECT_EQ(f.fleet->counters().routed, batch.size());
}

TEST(MergeStatsTest, SumsWeighsAndMaxesEveryKindOfField) {
  ServerStats a;
  a.requests = 30;
  a.errors = 2;
  a.sweeps_computed = 4;
  a.cache_hits = 6;
  a.cache_misses = 4;
  a.cache_hit_rate = 0.6;
  a.cache_size = 4;
  a.queue_depth = 1;
  a.models_loaded = 1;
  a.latency_p50_ms = 1.0;
  a.latency_p95_ms = 4.0;
  a.latency_mean_ms = 2.0;
  a.verb_latency[0] = {.count = 10, .p50_ms = 1.0, .p95_ms = 2.0,
                       .p99_ms = 3.0, .max_ms = 9.0};
  a.batch_flushes = 1;
  a.batch_bypass = 3;
  a.batch_size_p50 = 1.0;
  a.batch_size_p95 = 8.0;
  a.online_enabled = true;
  a.online.reports = 5;
  a.online.rolling_mape = 0.4;

  ServerStats b;
  b.requests = 10;
  b.errors = 1;
  b.sweeps_computed = 1;
  b.cache_hits = 0;
  b.cache_misses = 10;
  b.cache_size = 1;
  b.queue_depth = 2;
  b.models_loaded = 2;
  b.latency_p50_ms = 5.0;
  b.latency_p95_ms = 8.0;
  b.latency_mean_ms = 6.0;
  b.verb_latency[0] = {.count = 30, .p50_ms = 5.0, .p95_ms = 6.0,
                       .p99_ms = 7.0, .max_ms = 4.0};
  b.batch_flushes = 0;
  b.batch_bypass = 4;
  b.batch_size_p50 = 1.0;
  b.batch_size_p95 = 1.0;
  b.online.rolling_mape = 0.9;  // online disabled: ignored

  const ServerStats parts[] = {a, b};
  const ServerStats m = merge_stats(parts);
  EXPECT_EQ(m.requests, 40u);
  EXPECT_EQ(m.errors, 3u);
  EXPECT_EQ(m.sweeps_computed, 5u);
  EXPECT_EQ(m.cache_hits, 6u);
  EXPECT_EQ(m.cache_misses, 14u);
  EXPECT_EQ(m.cache_size, 5u);
  EXPECT_EQ(m.queue_depth, 3u);
  EXPECT_EQ(m.models_loaded, 3u);
  EXPECT_DOUBLE_EQ(m.cache_hit_rate, 6.0 / 20.0);
  // Request-weighted: (30 * a + 10 * b) / 40.
  EXPECT_DOUBLE_EQ(m.latency_p50_ms, 2.0);
  EXPECT_DOUBLE_EQ(m.latency_p95_ms, 5.0);
  EXPECT_DOUBLE_EQ(m.latency_mean_ms, 3.0);
  // Count-weighted per verb: (10 * a + 30 * b) / 40; max of the maxima.
  EXPECT_EQ(m.verb_latency[0].count, 40u);
  EXPECT_DOUBLE_EQ(m.verb_latency[0].p50_ms, 4.0);
  EXPECT_DOUBLE_EQ(m.verb_latency[0].p95_ms, 5.0);
  EXPECT_DOUBLE_EQ(m.verb_latency[0].p99_ms, 6.0);
  EXPECT_DOUBLE_EQ(m.verb_latency[0].max_ms, 9.0);
  EXPECT_EQ(m.verb_latency[1].count, 0u);
  EXPECT_DOUBLE_EQ(m.verb_latency[1].p50_ms, 0.0);
  // Dispatch-weighted batch sizes: a has 4 dispatches, b has 4.
  EXPECT_EQ(m.batch_flushes, 1u);
  EXPECT_EQ(m.batch_bypass, 7u);
  EXPECT_DOUBLE_EQ(m.batch_size_p50, 1.0);
  EXPECT_DOUBLE_EQ(m.batch_size_p95, 4.5);
  EXPECT_TRUE(m.online_enabled);
  EXPECT_EQ(m.online.reports, 5u);
  EXPECT_DOUBLE_EQ(m.online.rolling_mape, 0.4);

  // rolling_mape merges as the worst stream across shards.
  ServerStats c;
  c.online_enabled = true;
  c.online.rolling_mape = 0.7;
  const ServerStats with_c[] = {a, c};
  EXPECT_DOUBLE_EQ(merge_stats(with_c).online.rolling_mape, 0.7);
  EXPECT_EQ(merge_stats({}).requests, 0u);
}

TEST(ShardFleetTest, AggregatedRegistryCountersComeFromTheSharedRegistry) {
  FleetOptions opt;
  opt.shards = 3;
  FleetFixture f("registry_counters", opt);
  for (const auto& [o, v] : kProblems) {
    ASSERT_TRUE(f.fleet->handle(stq(o, v)).ok);
  }
  const int owner = f.fleet->route_of(stq(134, 951));
  ASSERT_TRUE(f.fleet->kill_shard(static_cast<std::size_t>(owner)));
  ASSERT_TRUE(f.fleet->handle(stq(134, 951)).ok);  // served by a replica

  const ServerStats s = f.fleet->aggregated_stats();
  EXPECT_EQ(s.models_loaded, f.registry.loads());
  EXPECT_EQ(s.models_trained, f.registry.trainings());
  EXPECT_EQ(s.reload_failures, f.registry.reload_failures());
}

// ----------------------------------------------------------- EventLoopServer

struct TestClient {
  explicit TestClient(int port) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
              0);
  }
  ~TestClient() { close(); }

  void close() {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }

  void send(const std::string& bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n =
          ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      sent += static_cast<std::size_t>(n);
    }
  }

  /// Blocking buffered read of one '\n'-terminated line (without the \n).
  /// Returns empty on EOF.
  std::string read_line() {
    while (true) {
      const std::size_t nl = buf.find('\n');
      if (nl != std::string::npos) {
        const std::string line = buf.substr(0, nl);
        buf.erase(0, nl + 1);
        return line;
      }
      if (!fill()) return "";
    }
  }

  /// Blocking read of one full binary response frame.
  std::vector<Response> read_frame() {
    wire::FrameHeader header;
    while (true) {
      std::string error;
      const auto status = wire::probe_frame(
          reinterpret_cast<const unsigned char*>(buf.data()), buf.size(),
          &header, &error);
      EXPECT_NE(status, wire::FrameStatus::kBad) << error;
      if (status == wire::FrameStatus::kHeader &&
          buf.size() >= wire::kHeaderBytes + header.payload_bytes) {
        const auto out = wire::decode_response_frame(
            header, reinterpret_cast<const unsigned char*>(buf.data()) +
                        wire::kHeaderBytes);
        buf.erase(0, wire::kHeaderBytes + header.payload_bytes);
        return out;
      }
      if (!fill()) return {};
    }
  }

  bool at_eof() { return buf.empty() && !fill(); }

  int fd = -1;
  std::string buf;

 private:
  bool fill() {
    char chunk[4096];
    while (true) {
      const ssize_t n = ::read(fd, chunk, sizeof chunk);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      buf.append(chunk, static_cast<std::size_t>(n));
      return true;
    }
  }
};

/// Synchronous echo dispatch: answers ok with the request's op/id, plus
/// nodes = o so tests can see the payload round-trip.
EventLoopServer::Dispatch echo_dispatch() {
  return [](Request req, EventLoopServer::Completion done) {
    Response r;
    r.ok = true;
    r.op = op_name(req.op);
    r.id = req.id;
    r.has_recommendation = true;
    r.nodes = req.o;
    done(std::move(r));
  };
}

EventLoopServer::BatchDispatch echo_batch_dispatch() {
  return [](std::vector<Request> batch,
            EventLoopServer::BatchCompletion done) {
    std::vector<Response> out;
    out.reserve(batch.size());
    for (const Request& req : batch) {
      Response r;
      r.ok = true;
      r.op = op_name(req.op);
      r.id = req.id;
      r.has_recommendation = true;
      r.nodes = req.o;
      out.push_back(std::move(r));
    }
    done(std::move(out));
  };
}

std::string stq_line(int i) {
  return R"({"op":"stq","o":)" + std::to_string(i + 1) + R"(,"v":2,"id":"q)" +
         std::to_string(i) + R"("})" + "\n";
}

TEST(EventLoopServerTest, BindsAnEphemeralPort) {
  EventLoopServer server(echo_dispatch());
  EXPECT_GT(server.port(), 0);
}

TEST(EventLoopServerTest, ResponsesKeepRequestOrderAcrossReversedCompletions) {
  // The dispatch parks every completion and fires them in REVERSE once all
  // eight arrived — the loop must still deliver responses in request order.
  constexpr int kN = 8;
  std::mutex m;
  std::vector<std::pair<Request, EventLoopServer::Completion>> parked;
  std::thread completer;
  auto dispatch = [&](Request req, EventLoopServer::Completion done) {
    std::lock_guard<std::mutex> lock(m);
    parked.emplace_back(std::move(req), std::move(done));
    if (parked.size() == kN) {
      auto batch = std::move(parked);
      completer = std::thread([batch = std::move(batch)]() mutable {
        for (auto it = batch.rbegin(); it != batch.rend(); ++it) {
          Response r;
          r.ok = true;
          r.op = op_name(it->first.op);
          r.id = it->first.id;
          it->second(std::move(r));
        }
      });
    }
  };
  {
    EventLoopServer server(dispatch);
    TestClient client(server.port());
    std::string all;
    for (int i = 0; i < kN; ++i) all += stq_line(i);
    client.send(all);
    for (int i = 0; i < kN; ++i) {
      const std::string line = client.read_line();
      const auto rec = parse_record(line);
      EXPECT_EQ(rec.at("id"), "q" + std::to_string(i)) << line;
    }
  }
  if (completer.joinable()) completer.join();
}

TEST(EventLoopServerTest, InterleavesJsonAndBinaryOnOneConnection) {
  EventLoopServer server(echo_dispatch(), echo_batch_dispatch());
  TestClient client(server.port());

  std::vector<Request> batch;
  for (int i = 0; i < 3; ++i) {
    Request r;
    r.op = Op::kBq;
    r.o = 10 + i;
    r.v = 2;
    r.id = "f" + std::to_string(i);
    batch.push_back(std::move(r));
  }
  client.send(stq_line(0));
  client.send(wire::encode_request_frame(batch));
  client.send(stq_line(1));

  const auto first = parse_record(client.read_line());
  EXPECT_EQ(first.at("id"), "q0");
  const auto frame = client.read_frame();
  ASSERT_EQ(frame.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(frame[static_cast<std::size_t>(i)].ok);
    EXPECT_EQ(frame[static_cast<std::size_t>(i)].id, "f" + std::to_string(i));
    EXPECT_EQ(frame[static_cast<std::size_t>(i)].nodes, 10 + i);
  }
  const auto second = parse_record(client.read_line());
  EXPECT_EQ(second.at("id"), "q1");

  const EventLoopStats stats = server.stats();
  EXPECT_EQ(stats.frames_in, 1u);
  EXPECT_EQ(stats.lines_in, 2u);
  EXPECT_EQ(stats.requests_in, 5u);
}

TEST(EventLoopServerTest, BinaryFramesFanOutWithoutABatchDispatch) {
  // batch_dispatch == nullptr: frame records flow through the per-request
  // dispatch and are stitched back into one response frame.
  EventLoopServer server(echo_dispatch());
  TestClient client(server.port());
  std::vector<Request> batch;
  for (int i = 0; i < 4; ++i) {
    Request r;
    r.op = Op::kStq;
    r.o = 7 * (i + 1);
    r.v = 2;
    r.id = "r" + std::to_string(i);
    batch.push_back(std::move(r));
  }
  client.send(wire::encode_request_frame(batch));
  const auto replies = client.read_frame();
  ASSERT_EQ(replies.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(replies[static_cast<std::size_t>(i)].id, "r" + std::to_string(i));
    EXPECT_EQ(replies[static_cast<std::size_t>(i)].nodes, 7 * (i + 1));
  }
}

TEST(EventLoopServerTest, GarbageJsonLineAnswersErrorAndConnectionSurvives) {
  EventLoopServer server(echo_dispatch());
  TestClient client(server.port());
  client.send("this is not json\n");
  const auto err = parse_record(client.read_line());
  EXPECT_EQ(err.at("ok"), "false");
  // The stream is still usable: a parse error poisons one line, not the
  // connection.
  client.send(stq_line(5));
  EXPECT_EQ(parse_record(client.read_line()).at("id"), "q5");
  EXPECT_GE(server.stats().protocol_errors, 1u);
}

TEST(EventLoopServerTest, BadMagicAnswersErrorFrameAndCloses) {
  EventLoopServer server(echo_dispatch());
  TestClient client(server.port());
  // 0xC3 commits the stream to a frame; a wrong continuation byte is
  // unrecoverable (framing is lost), so: one error frame, then EOF.
  client.send(std::string("\xC3XPB", 4) + std::string(16, 'x'));
  const auto replies = client.read_frame();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_FALSE(replies[0].ok);
  EXPECT_TRUE(client.at_eof());
}

TEST(EventLoopServerTest, OversizedDeclaredLengthRejectedFromHeaderAlone) {
  EventLoopServer server(echo_dispatch());
  TestClient client(server.port());
  // Valid magic/version/kind, but a declared payload over the cap. Only
  // the 12 header bytes are ever sent — the server must reject without
  // waiting for (or allocating) the declared two gigabytes.
  std::string header(wire::kHeaderBytes, '\0');
  header[0] = static_cast<char>(0xC3);
  header[1] = 'C';
  header[2] = 'P';
  header[3] = 'B';
  header[4] = static_cast<char>(wire::kVersion);
  header[5] = 0;
  header[6] = 1;
  header[7] = 0;
  header[8] = header[9] = header[10] = 0;
  header[11] = static_cast<char>(0x80);  // payload_bytes = 2 GiB
  client.send(header);
  const auto replies = client.read_frame();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_FALSE(replies[0].ok);
  EXPECT_TRUE(client.at_eof());
}

TEST(EventLoopServerTest, MidFrameDisconnectIsHarmless) {
  EventLoopServer server(echo_dispatch(), echo_batch_dispatch());
  {
    TestClient half(server.port());
    Request r;
    r.op = Op::kStq;
    r.o = 3;
    r.v = 2;
    const std::string frame = wire::encode_request_frame({r});
    half.send(frame.substr(0, frame.size() / 2));
    half.close();  // peer vanishes mid-frame
  }
  // The server must have reaped the dead connection and still serve.
  TestClient client(server.port());
  client.send(stq_line(9));
  EXPECT_EQ(parse_record(client.read_line()).at("id"), "q9");
}

TEST(EventLoopServerTest, ManyConcurrentConnectionsAllAnswered) {
  EventLoopServer server(echo_dispatch());
  constexpr int kConns = 32;
  std::vector<std::unique_ptr<TestClient>> clients;
  clients.reserve(kConns);
  for (int c = 0; c < kConns; ++c) {
    clients.push_back(std::make_unique<TestClient>(server.port()));
    clients.back()->send(stq_line(c));
  }
  for (int c = 0; c < kConns; ++c) {
    EXPECT_EQ(parse_record(clients[static_cast<std::size_t>(c)]->read_line())
                  .at("id"),
              "q" + std::to_string(c));
  }
  EXPECT_EQ(server.stats().connections_accepted,
            static_cast<std::uint64_t>(kConns));
}

// ------------------------------------------------------------ remote shards
//
// The fleet `ccpred_serverd serve --fleet N` runs: every slot is a remote
// shard reached over one binary-wire connection. Each shard here is an
// in-process Server behind an EventLoopServer on an ephemeral port, so the
// daemon's router is tested without a fork.

struct RemoteFleetFixture {
  RemoteFleetFixture(const std::string& name, std::size_t shards)
      : dir(scratch_dir(name)), registry(dir) {
    ml::save_gb(fleet_gb(), registry.artifact_path("aurora", "gb"));
    FleetOptions opt;
    opt.serve.threads = 2;
    std::vector<int> ports;
    for (std::size_t i = 0; i < shards; ++i) {
      servers.push_back(std::make_unique<Server>(registry, opt.serve));
      Server& server = *servers.back();
      listeners.push_back(std::make_unique<EventLoopServer>(
          [&server](Request r, EventLoopServer::Completion done) {
            server.submit_with(std::move(r), std::move(done));
          },
          [&server](std::vector<Request> b,
                    EventLoopServer::BatchCompletion done) {
            server.submit_batch_with(std::move(b), std::move(done));
          }));
      ports.push_back(listeners.back()->port());
    }
    fleet = std::make_unique<ShardFleet>(ports, opt);
  }

  std::string dir;
  ModelRegistry registry;
  std::vector<std::unique_ptr<Server>> servers;
  std::vector<std::unique_ptr<EventLoopServer>> listeners;
  std::unique_ptr<ShardFleet> fleet;  ///< last: destroyed first
};

/// Submits one frame and waits for its answer; a second completion would
/// throw from set_value.
std::vector<Response> submit_frame(ShardFleet& fleet,
                                   std::vector<Request> batch) {
  std::promise<std::vector<Response>> promise;
  auto future = promise.get_future();
  fleet.submit_batch_with(std::move(batch),
                          [&promise](std::vector<Response> out) {
                            promise.set_value(std::move(out));
                          });
  return future.get();
}

/// The answer as rendered, minus cache_hit, which says which shard's cache
/// served it, not what the answer is.
std::string answer_bytes(Response r) {
  r.cache_hit = false;
  return format_response(r);
}

/// The nine problem sizes of the serverd session smoke test.
const std::vector<std::pair<int, int>> kNine = {
    {44, 260},  {81, 835},  {85, 698},  {99, 718}, {116, 575},
    {134, 523}, {134, 951}, {146, 591}, {180, 720}};

TEST(RemoteFleetTest, StatsInsideAFrameCoverTheWholeFleet) {
  RemoteFleetFixture f("remote_frame_stats", 2);
  std::set<int> owners;
  for (const auto& [o, v] : kNine) {
    owners.insert(f.fleet->route_of(stq(o, v)));
    const auto out = submit_frame(*f.fleet, {stq(o, v)});
    ASSERT_EQ(out.size(), 1u);
    ASSERT_TRUE(out[0].ok) << out[0].error;
  }
  ASSERT_EQ(owners.size(), 2u) << "the keys must span both shards";

  Request stats;
  stats.op = Op::kStats;
  Request bq = stq(44, 260);
  bq.op = Op::kBq;
  const auto out = submit_frame(*f.fleet, {stq(134, 951), stats, bq});
  ASSERT_EQ(out.size(), 3u);
  for (const Response& r : out) EXPECT_TRUE(r.ok) << r.error;
  ASSERT_TRUE(out[1].has_stats);
  // One sweep per problem size, summed over both shards — not the one
  // shard a frame routes to.
  EXPECT_EQ(out[1].stats.sweeps_computed, kNine.size());
  EXPECT_EQ(out[1].stats.sweeps_computed,
            f.fleet->aggregated_stats().sweeps_computed);
}

TEST(RemoteFleetTest, ALostShardFailsOverWithByteIdenticalAnswers) {
  constexpr std::size_t kShards = 3;
  RemoteFleetFixture f("remote_failover", kShards);
  std::vector<std::string> before;
  for (const auto& [o, v] : kNine) {
    const Response r = f.fleet->handle(stq(o, v));
    ASSERT_TRUE(r.ok) << r.error;
    before.push_back(answer_bytes(r));
  }

  const int victim = f.fleet->route_of(stq(kNine[0].first, kNine[0].second));
  ASSERT_GE(victim, 0);
  f.listeners[static_cast<std::size_t>(victim)].reset();  // socket gone

  for (std::size_t i = 0; i < kNine.size(); ++i) {
    const Request req = stq(kNine[i].first, kNine[i].second);
    const auto out = submit_frame(*f.fleet, {req});
    ASSERT_EQ(out.size(), 1u);
    ASSERT_TRUE(out[0].ok) << "request " << i << ": " << out[0].error;
    EXPECT_EQ(answer_bytes(out[0]), before[i]) << "request " << i;
    const Response again = f.fleet->handle(req);
    ASSERT_TRUE(again.ok) << "request " << i << ": " << again.error;
    EXPECT_EQ(answer_bytes(again), before[i]) << "request " << i;
  }

  const FleetCounters c = f.fleet->counters();
  EXPECT_GE(c.failovers, 1u);
  EXPECT_EQ(c.alive, kShards - 1);
  EXPECT_FALSE(f.fleet->alive(static_cast<std::size_t>(victim)));
  EXPECT_EQ(c.unrouteable, 0u);

  // Stats merge the live shards only.
  std::uint64_t live_sweeps = 0;
  for (std::size_t i = 0; i < kShards; ++i) {
    if (i != static_cast<std::size_t>(victim)) {
      live_sweeps += f.servers[i]->stats().sweeps_computed;
    }
  }
  EXPECT_EQ(f.fleet->aggregated_stats().sweeps_computed, live_sweeps);
}

TEST(RemoteFleetTest, WithEveryShardGoneRequestsAndStatsAnswerUnavailable) {
  RemoteFleetFixture f("remote_all_gone", 2);
  Request stats;
  stats.op = Op::kStats;
  ASSERT_TRUE(f.fleet->handle(stats).ok);  // connects to every shard
  for (auto& listener : f.listeners) listener.reset();

  const Response r = f.fleet->handle(stq(134, 951));
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.code, "unavailable");
  const FleetCounters c = f.fleet->counters();
  EXPECT_EQ(c.alive, 0u);
  EXPECT_EQ(c.unrouteable, 1u);
  const Response s = f.fleet->handle(stats);
  EXPECT_FALSE(s.ok);
  EXPECT_EQ(s.code, "unavailable");
}

TEST(RemoteFleetTest, AFieldTheWireCannotCarryFailsTheRequestNotTheShard) {
  RemoteFleetFixture f("remote_oversized", 2);
  Request big = stq(134, 951);
  big.id.assign(wire::kMaxStringBytes + 1, 'x');
  const Response r = f.fleet->handle(big);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.code, "bad_request");
  EXPECT_EQ(f.fleet->counters().alive, 2u);
  EXPECT_TRUE(f.fleet->handle(stq(134, 951)).ok);
}

}  // namespace
}  // namespace ccpred::serve
