#pragma once

/// \file fleet.hpp
/// Horizontal scale-out for the serving layer: N shards behind one
/// consistent-hash router, ShardFleet. A slot holds a Shard (server.hpp):
/// an in-process Server, or a shard process that `ccpred_serverd serve
/// --fleet N` forked, reached over one pooled binary-wire connection. Both
/// kinds share one routing loop, one stats fan-out and merge, one answer
/// for frames that carry a stats record and one set of fleet counters.
///
/// Sharding key. Sweeps — the expensive unit of work — are pure functions
/// of (machine, kind, O, V) at a given model version, so that tuple is the
/// routing key: every repeat of a question lands on the shard whose sweep
/// cache already holds the answer. The model version is deliberately NOT
/// part of the key (a hot-reload would re-shard the whole keyspace for
/// nothing); job estimates route by the same (machine, kind, O, V) for
/// locality, stats fan out to every live shard and aggregate — also when
/// the stats request arrives inside a binary frame.
///
/// The ring. Each shard owns 64 pseudo-random points on a u64 ring
/// (splitmix64 of (shard, replica)); a key belongs to the first shard
/// point clockwise from its hash. Adding or removing one shard therefore
/// moves only the slices adjacent to its points — the property the fleet
/// test pins down — and the ring is identical in every process that
/// configures the same shard count, so the daemon's router and its shard
/// processes agree on ownership without any coordination.
///
/// Failure. kill_shard() models a crashed worker: the slot's shard is
/// dropped (an in-process Server drains once in-flight requests release
/// it) and the slot goes dead. A remote shard whose round trip fails
/// (connect timeout, lost connection, malformed reply) dies the same way.
/// Routing walks the key's preference list — the distinct shards in ring
/// order after the owner — to the first live one ("failover re-hash"),
/// and a frame whose remote round trip failed moves on along that list.
/// A restarted in-process shard rejoins with an EMPTY cache but, because
/// sweeps are deterministic, answers bit-identically; only cache_hit flags
/// and latency differ. The chaos test (seeds 1/7/42) drives kills and
/// restarts through the FaultInjector's kShardKill / kShardRestart points
/// while asserting every request is answered exactly once with
/// baseline-identical bytes. kill_shard() never kills the last live
/// shard, so an answer always exists; when every remote shard is gone,
/// requests are answered code="unavailable".

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "ccpred/serve/server.hpp"

namespace ccpred::serve {

/// Consistent-hash ring over integer shard ids. Not thread-safe; the
/// fleet mutates it only under its own lock (membership changes are rare).
class HashRing {
 public:
  explicit HashRing(std::size_t vnodes = 64);

  void add(int shard);
  void remove(int shard);
  bool contains(int shard) const { return shards_.count(shard) != 0; }
  std::size_t shard_count() const { return shards_.size(); }

  /// The shard owning `key` (first point clockwise). Throws if empty.
  int owner(std::uint64_t key) const;

  /// Up to `n` distinct shards in ring order starting at the owner: the
  /// key's failover preference list.
  std::vector<int> preference(std::uint64_t key, std::size_t n) const;

  /// Deterministic routing hash of the sweep-cache keyspace.
  static std::uint64_t key_hash(const std::string& machine,
                                const std::string& kind, int o, int v);

 private:
  std::size_t vnodes_;
  std::map<std::uint64_t, int> ring_;  ///< point -> shard
  std::set<int> shards_;
};

/// Fleet construction knobs.
struct FleetOptions {
  std::size_t shards = 3;
  ServeOptions serve;  ///< applied to every shard's Server
  /// Optional chaos source consulted once per routed request: kShardKill
  /// tears down the target shard (never the last live one), kShardRestart
  /// revives the lowest-numbered dead shard. Must outlive the fleet.
  FaultInjector* fault_injector = nullptr;
};

/// Fleet-level counters (per-shard ServerStats aggregate separately).
struct FleetCounters {
  std::size_t shards = 0;
  std::size_t alive = 0;
  std::uint64_t routed = 0;     ///< requests routed to a shard
  std::uint64_t failovers = 0;  ///< served by a replica, owner dead
  std::uint64_t kills = 0;      ///< kill_shard() deaths and lost remotes
  std::uint64_t restarts = 0;
  std::uint64_t unrouteable = 0;  ///< no live shard (cannot happen via faults)
};

/// Shard fleet. Thread-safe: handle()/submit_with() may be called from any
/// number of threads. A fleet is itself a Shard, so the daemon serves one
/// exactly as it serves a single Server.
class ShardFleet final : public Shard {
 public:
  /// In-process fleet of `options.shards` Servers. All shards share one
  /// ModelRegistry, so answers carry identical model versions regardless
  /// of which shard serves them.
  ShardFleet(ModelRegistry& registry, FleetOptions options);

  /// Fleet of shard processes: shard i listens on 127.0.0.1:ports[i] and
  /// speaks the binary wire protocol. `options.shards` is taken from
  /// `ports`. Round trips block, so submit_with() and submit_batch_with()
  /// route on a pool of `options.serve.threads` workers (0 = hardware),
  /// never on the caller's thread. Dead shards cannot be restarted.
  ShardFleet(const std::vector<int>& ports, FleetOptions options);

  /// Routes one request to its shard (with failover) and handles it
  /// synchronously. Stats requests aggregate across live shards.
  Response handle(const Request& request) override;

  /// A one-record submit_batch_with().
  void submit_with(Request request,
                   std::function<void(Response)> done) override;

  /// One worker task on the target shard of the FIRST request — wire
  /// frames are batched by the client precisely because they share a
  /// destination; mixed-destination frames still answer correctly, just
  /// without cache locality for the strays. A frame holding a stats record
  /// is answered record by record, so its stats cover the whole fleet.
  void submit_batch_with(
      std::vector<Request> batch,
      std::function<void(std::vector<Response>)> done) override;

  /// aggregated_stats().
  ServerStats stats() const override { return aggregated_stats(); }

  /// Tears down shard `i` (no-op if already dead or it is the last live
  /// shard; returns whether it died). In-flight requests finish first —
  /// the shard is destroyed when the last holder lets go.
  bool kill_shard(std::size_t i);

  /// Revives in-process shard `i` with a fresh (empty-cache) Server. No-op
  /// if alive or if the fleet's shards are remote.
  bool restart_shard(std::size_t i);

  bool alive(std::size_t i) const;
  std::size_t shard_count() const { return slots_.size(); }

  /// The shard this request would be served by right now (failover
  /// applied), or -1 for stats fan-out. Exposed for tests.
  int route_of(const Request& request) const;

  FleetCounters counters() const;
  /// merge_stats() over the live shards' snapshots. Shards that share a
  /// registry (in-process fleets) take its counters (reload failures,
  /// loads, trainings) once from it; shard processes own theirs, and
  /// they sum.
  ServerStats aggregated_stats() const;

 private:
  struct Slot {
    explicit Slot(std::shared_ptr<Shard> s) : shard(std::move(s)) {}
    mutable std::mutex mutex;     ///< guards `shard` swap
    std::shared_ptr<Shard> shard;  ///< null while dead
    std::atomic<bool> alive{true};
    std::atomic<std::uint64_t> routed{0};
  };

  /// Pins the slot's shard (or nullptr if dead).
  std::shared_ptr<Shard> pin(std::size_t i) const;
  /// Key hash for a request, defaults applied.
  std::uint64_t request_key(const Request& request) const;
  /// First live shard in the key's preference list; -1 if none.
  int pick(std::uint64_t key) const;
  /// The one routing loop: runs the chaos points for `request`'s key, then
  /// calls `serve` on the first live shard of its preference list,
  /// counting `n` routed requests and a failover if an earlier shard was
  /// dead. A shard whose `serve` throws ShardDown dies, and the walk goes
  /// on. Returns false (counted unrouteable) when no shard answered.
  template <typename Serve>
  bool route(const Request& request, std::size_t n, Serve&& serve);
  /// submit_batch_with() on the calling thread.
  void route_frame(const std::vector<Request>& batch,
                   const std::function<void(std::vector<Response>)>& done);
  /// Consults the chaos points once per routed request.
  void maybe_chaos(std::uint64_t key);
  /// Empties slot `i`; with `keep_last`, refuses to empty the last live
  /// slot. Returns whether the slot died.
  bool retire(std::size_t i, bool keep_last);
  Response stats_response(const Request& request);

  ModelRegistry* registry_;  ///< shared by in-process shards; else null
  FleetOptions options_;
  HashRing ring_;
  std::vector<std::unique_ptr<Slot>> slots_;
  /// Serializes kill/restart so two concurrent kills can never observe
  /// "two alive" and together empty the fleet.
  mutable std::mutex membership_mutex_;
  std::atomic<std::uint64_t> failovers_{0};
  std::atomic<std::uint64_t> kills_{0};
  std::atomic<std::uint64_t> restarts_{0};
  std::atomic<std::uint64_t> unrouteable_{0};
  /// Remote fleets only. Last member: drains queued round trips while the
  /// slots they route to are still alive.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace ccpred::serve
