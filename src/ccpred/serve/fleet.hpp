#pragma once

/// \file fleet.hpp
/// Horizontal scale-out for the serving layer: N Server shards behind a
/// consistent-hash router.
///
/// Sharding key. Sweeps — the expensive unit of work — are pure functions
/// of (machine, kind, O, V) at a given model version, so that tuple is the
/// routing key: every repeat of a question lands on the shard whose sweep
/// cache already holds the answer. The model version is deliberately NOT
/// part of the key (a hot-reload would re-shard the whole keyspace for
/// nothing); job estimates route by the same (machine, kind, O, V) for
/// locality, stats fan out to every live shard and aggregate.
///
/// The ring. Each shard owns `vnodes` pseudo-random points on a u64 ring
/// (splitmix64 of (shard, replica)); a key belongs to the first shard
/// point clockwise from its hash. Adding or removing one shard therefore
/// moves only the slices adjacent to its points — the property the fleet
/// test pins down — and the ring is identical in every process that
/// configures the same shard count, which is what lets the serverd
/// `--fleet` router and its child processes agree on ownership without
/// any coordination.
///
/// Failure. kill_shard() models a crashed worker: the Server object is
/// dropped (its pools drain once in-flight requests release it) and the
/// slot goes dead. Routing then walks the key's preference list — the
/// distinct shards in ring order after the owner — to the first live
/// replica ("failover re-hash"). A restarted shard rejoins with an EMPTY
/// cache but, because sweeps are deterministic, answers bit-identically;
/// only cache_hit flags and latency differ. The chaos test (seeds 1/7/42)
/// drives kills and restarts through the FaultInjector's kShardKill /
/// kShardRestart points while asserting every request is answered exactly
/// once with baseline-identical bytes. The last live shard is never
/// killed, so an answer always exists.

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
  std::size_t vnodes = 64;  ///< ring points per shard
  ServeOptions serve;       ///< applied to every shard's Server
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
  std::uint64_t kills = 0;
  std::uint64_t restarts = 0;
  std::uint64_t unrouteable = 0;  ///< no live shard (cannot happen via faults)
};

/// In-process shard fleet. Thread-safe: handle()/submit_with() may be
/// called from any number of threads. All shards share one ModelRegistry,
/// so answers carry identical model versions regardless of which shard
/// serves them.
class ShardFleet {
 public:
  ShardFleet(ModelRegistry& registry, FleetOptions options);

  /// Routes one request to its shard (with failover) and handles it
  /// synchronously. Stats requests aggregate across live shards.
  Response handle(const Request& request);

  /// Routes and enqueues onto the target shard's worker pool.
  void submit_with(Request request, std::function<void(Response)> done);

  /// One worker task on the target shard of the FIRST request — wire
  /// frames are batched by the client precisely because they share a
  /// destination; mixed-destination frames still answer correctly, just
  /// without cache locality for the strays.
  void submit_batch_with(std::vector<Request> batch,
                         std::function<void(std::vector<Response>)> done);

  /// Tears down shard `i` (no-op if already dead or it is the last live
  /// shard; returns whether it died). In-flight requests finish first —
  /// the Server is destroyed when the last holder lets go.
  bool kill_shard(std::size_t i);

  /// Revives shard `i` with a fresh (empty-cache) Server. No-op if alive.
  bool restart_shard(std::size_t i);

  bool alive(std::size_t i) const;
  std::size_t shard_count() const { return slots_.size(); }

  /// The shard this request would be served by right now (failover
  /// applied), or -1 for stats fan-out. Exposed for tests.
  int route_of(const Request& request) const;

  FleetCounters counters() const;
  /// merge_stats() over the live shards' snapshots, with the registry
  /// counters (reload failures, loads, trainings) taken once from the
  /// registry every shard shares.
  ServerStats aggregated_stats() const;

 private:
  struct Slot {
    mutable std::mutex mutex;        ///< guards `server` swap
    std::shared_ptr<Server> server;  ///< null while dead
    std::atomic<bool> alive{true};
    std::atomic<std::uint64_t> routed{0};
  };

  /// Pins the slot's server (or nullptr if dead).
  std::shared_ptr<Server> pin(std::size_t i) const;
  /// Key hash for a request, defaults applied.
  std::uint64_t request_key(const Request& request) const;
  /// First live shard in the key's preference list; -1 if none.
  int pick(std::uint64_t key, bool* failed_over) const;
  /// The routing loop behind handle/submit_with/submit_batch_with: runs
  /// the chaos points for `request`'s key, then pins the first live shard
  /// of its preference list, counting a failover if the owner was dead and
  /// `n` routed requests. Returns nullptr (counted unrouteable) when no
  /// shard is alive.
  std::shared_ptr<Server> route(const Request& request, std::size_t n);
  /// Consults the chaos points once per routed request.
  void maybe_chaos(std::uint64_t key);
  Response stats_response(const Request& request);

  ModelRegistry& registry_;
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
};

}  // namespace ccpred::serve
