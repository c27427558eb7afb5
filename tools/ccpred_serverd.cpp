/// ccpred_serverd — the recommendation-serving daemon.
///
/// Subcommands:
///   train --artifacts DIR --machine aurora|frontier [--model gb|rf]
///         [--rows N] [--seed S] [--estimators N]
///       Run a simulated trace-collection campaign, train the model and
///       publish the artifact as DIR/<machine>-<model>.model.
///   serve --artifacts DIR [--default-machine M] [--default-model gb|rf]
///         [--threads N] [--cache N] [--port P] [--backlog N] [--serial 1]
///         [--fleet N] [--max-queue N] [--batch-max N] [--online 1]
///         [--online-drift-threshold X] [--rows N] [--seed S]
///         [--estimators N]
///       Serve requests (see serve/protocol.hpp) from stdin, one response
///       line per request line, in request order. Requests are pipelined
///       through the worker pool unless --serial 1 is given.
///
///       With --port, additionally listen on 127.0.0.1:P through the
///       non-blocking epoll event loop (serve/event_loop.hpp). Every
///       connection may speak line-JSON, the binary batch protocol
///       (serve/wire.hpp), or interleave both — the server tells them
///       apart from the first byte of each message. --backlog sets the
///       listen(2) queue (default SOMAXCONN). EOF on stdin shuts the
///       server down and prints a final stats line to stderr.
///
///       --fleet N forks N shard processes listening on ports P+1..P+N,
///       each a full Server over the shared artifacts directory; the
///       parent serves its listener on P and stdin through a
///       serve::ShardFleet of those processes — the same consistent-hash
///       router the in-process fleet uses — forwarding every request to
///       the shard owning its (machine, model, O, V) key over pooled
///       binary-wire connections, and failing over to the next shard in
///       ring order if a shard dies. Pre-train artifacts first so the
///       shards start instantly and answer reproducibly. `stats` fans out
///       to every live shard and aggregates, also inside a binary frame.
///
///       --max-queue bounds each worker backlog: beyond it, requests are
///       answered immediately with code="overloaded" (the event loop
///       passes the rejection through; clients own the retry policy).
///       --batch-max caps a micro-batch (0 disables batching).
///
///       --online 1 activates the closed-loop online learner: the `report`
///       verb ingests measured runs, drift against served predictions
///       triggers background refits, and candidates that win shadow
///       evaluation are atomically promoted (see serve/online/).
///       --online-drift-threshold sets the rolling MAPE that counts as
///       drift (default 0.25); the learner's other knobs keep their
///       OnlineOptions defaults.
///
/// Missing artifacts are trained on first use (train-and-cache), so
/// `serve` works on an empty directory — pre-train with `train` to make
/// startup instant and answers reproducible across deployments.
///
/// Each subcommand accepts only the flags it reads (kSubcommands; the
/// usage text lists them): any other flag fails with `unknown flag --X`
/// before any work starts.

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <deque>
#include <future>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "ccpred/common/error.hpp"
#include "ccpred/common/strings.hpp"
#include "ccpred/serve/event_loop.hpp"
#include "ccpred/serve/fleet.hpp"
#include "ccpred/serve/model_registry.hpp"
#include "ccpred/serve/server.hpp"
#include "flags.hpp"

namespace {

using namespace ccpred;
using namespace ccpred::tools;

serve::RegistryOptions registry_options(const Flags& flags) {
  serve::RegistryOptions opt;
  opt.fallback_rows = int_flag<std::size_t>(flags, "rows", "600");
  opt.fallback_seed = int_flag<std::uint64_t>(flags, "seed", "2025");
  if (flags.count("estimators")) {
    const int n = int_flag<int>(flags, "estimators");
    opt.gb_estimators = n;
    opt.rf_estimators = n;
  }
  return opt;
}

int cmd_train(const Flags& flags) {
  serve::ModelRegistry registry(need(flags, "artifacts"),
                                registry_options(flags));
  const std::string machine = need(flags, "machine");
  const std::string kind = get_or(flags, "model", "gb");
  const std::string path = registry.train_artifact(machine, kind);
  std::printf("trained %s/%s artifact: %s\n", machine.c_str(), kind.c_str(),
              path.c_str());
  return 0;
}

/// One protocol line in, one response line out (used by the stdin
/// --serial path).
std::string answer_line(serve::Shard& front, const std::string& line) {
  try {
    return serve::format_response(front.handle(serve::parse_request(line)));
  } catch (const std::exception& e) {
    return serve::format_response(serve::error_response(e.what()));
  }
}

/// The online-learning options: --online and its drift threshold, a
/// finite number > 0 (checked even when --online is off).
serve::online::OnlineOptions online_options_from_flags(const Flags& flags) {
  serve::online::OnlineOptions opt;
  opt.enabled = switch_on(flags, "online");
  const std::string key = "online-drift-threshold";
  const double threshold = double_flag(flags, key, "0.25");
  if (threshold <= 0.0) {
    throw Error("--" + key + " must be > 0, got '" + get_or(flags, key, "") +
                "'");
  }
  opt.drift.mape_threshold = threshold;
  return opt;
}

serve::ServeOptions serve_options_from_flags(const Flags& flags) {
  serve::ServeOptions opt;
  opt.threads = int_flag<std::size_t>(flags, "threads", "0");
  opt.cache_capacity = int_flag<std::size_t>(flags, "cache", "256");
  opt.max_queue_depth = int_flag<std::size_t>(flags, "max-queue", "0");
  opt.default_machine = get_or(flags, "default-machine", "aurora");
  opt.default_model = get_or(flags, "default-model", "gb");
  opt.online = online_options_from_flags(flags);
  // Dynamic micro-batching: on by default for the daemon (the whole point
  // of a multi-client front end); --batch-max 0 disables it.
  opt.batch.max_batch = int_flag<std::size_t>(flags, "batch-max", "64");
  opt.batch.enabled = opt.batch.max_batch > 0;
  return opt;
}

/// Everything `serve` reads from its flags. serve_config() parses and
/// range-checks all of it before any fork, load or socket, so a bad value
/// fails like an unknown flag, never inside a forked shard.
struct ServeConfig {
  std::string artifacts;
  bool serial = false;
  int fleet = 0;            ///< shard processes; 0 serves in this process
  std::optional<int> port;  ///< no listener without --port
  serve::RegistryOptions registry;
  serve::ServeOptions serve;
  serve::EventLoopOptions loop;  ///< its port is set per listener
};

ServeConfig serve_config(const Flags& flags) {
  ServeConfig cfg;
  cfg.artifacts = need(flags, "artifacts");
  cfg.serial = switch_on(flags, "serial");
  cfg.fleet = static_cast<int>(
      parse_int_in(get_or(flags, "fleet", "0"), "--fleet", 0, 64));
  if (flags.count("port") != 0) {
    cfg.port = static_cast<int>(
        parse_int_in(flags.at("port"), "--port", 0, 65535));
  }
  // Shards listen on port + 1 .. port + N: the router needs a real port
  // (0 would fork shards onto ports 1..N) with room for them after it.
  if (cfg.fleet > 0 &&
      !(cfg.port && *cfg.port >= 1 && *cfg.port + cfg.fleet <= 65535)) {
    throw Error("--fleet " + std::to_string(cfg.fleet) +
                " needs --port in 1.." + std::to_string(65535 - cfg.fleet));
  }
  cfg.registry = registry_options(flags);
  cfg.serve = serve_options_from_flags(flags);
  // A negative backlog means SOMAXCONN.
  cfg.loop.backlog = int_flag<int>(flags, "backlog", "-1",
                                   std::numeric_limits<int>::min());
  return cfg;
}

/// The epoll listener on 127.0.0.1:port over `front`: single requests go
/// through submit_with, whole binary frames through submit_batch_with (one
/// hand-off per frame).
std::unique_ptr<serve::EventLoopServer> open_listener(serve::Shard& front,
                                                      const ServeConfig& cfg,
                                                      int port) {
  serve::EventLoopOptions opt = cfg.loop;
  opt.port = port;
  auto listener = std::make_unique<serve::EventLoopServer>(
      [&front](serve::Request request,
               serve::EventLoopServer::Completion done) {
        front.submit_with(std::move(request), std::move(done));
      },
      [&front](std::vector<serve::Request> batch,
               serve::EventLoopServer::BatchCompletion done) {
        front.submit_batch_with(std::move(batch), std::move(done));
      },
      opt);
  std::fprintf(stderr,
               "ccpred_serverd listening on 127.0.0.1:%d "
               "(epoll, JSON + binary frames)\n",
               listener->port());
  return listener;
}

void print_loop_stats(const serve::EventLoopServer& listener) {
  const serve::EventLoopStats ls = listener.stats();
  std::fprintf(stderr,
               "event loop: %llu connections, %llu requests (%llu frames, "
               "%llu lines), %llu protocol errors, %llu overflow closes\n",
               static_cast<unsigned long long>(ls.connections_accepted),
               static_cast<unsigned long long>(ls.requests_in),
               static_cast<unsigned long long>(ls.frames_in),
               static_cast<unsigned long long>(ls.lines_in),
               static_cast<unsigned long long>(ls.protocol_errors),
               static_cast<unsigned long long>(ls.overflow_closes));
}

void print_final_stats(const serve::ServerStats& s) {
  const LatencyHistogram::Snapshot latency = s.total_latency();
  std::fprintf(stderr,
               "served %llu requests (%llu errors), %llu sweeps, cache "
               "hit rate %.2f, p50 %.2f ms, p95 %.2f ms\n",
               static_cast<unsigned long long>(s.requests),
               static_cast<unsigned long long>(s.errors),
               static_cast<unsigned long long>(s.sweeps_computed),
               s.cache_hit_rate(), latency.quantile(0.50) * 1e3,
               latency.quantile(0.95) * 1e3);
  if (s.deadline_exceeded + s.shed + s.stale_served + s.reload_failures > 0) {
    std::fprintf(stderr,
                 "degraded: %llu deadline, %llu shed, %llu stale, %llu reload "
                 "failures\n",
                 static_cast<unsigned long long>(s.deadline_exceeded),
                 static_cast<unsigned long long>(s.shed),
                 static_cast<unsigned long long>(s.stale_served),
                 static_cast<unsigned long long>(s.reload_failures));
  }
}

/// Serves `front` until EOF on stdin, answering stdin lines on stdout in
/// request order — pipelined through submit_with, or one at a time with
/// --serial 1 — while `listener`, if any, serves its socket. Then prints
/// the final stats to stderr.
void serve_stdin(serve::Shard& front, bool serial,
                 const serve::EventLoopServer* listener) {
  // Flush completed responses in request order (a response never
  // overtakes an earlier one).
  std::deque<std::future<serve::Response>> pending;
  const auto flush_ready = [&](bool all) {
    while (!pending.empty() &&
           (all || pending.front().wait_for(std::chrono::seconds(0)) ==
                       std::future_status::ready)) {
      std::cout << serve::format_response(pending.front().get()) << '\n';
      pending.pop_front();
    }
    if (all) std::cout.flush();
  };

  std::string line;
  while (std::getline(std::cin, line)) {
    if (trim(line).empty()) continue;
    if (serial) {
      std::cout << answer_line(front, line) << std::endl;
      continue;
    }
    auto promise = std::make_shared<std::promise<serve::Response>>();
    pending.push_back(promise->get_future());
    serve::Request req;
    try {
      req = serve::parse_request(line);
    } catch (const std::exception& e) {
      // Keep ordering: the parse error answers in this line's place.
      promise->set_value(serve::error_response(e.what()));
      flush_ready(false);
      continue;
    }
    front.submit_with(std::move(req), [promise](serve::Response r) {
      promise->set_value(std::move(r));
    });
    flush_ready(false);
  }
  flush_ready(true);

  print_final_stats(front.stats());
  if (listener != nullptr) print_loop_stats(*listener);
}

// ---------------------------------------------------------------------------
// --fleet mode: shard child processes behind a ShardFleet in the parent.

/// Body of one forked shard process: a full Server on its own port. Blocks
/// until the parent closes the shutdown pipe (EOF), then tears down. Never
/// touches stdin/stdout — those belong to the parent.
int run_fleet_child(const ServeConfig& cfg, int port, int shutdown_fd) {
  serve::ModelRegistry registry(cfg.artifacts, cfg.registry);
  serve::Server server(registry, cfg.serve);
  const auto listener = open_listener(server, cfg, port);
  server.set_overflow_source(
      [&listener] { return listener->stats().overflow_closes; });
  char byte = 0;
  while (true) {
    const ssize_t n = ::read(shutdown_fd, &byte, 1);
    if (n < 0 && errno == EINTR) continue;
    break;  // EOF (or error): the parent is shutting down or gone.
  }
  ::close(shutdown_fd);
  return 0;
}

int cmd_serve_fleet(const ServeConfig& cfg) {
  const int base_port = *cfg.port;
  const int shards = cfg.fleet;

  // Fork every shard BEFORE the parent creates any thread (fleet pool,
  // event loop): forking a multithreaded process clones only the calling
  // thread and leaves cloned locks in undefined states.
  std::vector<pid_t> pids;
  std::vector<int> child_ports;
  std::vector<int> shutdown_fds;  // parent-held write ends
  for (int i = 0; i < shards; ++i) {
    int pipe_fds[2];
    CCPRED_CHECK_MSG(::pipe(pipe_fds) == 0, "cannot create shutdown pipe");
    const int child_port = base_port + 1 + i;
    const pid_t pid = ::fork();
    CCPRED_CHECK_MSG(pid >= 0, "fork failed");
    if (pid == 0) {
      ::close(pipe_fds[1]);
      for (const int fd : shutdown_fds) ::close(fd);
      int code = 1;
      try {
        code = run_fleet_child(cfg, child_port, pipe_fds[0]);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "shard %d: fatal: %s\n", i, e.what());
      }
      // _Exit: a child must not run the parent's atexit/static teardown.
      std::_Exit(code);
    }
    ::close(pipe_fds[0]);
    shutdown_fds.push_back(pipe_fds[1]);
    child_ports.push_back(child_port);
    pids.push_back(pid);
  }

  {
    serve::FleetOptions opt;
    opt.serve = cfg.serve;
    serve::ShardFleet fleet(child_ports, opt);
    // Declared after the fleet, so it stops first; completions the fleet's
    // pool delivers after that are dropped by the loop's closed sink.
    const auto listener = open_listener(fleet, cfg, base_port);
    std::fprintf(stderr, "ccpred_serverd fleet: %d shards on ports %d..%d\n",
                 shards, base_port + 1, base_port + shards);
    serve_stdin(fleet, cfg.serial, listener.get());
    const serve::FleetCounters c = fleet.counters();
    std::fprintf(stderr,
                 "fleet: %llu routed, %llu failovers, %zu of %zu shards "
                 "alive\n",
                 static_cast<unsigned long long>(c.routed),
                 static_cast<unsigned long long>(c.failovers), c.alive,
                 c.shards);
  }

  for (const int fd : shutdown_fds) ::close(fd);
  for (const pid_t pid : pids) {
    int status = 0;
    ::waitpid(pid, &status, 0);
  }
  return 0;
}

// ---------------------------------------------------------------------------

int cmd_serve(const Flags& flags) {
  const ServeConfig cfg = serve_config(flags);
  if (cfg.fleet > 0) return cmd_serve_fleet(cfg);

  serve::ModelRegistry registry(cfg.artifacts, cfg.registry);
  serve::Server server(registry, cfg.serve);
  const serve::online::OnlineOptions& online = cfg.serve.online;
  if (online.enabled) {
    std::fprintf(stderr,
                 "ccpred_serverd online learning ENABLED (drift threshold "
                 "%.2f, window %zu)\n",
                 online.drift.mape_threshold, online.drift.window);
  }

  std::unique_ptr<serve::EventLoopServer> listener;
  if (cfg.port) {
    listener = open_listener(server, cfg, *cfg.port);
    server.set_overflow_source(
        [&listener] { return listener->stats().overflow_closes; });
  }
  serve_stdin(server, cfg.serial, listener.get());
  return 0;
}

/// A subcommand and the flags it reads; any other flag is rejected before
/// it runs. Fleet shards read the parent's map, so the serve list covers
/// them too.
struct Subcommand {
  const char* name;
  std::set<std::string> flags;
  int (*run)(const Flags&);
};

const Subcommand kSubcommands[] = {
    {"train",
     {"artifacts", "machine", "model", "rows", "seed", "estimators"},
     cmd_train},
    {"serve",
     {"artifacts", "rows", "seed", "estimators", "default-machine",
      "default-model", "threads", "cache", "max-queue", "batch-max", "port",
      "backlog", "fleet", "serial", "online", "online-drift-threshold"},
     cmd_serve},
};

int usage() {
  std::fprintf(stderr,
               "usage: ccpred_serverd <train|serve> [--flag value ...]\n"
               "  train --artifacts DIR --machine M [--model gb|rf] "
               "[--rows N] [--seed S] [--estimators N]\n"
               "  serve --artifacts DIR [--default-machine M] "
               "[--default-model gb|rf] [--threads N] [--cache N] "
               "[--port P] [--backlog N] [--fleet N] [--serial 1] "
               "[--max-queue N]\n"
               "        [--batch-max N (0 disables batching)] [--online 1] "
               "[--online-drift-threshold X]\n"
               "        [--rows N] [--seed S] [--estimators N] "
               "(train-and-cache of a missing artifact)\n"
               "  --fleet N forks N shard processes on ports P+1..P+N and "
               "routes to them through one serve::ShardFleet\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // The router and event loop handle write-to-closed-peer as EPIPE; a
  // default-disposition SIGPIPE would kill the daemon instead.
  std::signal(SIGPIPE, SIG_IGN);
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    for (const Subcommand& sub : kSubcommands) {
      if (cmd == sub.name) {
        return sub.run(parse_flags(argc, argv, 2, sub.flags));
      }
    }
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
