/// ccpred_serverd — the recommendation-serving daemon.
///
/// Subcommands:
///   train --artifacts DIR --machine aurora|frontier [--model gb|rf]
///         [--rows N] [--seed S] [--estimators N]
///       Run a simulated trace-collection campaign, train the model and
///       publish the artifact as DIR/<machine>-<model>.model.
///   serve --artifacts DIR [--default-machine M] [--default-model gb|rf]
///         [--threads N] [--cache N] [--port P] [--backlog N] [--serial]
///         [--fleet N] [--max-queue N] [--fault-seed S] [--fault-artifact P]
///         [--fault-sweep P] [--fault-sweep-ms MS] [--fault-stall P]
///         [--fault-stall-ms MS] [--fault-cache P] [--fault-cache-ms MS]
///       Serve requests (see serve/protocol.hpp) from stdin, one response
///       line per request line, in request order. Requests are pipelined
///       through the worker pool unless --serial is given.
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
///       The --fault-* flags arm the deterministic FaultInjector for
///       chaos drills; see serve/fault_injector.hpp.
///
///       --online 1 activates the closed-loop online learner: the `report`
///       verb ingests measured runs, drift against served predictions
///       triggers background refits, and candidates that win shadow
///       evaluation are atomically promoted (see serve/online/). The
///       --online-* flags tune its thresholds.
///
/// Missing artifacts are trained on first use (train-and-cache), so
/// `serve` works on an empty directory — pre-train with `train` to make
/// startup instant and answers reproducible across deployments.

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "ccpred/common/error.hpp"
#include "ccpred/common/strings.hpp"
#include "ccpred/serve/event_loop.hpp"
#include "ccpred/serve/fault_injector.hpp"
#include "ccpred/serve/fleet.hpp"
#include "ccpred/serve/model_registry.hpp"
#include "ccpred/serve/server.hpp"

namespace {

using namespace ccpred;

/// Minimal --key value argument parser (same contract as ccpred_cli: a
/// trailing flag without a value is a hard error).
std::map<std::string, std::string> parse_flags(int argc, char** argv,
                                               int first) {
  std::map<std::string, std::string> flags;
  for (int i = first; i < argc; i += 2) {
    CCPRED_CHECK_MSG(std::strncmp(argv[i], "--", 2) == 0,
                     "expected --flag, got '" << argv[i] << "'");
    CCPRED_CHECK_MSG(i + 1 < argc,
                     "flag '" << argv[i] << "' is missing a value");
    flags[argv[i] + 2] = argv[i + 1];
  }
  return flags;
}

std::string need(const std::map<std::string, std::string>& flags,
                 const std::string& key) {
  const auto it = flags.find(key);
  CCPRED_CHECK_MSG(it != flags.end(), "missing required flag --" << key);
  return it->second;
}

std::string get_or(const std::map<std::string, std::string>& flags,
                   const std::string& key, const std::string& fallback) {
  const auto it = flags.find(key);
  return it == flags.end() ? fallback : it->second;
}

serve::RegistryOptions registry_options(
    const std::map<std::string, std::string>& flags) {
  serve::RegistryOptions opt;
  opt.fallback_rows =
      static_cast<std::size_t>(parse_int(get_or(flags, "rows", "600")));
  opt.fallback_seed =
      static_cast<std::uint64_t>(parse_int(get_or(flags, "seed", "2025")));
  if (flags.count("estimators")) {
    const int n = static_cast<int>(parse_int(flags.at("estimators")));
    opt.gb_estimators = n;
    opt.rf_estimators = n;
  }
  return opt;
}

int cmd_train(const std::map<std::string, std::string>& flags) {
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

/// Builds the injector from --fault-* flags; nullptr when none are given.
std::unique_ptr<serve::FaultInjector> fault_injector_from_flags(
    const std::map<std::string, std::string>& flags) {
  serve::FaultOptions fopt;
  bool armed = false;
  const auto prob = [&](const char* flag, double& target) {
    const auto it = flags.find(flag);
    if (it == flags.end()) return;
    target = parse_double(it->second);
    armed = true;
  };
  prob("fault-artifact", fopt.artifact_read_failure);
  prob("fault-sweep", fopt.sweep_delay);
  prob("fault-stall", fopt.worker_stall);
  prob("fault-cache", fopt.cache_shard_hold);
  prob("fault-report", fopt.report_ingest);
  prob("fault-refit", fopt.refit_stall);
  prob("fault-promote", fopt.promotion_race);
  fopt.seed =
      static_cast<std::uint64_t>(parse_int(get_or(flags, "fault-seed", "2025")));
  fopt.sweep_delay_ms = parse_double(get_or(flags, "fault-sweep-ms", "10"));
  fopt.worker_stall_ms = parse_double(get_or(flags, "fault-stall-ms", "5"));
  fopt.cache_shard_hold_ms =
      parse_double(get_or(flags, "fault-cache-ms", "2"));
  fopt.report_ingest_ms = parse_double(get_or(flags, "fault-report-ms", "2"));
  fopt.refit_stall_ms = parse_double(get_or(flags, "fault-refit-ms", "20"));
  fopt.promotion_race_ms =
      parse_double(get_or(flags, "fault-promote-ms", "10"));
  if (!armed) return nullptr;
  return std::make_unique<serve::FaultInjector>(fopt);
}

/// Builds the online-learning options from --online* flags.
serve::online::OnlineOptions online_options_from_flags(
    const std::map<std::string, std::string>& flags) {
  serve::online::OnlineOptions opt;
  opt.enabled = flags.count("online") != 0 && get_or(flags, "online", "0") != "0";
  if (!opt.enabled) return opt;
  opt.buffer_capacity = static_cast<std::size_t>(
      parse_int(get_or(flags, "online-buffer", "4096")));
  opt.drift.window = static_cast<std::size_t>(
      parse_int(get_or(flags, "online-drift-window", "64")));
  opt.drift.min_samples = static_cast<std::size_t>(
      parse_int(get_or(flags, "online-min-reports", "16")));
  opt.drift.mape_threshold =
      parse_double(get_or(flags, "online-drift-threshold", "0.25"));
  opt.refit_interval = static_cast<std::size_t>(
      parse_int(get_or(flags, "online-refit-interval", "0")));
  opt.min_refit_rows = static_cast<std::size_t>(
      parse_int(get_or(flags, "online-min-refit-rows", "32")));
  opt.holdout =
      static_cast<std::size_t>(parse_int(get_or(flags, "online-holdout", "16")));
  opt.min_improvement =
      parse_double(get_or(flags, "online-min-improvement", "0"));
  opt.feedback_weight = static_cast<std::size_t>(
      parse_int(get_or(flags, "online-feedback-weight", "8")));
  return opt;
}

serve::ServeOptions serve_options_from_flags(
    const std::map<std::string, std::string>& flags) {
  serve::ServeOptions opt;
  opt.threads =
      static_cast<std::size_t>(parse_int(get_or(flags, "threads", "0")));
  opt.cache_capacity =
      static_cast<std::size_t>(parse_int(get_or(flags, "cache", "256")));
  opt.max_queue_depth =
      static_cast<std::size_t>(parse_int(get_or(flags, "max-queue", "0")));
  opt.default_machine = get_or(flags, "default-machine", "aurora");
  opt.default_model = get_or(flags, "default-model", "gb");
  opt.online = online_options_from_flags(flags);
  // Dynamic micro-batching: on by default for the daemon (the whole point
  // of a multi-client front end); --batch-max 0 disables it.
  opt.batch.max_batch =
      static_cast<std::size_t>(parse_int(get_or(flags, "batch-max", "64")));
  opt.batch.enabled = opt.batch.max_batch > 0;
  opt.batch.max_hold_us = static_cast<std::uint32_t>(
      parse_int(get_or(flags, "batch-hold-us", "200")));
  return opt;
}

serve::EventLoopOptions event_loop_options_from_flags(
    const std::map<std::string, std::string>& flags, int port) {
  serve::EventLoopOptions opt;
  opt.port = port;
  opt.backlog = static_cast<int>(parse_int(get_or(flags, "backlog", "-1")));
  opt.max_line_bytes = static_cast<std::size_t>(parse_int(
      get_or(flags, "max-line", std::to_string(opt.max_line_bytes))));
  opt.max_outbuf_bytes = static_cast<std::size_t>(parse_int(
      get_or(flags, "max-outbuf", std::to_string(opt.max_outbuf_bytes))));
  opt.max_inbuf_bytes = static_cast<std::size_t>(
      parse_int(get_or(flags, "max-inbuf", "0")));
  return opt;
}

/// The epoll listener on 127.0.0.1:port over `front`: single requests go
/// through submit_with, whole binary frames through submit_batch_with (one
/// hand-off per frame).
std::unique_ptr<serve::EventLoopServer> open_listener(
    serve::Shard& front, const std::map<std::string, std::string>& flags,
    int port) {
  auto listener = std::make_unique<serve::EventLoopServer>(
      [&front](serve::Request request,
               serve::EventLoopServer::Completion done) {
        front.submit_with(std::move(request), std::move(done));
      },
      [&front](std::vector<serve::Request> batch,
               serve::EventLoopServer::BatchCompletion done) {
        front.submit_batch_with(std::move(batch), std::move(done));
      },
      event_loop_options_from_flags(flags, port));
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
  std::fprintf(stderr,
               "served %llu requests (%llu errors), %llu sweeps, cache "
               "hit rate %.2f, p50 %.2f ms, p95 %.2f ms\n",
               static_cast<unsigned long long>(s.requests),
               static_cast<unsigned long long>(s.errors),
               static_cast<unsigned long long>(s.sweeps_computed),
               s.cache_hit_rate, s.latency_p50_ms, s.latency_p95_ms);
  if (s.deadline_exceeded + s.shed + s.stale_served + s.reload_failures +
          s.retries >
      0) {
    std::fprintf(
        stderr,
        "degraded: %llu deadline, %llu shed, %llu stale, %llu reload "
        "failures, %llu retries\n",
        static_cast<unsigned long long>(s.deadline_exceeded),
        static_cast<unsigned long long>(s.shed),
        static_cast<unsigned long long>(s.stale_served),
        static_cast<unsigned long long>(s.reload_failures),
        static_cast<unsigned long long>(s.retries));
  }
}

/// Serves `front` until EOF on stdin, answering stdin lines on stdout in
/// request order — pipelined through submit_with, or one at a time with
/// --serial — while `listener`, if any, serves its socket. Then prints
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
int run_fleet_child(const std::map<std::string, std::string>& flags,
                    int port, int shutdown_fd) {
  serve::ModelRegistry registry(need(flags, "artifacts"),
                                registry_options(flags));
  const auto fault = fault_injector_from_flags(flags);
  registry.set_fault_injector(fault.get());
  serve::ServeOptions opt = serve_options_from_flags(flags);
  opt.fault_injector = fault.get();
  serve::Server server(registry, opt);
  const auto listener = open_listener(server, flags, port);
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

int cmd_serve_fleet(const std::map<std::string, std::string>& flags,
                    int shards) {
  CCPRED_CHECK_MSG(flags.count("port") != 0, "--fleet requires --port");
  CCPRED_CHECK_MSG(shards >= 1 && shards <= 64,
                   "--fleet wants 1..64 shards, got " << shards);
  const int base_port = static_cast<int>(parse_int(flags.at("port")));
  // Shards listen on base_port + 1 .. base_port + N, so the router's port
  // must be a real one: --port 0 would fork shards onto ports 1..N.
  CCPRED_CHECK_MSG(base_port >= 1,
                   "--fleet needs --port >= 1 (shards listen on the ports "
                   "after it), got " << base_port);

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
        code = run_fleet_child(flags, child_port, pipe_fds[0]);
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
    opt.serve = serve_options_from_flags(flags);
    serve::ShardFleet fleet(child_ports, opt);
    // Declared after the fleet, so it stops first; completions the fleet's
    // pool delivers after that are dropped by the loop's closed sink.
    const auto listener = open_listener(fleet, flags, base_port);
    std::fprintf(stderr, "ccpred_serverd fleet: %d shards on ports %d..%d\n",
                 shards, base_port + 1, base_port + shards);
    serve_stdin(fleet, flags.count("serial") != 0, listener.get());
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

int cmd_serve(const std::map<std::string, std::string>& flags) {
  const int fleet = static_cast<int>(parse_int(get_or(flags, "fleet", "0")));
  if (fleet > 0) return cmd_serve_fleet(flags, fleet);

  serve::ModelRegistry registry(need(flags, "artifacts"),
                                registry_options(flags));
  const auto fault = fault_injector_from_flags(flags);
  registry.set_fault_injector(fault.get());
  serve::ServeOptions opt = serve_options_from_flags(flags);
  opt.fault_injector = fault.get();
  serve::Server server(registry, opt);
  if (opt.online.enabled) {
    std::fprintf(stderr,
                 "ccpred_serverd online learning ENABLED (drift threshold "
                 "%.2f, window %zu)\n",
                 opt.online.drift.mape_threshold, opt.online.drift.window);
  }
  if (fault != nullptr) {
    std::fprintf(stderr,
                 "ccpred_serverd FAULT INJECTION ARMED (seed %llu)\n",
                 static_cast<unsigned long long>(fault->options().seed));
  }

  std::unique_ptr<serve::EventLoopServer> listener;
  if (flags.count("port")) {
    listener = open_listener(server, flags,
                             static_cast<int>(parse_int(flags.at("port"))));
    server.set_overflow_source(
        [&listener] { return listener->stats().overflow_closes; });
  }
  serve_stdin(server, flags.count("serial") != 0, listener.get());
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: ccpred_serverd <train|serve> [--flag value ...]\n"
               "  train --artifacts DIR --machine M [--model gb|rf] "
               "[--rows N] [--seed S] [--estimators N]\n"
               "  serve --artifacts DIR [--default-machine M] "
               "[--default-model gb|rf] [--threads N] [--cache N] "
               "[--port P] [--backlog N] [--fleet N] [--serial 1] "
               "[--max-queue N]\n"
               "        [--batch-max N (0 disables batching)] "
               "[--batch-hold-us US] [--max-line BYTES] "
               "[--max-inbuf BYTES (0 = derived)] [--max-outbuf BYTES]\n"
               "        [--fault-seed S] [--fault-artifact P] "
               "[--fault-sweep P] [--fault-sweep-ms MS] [--fault-stall P] "
               "[--fault-stall-ms MS] [--fault-cache P] "
               "[--fault-cache-ms MS]\n"
               "        [--fault-report P] [--fault-report-ms MS] "
               "[--fault-refit P] [--fault-refit-ms MS] "
               "[--fault-promote P] [--fault-promote-ms MS]\n"
               "        [--online 1] [--online-buffer N] "
               "[--online-drift-window N] [--online-min-reports N] "
               "[--online-drift-threshold X] [--online-refit-interval N]\n"
               "        [--online-min-refit-rows N] [--online-holdout N] "
               "[--online-min-improvement X] [--online-feedback-weight N]\n"
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
    const auto flags = parse_flags(argc, argv, 2);
    if (cmd == "train") return cmd_train(flags);
    if (cmd == "serve") return cmd_serve(flags);
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
