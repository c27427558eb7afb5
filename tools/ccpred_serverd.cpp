/// ccpred_serverd — the recommendation-serving daemon.
///
/// Subcommands:
///   train --artifacts DIR --machine aurora|frontier [--model gb|rf]
///         [--rows N] [--seed S] [--estimators N]
///       Run a simulated trace-collection campaign, train the model and
///       publish the artifact as DIR/<machine>-<model>.model.
///   serve --artifacts DIR [--default-machine M] [--default-model gb|rf]
///         [--threads N] [--cache N] [--port P] [--backlog N] [--serial 1]
///         [--max-queue N] [--batch-max N] [--online 1]
///         [--online-drift-threshold X] [--rows N] [--seed S]
///         [--estimators N]
///       Serve requests (see serve/protocol.hpp) from stdin, one response
///       line per request line, in request order, through one Server.
///       Requests are pipelined through the worker pool unless --serial 1
///       is given, and each answer is written as soon as it and every
///       earlier answer are done.
///
///       With --port, additionally listen on 127.0.0.1:P through the
///       non-blocking epoll event loop (serve/event_loop.hpp). Every
///       connection may speak line-JSON, the binary batch protocol
///       (serve/wire.hpp), or interleave both — the server tells them
///       apart from the first byte of each message. --backlog sets the
///       listen(2) queue (default SOMAXCONN). EOF on stdin shuts the
///       server down and prints a final stats line to stderr.
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

#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <deque>
#include <future>
#include <iostream>
#include <limits>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "ccpred/common/error.hpp"
#include "ccpred/common/strings.hpp"
#include "ccpred/serve/event_loop.hpp"
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
std::string answer_line(serve::Server& server, const std::string& line) {
  try {
    return serve::format_response(server.handle(serve::parse_request(line)));
  } catch (const std::exception& e) {
    return serve::format_response(serve::line_error(line, e.what()));
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
/// range-checks all of it before any load or socket, so a bad value fails
/// like an unknown flag.
struct ServeConfig {
  std::string artifacts;
  bool serial = false;
  bool listen = false;  ///< --port given
  serve::RegistryOptions registry;
  serve::ServeOptions serve;
  serve::EventLoopOptions loop;  ///< port and backlog of the listener
};

ServeConfig serve_config(const Flags& flags) {
  ServeConfig cfg;
  cfg.artifacts = need(flags, "artifacts");
  cfg.serial = switch_on(flags, "serial");
  cfg.listen = flags.count("port") != 0;
  if (cfg.listen) {
    cfg.loop.port = static_cast<int>(
        parse_int_in(flags.at("port"), "--port", 0, 65535));
  }
  cfg.registry = registry_options(flags);
  cfg.serve = serve_options_from_flags(flags);
  // A negative backlog means SOMAXCONN.
  cfg.loop.backlog = int_flag<int>(flags, "backlog", "-1",
                                   std::numeric_limits<int>::min());
  return cfg;
}

/// The epoll listener on 127.0.0.1:port over `server`: single requests go
/// through submit_with, whole binary frames through submit_batch_with (one
/// hand-off per frame).
std::unique_ptr<serve::EventLoopServer> open_listener(
    serve::Server& server, const serve::EventLoopOptions& opt) {
  auto listener = std::make_unique<serve::EventLoopServer>(
      [&server](serve::Request request,
                serve::EventLoopServer::Completion done) {
        server.submit_with(std::move(request), std::move(done));
      },
      [&server](std::vector<serve::Request> batch,
                serve::EventLoopServer::BatchCompletion done) {
        server.submit_batch_with(std::move(batch), std::move(done));
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

/// Answers stdin lines on stdout in request order, pipelined: this thread
/// parses and submits each line and queues the future of its answer, and a
/// writer thread writes each answer as soon as it and every earlier answer
/// are done. A client that waits for one answer before it sends the next
/// line gets it. Returns at EOF, once every answer is written.
void pipeline_stdin(serve::Server& server) {
  std::mutex mutex;
  std::condition_variable_any queued;
  std::deque<std::future<serve::Response>> pending;
  // Stopped and joined when this function returns, at EOF or on an
  // exception; it writes every queued answer before it stops.
  std::jthread writer([&](std::stop_token eof) {
    std::unique_lock<std::mutex> lock(mutex);
    while (queued.wait(lock, eof, [&] { return !pending.empty(); })) {
      std::future<serve::Response> next = std::move(pending.front());
      pending.pop_front();
      lock.unlock();
      serve::Response answer;
      try {
        answer = next.get();
      } catch (const std::exception& e) {
        // A completion that never ran: answer in its place.
        answer = serve::error_response(e.what(), "", "", "internal");
      }
      std::cout << serve::format_response(answer) << std::endl;
      lock.lock();
    }
  });

  std::string line;
  while (std::getline(std::cin, line)) {
    if (trim(line).empty()) continue;
    auto promise = std::make_shared<std::promise<serve::Response>>();
    {
      const std::lock_guard<std::mutex> lock(mutex);
      pending.push_back(promise->get_future());
    }
    queued.notify_one();
    serve::Request req;
    try {
      req = serve::parse_request(line);
    } catch (const std::exception& e) {
      // The rejection answers in this line's place.
      promise->set_value(serve::line_error(line, e.what()));
      continue;
    }
    server.submit_with(std::move(req), [promise](serve::Response r) {
      promise->set_value(std::move(r));
    });
  }
}

/// Serves `server` on stdin until EOF — pipelined, or one line at a time
/// with --serial 1 — while `listener`, if any, serves its socket. Then
/// prints the final stats to stderr.
void serve_stdin(serve::Server& server, bool serial,
                 const serve::EventLoopServer* listener) {
  if (serial) {
    std::string line;
    while (std::getline(std::cin, line)) {
      if (trim(line).empty()) continue;
      std::cout << answer_line(server, line) << std::endl;
    }
  } else {
    pipeline_stdin(server);
  }
  print_final_stats(server.stats());
  if (listener != nullptr) print_loop_stats(*listener);
}

int cmd_serve(const Flags& flags) {
  const ServeConfig cfg = serve_config(flags);
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
  if (cfg.listen) {
    listener = open_listener(server, cfg.loop);
    server.set_overflow_source(
        [&listener] { return listener->stats().overflow_closes; });
  }
  serve_stdin(server, cfg.serial, listener.get());
  return 0;
}

/// A subcommand and the flags it reads; any other flag is rejected before
/// it runs.
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
      "backlog", "serial", "online", "online-drift-threshold"},
     cmd_serve},
};

int usage() {
  std::fprintf(stderr,
               "usage: ccpred_serverd <train|serve> [--flag value ...]\n"
               "  train --artifacts DIR --machine M [--model gb|rf] "
               "[--rows N] [--seed S] [--estimators N]\n"
               "  serve --artifacts DIR [--default-machine M] "
               "[--default-model gb|rf] [--threads N] [--cache N] "
               "[--port P] [--backlog N] [--serial 1] [--max-queue N]\n"
               "        [--batch-max N (0 disables batching)] [--online 1] "
               "[--online-drift-threshold X]\n"
               "        [--rows N] [--seed S] [--estimators N] "
               "(train-and-cache of a missing artifact)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // The event loop handles write-to-closed-peer as EPIPE; a
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
