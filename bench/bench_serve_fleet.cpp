/// Serving-fleet throughput gate: epoll event loop + binary batch frames
/// vs the pre-PR thread-per-connection JSON daemon.
///
/// Four configurations are driven by the same closed-loop epoll load
/// generator at increasing connection counts ({64, 512, 4096}; fast
/// {16, 64, 256}):
///
///   baseline-json  — thread-per-connection blocking server, one JSON
///                    line per round trip (replica of the old daemon);
///   epoll-json     — EventLoopServer, same JSON line protocol;
///   epoll-binary   — EventLoopServer, 16-record binary frames;
///   fleet-binary   — 3-shard ShardFleet behind the event loop, frames.
///
/// Every backend is pre-warmed (one STQ per problem size) so the numbers
/// measure SERVING throughput — syscalls, parsing, scheduling — not sweep
/// compute. Two exit-code gates:
///
///   1. at the highest connection count, epoll-binary QPS >= 3x the
///      thread-per-connection baseline;
///   2. binary-batched STQ answers are byte-identical to the line-JSON
///      answers for the same requests (format_response comparison).
///
/// Emits BENCH_serve_fleet.json (per-level p50/p99/QPS for every config,
/// the gate verdicts, and provenance).

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "ccpred/common/error.hpp"
#include "ccpred/data/problems.hpp"
#include "ccpred/serve/event_loop.hpp"
#include "ccpred/serve/fleet.hpp"
#include "ccpred/serve/model_registry.hpp"
#include "ccpred/serve/protocol.hpp"
#include "ccpred/serve/server.hpp"
#include "ccpred/serve/wire.hpp"

namespace {

using namespace ccpred;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------- baseline

/// The pre-PR daemon's architecture: one blocking thread per accepted
/// connection, newline-delimited JSON both ways, synchronous handle().
class ThreadPerConnServer {
 public:
  explicit ThreadPerConnServer(serve::Server& server) : server_(server) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    CCPRED_CHECK_MSG(listen_fd_ >= 0, "socket: " + std::string(strerror(errno)));
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    CCPRED_CHECK_MSG(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                            sizeof addr) == 0,
                     "bind: " + std::string(strerror(errno)));
    CCPRED_CHECK_MSG(::listen(listen_fd_, SOMAXCONN) == 0, "listen failed");
    socklen_t len = sizeof addr;
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    acceptor_ = std::thread([this] { accept_loop(); });
  }

  ~ThreadPerConnServer() {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    acceptor_.join();
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& t : conns_) t.join();
  }

  int port() const { return port_; }

 private:
  void accept_loop() {
    while (true) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) return;  // listener shut down
      std::lock_guard<std::mutex> lock(mutex_);
      conns_.emplace_back([this, fd] { serve_connection(fd); });
    }
  }

  void serve_connection(int fd) {
    std::string buf;
    char chunk[4096];
    while (true) {
      const ssize_t n = ::read(fd, chunk, sizeof chunk);
      if (n <= 0) break;
      buf.append(chunk, static_cast<std::size_t>(n));
      std::size_t nl;
      while ((nl = buf.find('\n')) != std::string::npos) {
        const std::string line = buf.substr(0, nl);
        buf.erase(0, nl + 1);
        serve::Response r;
        try {
          r = server_.handle(serve::parse_request(line));
        } catch (const std::exception& e) {
          r = serve::error_response(e.what());
        }
        const std::string out = serve::format_response(r) + "\n";
        std::size_t sent = 0;
        while (sent < out.size()) {
          const ssize_t w = ::send(fd, out.data() + sent, out.size() - sent,
                                   MSG_NOSIGNAL);
          if (w <= 0) { ::close(fd); return; }
          sent += static_cast<std::size_t>(w);
        }
      }
    }
    ::close(fd);
  }

  serve::Server& server_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::thread acceptor_;
  std::mutex mutex_;
  std::vector<std::thread> conns_;
};

// ----------------------------------------------------------- load generator

struct LoadResult {
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::size_t requests = 0;
};

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  CCPRED_CHECK_MSG(fd >= 0, "client socket failed");
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  CCPRED_CHECK_MSG(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                             sizeof addr) == 0,
                   "connect: " + std::string(strerror(errno)));
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  return fd;
}

/// Closed-loop: every connection keeps exactly one request (or one
/// 16-record frame) in flight and fires the next the instant the response
/// completes. Latency is measured per round trip.
LoadResult run_load(int port, int conns, int rounds, bool binary, int batch) {
  const auto& problems = data::problems_for("aurora");

  struct Conn {
    int fd = -1;
    std::string payload;       // the (fixed) request bytes, resent per round
    std::size_t sent = 0;      // offset into payload
    std::string inbuf;
    int rounds_done = 0;
    Clock::time_point t_send;
    bool out_armed = false;
  };

  std::vector<Conn> cs(static_cast<std::size_t>(conns));
  for (int c = 0; c < conns; ++c) {
    auto& conn = cs[static_cast<std::size_t>(c)];
    if (binary) {
      std::vector<serve::Request> frame;
      for (int b = 0; b < batch; ++b) {
        serve::Request req;
        req.op = serve::Op::kStq;
        const auto& p =
            problems[static_cast<std::size_t>(c + b) % problems.size()];
        req.o = p.o;
        req.v = p.v;
        req.id = std::to_string(c) + "." + std::to_string(b);
        frame.push_back(std::move(req));
      }
      conn.payload = serve::wire::encode_request_frame(frame);
    } else {
      serve::Request req;
      req.op = serve::Op::kStq;
      const auto& p = problems[static_cast<std::size_t>(c) % problems.size()];
      req.o = p.o;
      req.v = p.v;
      req.id = std::to_string(c);
      conn.payload = serve::format_request(req) + "\n";
    }
    conn.fd = connect_loopback(port);
  }

  const int ep = ::epoll_create1(0);
  CCPRED_CHECK_MSG(ep >= 0, "epoll_create1 failed");
  for (int c = 0; c < conns; ++c) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u32 = static_cast<std::uint32_t>(c);
    ::epoll_ctl(ep, EPOLL_CTL_ADD, cs[static_cast<std::size_t>(c)].fd, &ev);
  }

  std::vector<double> latencies;
  latencies.reserve(static_cast<std::size_t>(conns) *
                    static_cast<std::size_t>(rounds));
  int live = conns;

  const auto arm_out = [&](Conn& conn, int c, bool want) {
    if (conn.out_armed == want) return;
    epoll_event ev{};
    ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
    ev.data.u32 = static_cast<std::uint32_t>(c);
    ::epoll_ctl(ep, EPOLL_CTL_MOD, conn.fd, &ev);
    conn.out_armed = want;
  };

  const auto try_send = [&](Conn& conn, int c) {
    while (conn.sent < conn.payload.size()) {
      const ssize_t n =
          ::send(conn.fd, conn.payload.data() + conn.sent,
                 conn.payload.size() - conn.sent, MSG_NOSIGNAL);
      if (n > 0) {
        conn.sent += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        arm_out(conn, c, true);
        return;
      }
      CCPRED_CHECK_MSG(false, "client send failed: " + std::string(strerror(errno)));
    }
    arm_out(conn, c, false);
  };

  // Returns true when one full response (line or frame) is in `inbuf` and
  // consumes it.
  const auto response_complete = [&](Conn& conn) {
    if (!binary) {
      const std::size_t nl = conn.inbuf.find('\n');
      if (nl == std::string::npos) return false;
      conn.inbuf.erase(0, nl + 1);
      return true;
    }
    serve::wire::FrameHeader header;
    std::string error;
    const auto status = serve::wire::probe_frame(
        reinterpret_cast<const unsigned char*>(conn.inbuf.data()),
        conn.inbuf.size(), &header, &error);
    CCPRED_CHECK_MSG(status != serve::wire::FrameStatus::kBad,
                     "bad response frame: " + error);
    if (status != serve::wire::FrameStatus::kHeader ||
        conn.inbuf.size() < serve::wire::kHeaderBytes + header.payload_bytes) {
      return false;
    }
    conn.inbuf.erase(0, serve::wire::kHeaderBytes + header.payload_bytes);
    return true;
  };

  const Clock::time_point start = Clock::now();
  for (int c = 0; c < conns; ++c) {
    auto& conn = cs[static_cast<std::size_t>(c)];
    conn.t_send = Clock::now();
    try_send(conn, c);
  }

  std::vector<epoll_event> events(256);
  char chunk[16384];
  while (live > 0) {
    const int n = ::epoll_wait(ep, events.data(),
                               static_cast<int>(events.size()), 10000);
    CCPRED_CHECK_MSG(n > 0, "load generator stalled (epoll_wait timeout)");
    for (int e = 0; e < n; ++e) {
      const int c = static_cast<int>(events[static_cast<std::size_t>(e)].data.u32);
      auto& conn = cs[static_cast<std::size_t>(c)];
      if (conn.fd < 0) continue;
      const auto flags = events[static_cast<std::size_t>(e)].events;
      if ((flags & EPOLLOUT) != 0u) try_send(conn, c);
      if ((flags & (EPOLLIN | EPOLLHUP | EPOLLERR)) == 0u) continue;
      while (true) {
        const ssize_t r = ::read(conn.fd, chunk, sizeof chunk);
        if (r > 0) {
          conn.inbuf.append(chunk, static_cast<std::size_t>(r));
          continue;
        }
        if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        CCPRED_CHECK_MSG(false, "server closed a load connection early");
      }
      while (conn.rounds_done < rounds && response_complete(conn)) {
        latencies.push_back(
            std::chrono::duration<double, std::milli>(Clock::now() -
                                                      conn.t_send)
                .count());
        if (++conn.rounds_done >= rounds) {
          ::epoll_ctl(ep, EPOLL_CTL_DEL, conn.fd, nullptr);
          ::close(conn.fd);
          conn.fd = -1;
          --live;
          break;
        }
        conn.sent = 0;
        conn.t_send = Clock::now();
        try_send(conn, c);
      }
    }
  }
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();
  ::close(ep);

  std::sort(latencies.begin(), latencies.end());
  const auto at = [&](double q) {
    if (latencies.empty()) return 0.0;
    const auto idx = static_cast<std::size_t>(
        q * static_cast<double>(latencies.size() - 1));
    return latencies[idx];
  };
  LoadResult out;
  out.requests = static_cast<std::size_t>(conns) *
                 static_cast<std::size_t>(rounds) *
                 static_cast<std::size_t>(binary ? batch : 1);
  out.qps = static_cast<double>(out.requests) / elapsed;
  out.p50_ms = at(0.50);
  out.p99_ms = at(0.99);
  return out;
}

// --------------------------------------------------------------- backends

serve::EventLoopServer::Dispatch dispatch_of(serve::Shard& s) {
  return [&s](serve::Request req, serve::EventLoopServer::Completion done) {
    s.submit_with(std::move(req), std::move(done));
  };
}

serve::EventLoopServer::BatchDispatch batch_dispatch_of(serve::Shard& s) {
  return [&s](std::vector<serve::Request> batch,
              serve::EventLoopServer::BatchCompletion done) {
    s.submit_batch_with(std::move(batch), std::move(done));
  };
}

template <typename Backend>
void prewarm(Backend& backend) {
  for (const auto& p : data::problems_for("aurora")) {
    serve::Request req;
    req.op = serve::Op::kStq;
    req.o = p.o;
    req.v = p.v;
    const auto r = backend.handle(req);
    CCPRED_CHECK_MSG(r.ok, "prewarm failed: " + r.error);
  }
}

// ------------------------------------------------------------ bit identity

/// Sends every problem's STQ to the epoll server twice — once as JSON
/// lines, once inside one binary frame — and compares the formatted
/// answers byte for byte.
bool binary_matches_json(int port) {
  const auto& problems = data::problems_for("aurora");
  std::vector<serve::Request> frame;
  for (std::size_t i = 0; i < problems.size(); ++i) {
    serve::Request req;
    req.op = serve::Op::kStq;
    req.o = problems[i].o;
    req.v = problems[i].v;
    req.id = "bit" + std::to_string(i);
    frame.push_back(std::move(req));
  }

  const int fd = connect_loopback(port);
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK);  // blocking is fine here

  const auto send_all = [&](const std::string& bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      CCPRED_CHECK_MSG(n > 0, "bit-identity send failed");
      sent += static_cast<std::size_t>(n);
    }
  };

  std::string inbuf;
  char chunk[4096];
  const auto fill = [&] {
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    CCPRED_CHECK_MSG(n > 0, "bit-identity read failed");
    inbuf.append(chunk, static_cast<std::size_t>(n));
  };

  // JSON pass.
  std::vector<std::string> json_lines;
  for (const auto& req : frame) {
    send_all(serve::format_request(req) + "\n");
    std::size_t nl;
    while ((nl = inbuf.find('\n')) == std::string::npos) fill();
    json_lines.push_back(inbuf.substr(0, nl));
    inbuf.erase(0, nl + 1);
  }

  // Binary pass, same requests in one frame.
  send_all(serve::wire::encode_request_frame(frame));
  serve::wire::FrameHeader header;
  while (true) {
    std::string error;
    const auto status = serve::wire::probe_frame(
        reinterpret_cast<const unsigned char*>(inbuf.data()), inbuf.size(),
        &header, &error);
    CCPRED_CHECK_MSG(status != serve::wire::FrameStatus::kBad, error);
    if (status == serve::wire::FrameStatus::kHeader &&
        inbuf.size() >= serve::wire::kHeaderBytes + header.payload_bytes) {
      break;
    }
    fill();
  }
  const auto decoded = serve::wire::decode_response_frame(
      header,
      reinterpret_cast<const unsigned char*>(inbuf.data()) +
          serve::wire::kHeaderBytes);
  ::close(fd);

  if (decoded.size() != json_lines.size()) return false;
  bool identical = true;
  for (std::size_t i = 0; i < decoded.size(); ++i) {
    if (serve::format_response(decoded[i]) != json_lines[i]) {
      std::printf("bit-identity MISMATCH at %zu:\n  json:   %s\n  binary: %s\n",
                  i, json_lines[i].c_str(),
                  serve::format_response(decoded[i]).c_str());
      identical = false;
    }
  }
  return identical;
}

void raise_nofile_limit(rlim_t need) {
  rlimit lim{};
  if (::getrlimit(RLIMIT_NOFILE, &lim) != 0) return;
  if (lim.rlim_cur >= need) return;
  lim.rlim_cur = std::min(need, lim.rlim_max);
  ::setrlimit(RLIMIT_NOFILE, &lim);
}

}  // namespace

int main() {
  namespace fs = std::filesystem;
  std::signal(SIGPIPE, SIG_IGN);

  const bool fast = bench::fast_mode();
  const std::vector<int> conn_levels =
      fast ? std::vector<int>{16, 64, 256} : std::vector<int>{64, 512, 4096};
  const int rounds_json = 8;
  const int rounds_binary = 4;
  const int batch = 16;
  raise_nofile_limit(static_cast<rlim_t>(conn_levels.back()) * 2 + 512);

  const fs::path dir = fs::temp_directory_path() / "ccpred_bench_fleet";
  fs::remove_all(dir);
  serve::RegistryOptions ropt;
  ropt.fallback_rows = fast ? 300 : 600;
  ropt.gb_estimators = fast ? 40 : 120;
  serve::ModelRegistry registry(dir.string(), ropt);
  registry.train_artifact("aurora", "gb");

  serve::ServeOptions sopt;
  sopt.threads = 2;
  sopt.cache_capacity = 64;

  struct Row {
    int conns;
    LoadResult baseline, epoll_json, epoll_binary, fleet_binary;
  };
  std::vector<Row> rows;
  bool identical = false;

  {
    // Single-shard backends share one Server (cache stays warm across
    // levels for both, keeping the comparison about transport).
    serve::Server server(registry, sopt);
    prewarm(server);

    serve::FleetOptions fopt;
    fopt.shards = 3;
    fopt.serve = sopt;
    serve::ShardFleet fleet(registry, fopt);
    prewarm(fleet);

    ThreadPerConnServer baseline(server);
    serve::EventLoopServer epoll_srv(dispatch_of(server),
                                     batch_dispatch_of(server));
    serve::EventLoopServer fleet_srv(dispatch_of(fleet),
                                     batch_dispatch_of(fleet));

    identical = binary_matches_json(epoll_srv.port());

    for (const int conns : conn_levels) {
      Row row;
      row.conns = conns;
      row.baseline = run_load(baseline.port(), conns, rounds_json, false, 1);
      row.epoll_json = run_load(epoll_srv.port(), conns, rounds_json, false, 1);
      row.epoll_binary =
          run_load(epoll_srv.port(), conns, rounds_binary, true, batch);
      row.fleet_binary =
          run_load(fleet_srv.port(), conns, rounds_binary, true, batch);
      rows.push_back(row);
      std::printf("conns %4d: baseline %.0f q/s | epoll-json %.0f q/s | "
                  "epoll-binary %.0f q/s | fleet-binary %.0f q/s\n",
                  conns, row.baseline.qps, row.epoll_json.qps,
                  row.epoll_binary.qps, row.fleet_binary.qps);
    }
  }

  std::printf("\n== Serving fleet throughput (aurora, gb, warm cache) ==\n\n");
  std::printf("%8s  %-14s %12s %10s %10s\n", "conns", "config", "req/s",
              "p50 ms", "p99 ms");
  for (const auto& row : rows) {
    const auto line = [&](const char* name, const LoadResult& r) {
      std::printf("%8d  %-14s %12.0f %10.3f %10.3f\n", row.conns, name, r.qps,
                  r.p50_ms, r.p99_ms);
    };
    line("baseline-json", row.baseline);
    line("epoll-json", row.epoll_json);
    line("epoll-binary", row.epoll_binary);
    line("fleet-binary", row.fleet_binary);
  }

  const Row& top = rows.back();
  const double speedup = top.epoll_binary.qps / top.baseline.qps;
  const bool speedup_ok = speedup >= 3.0;
  std::printf(
      "\nepoll-binary vs thread-per-connection at %d conns: %.1fx "
      "(gate >= 3x): %s\n"
      "binary answers byte-identical to JSON: %s\n",
      top.conns, speedup, speedup_ok ? "PASS" : "FAIL",
      identical ? "PASS" : "FAIL");

  std::FILE* json = std::fopen("BENCH_serve_fleet.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\"levels\": [");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto& row = rows[i];
      const auto obj = [&](const char* name, const LoadResult& r,
                           bool last) {
        std::fprintf(json,
                     "\"%s\": {\"qps\": %.1f, \"p50_ms\": %.3f, "
                     "\"p99_ms\": %.3f, \"requests\": %zu}%s",
                     name, r.qps, r.p50_ms, r.p99_ms, r.requests,
                     last ? "" : ", ");
      };
      std::fprintf(json, "%s{\"conns\": %d, ", i == 0 ? "" : ", ", row.conns);
      obj("baseline_json", row.baseline, false);
      obj("epoll_json", row.epoll_json, false);
      obj("epoll_binary", row.epoll_binary, false);
      obj("fleet_binary", row.fleet_binary, true);
      std::fprintf(json, "}");
    }
    std::fprintf(json,
                 "], \"speedup_at_max_conns\": %.2f, \"speedup_gate\": 3.0, "
                 "\"bit_identical\": %s, \"fast\": %d, \"provenance\": %s}\n",
                 speedup, identical ? "true" : "false", fast ? 1 : 0,
                 bench::provenance_json().c_str());
    std::fclose(json);
    std::printf("wrote BENCH_serve_fleet.json\n");
  }

  fs::remove_all(dir);
  return (speedup_ok && identical) ? 0 : 1;
}
