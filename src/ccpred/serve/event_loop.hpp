#pragma once

/// \file event_loop.hpp
/// Non-blocking TCP front end for the serving layer: one epoll-driven loop
/// thread owns every connection, so a slow (or dead, or malicious) client
/// costs a buffer, never a thread. The loop speaks both protocols on the
/// same port, telling them apart from the first byte of each message
/// (wire frames open with 0xC3, JSON lines with '{'):
///
///   client bytes -> per-connection read buffer -> incremental parse
///     -> dispatch callback (hands work to the Server's pool)
///     -> worker finishes -> completion queue + eventfd wakeup
///     -> loop stitches responses back in request order -> write buffer
///
/// Responses are delivered strictly in the order requests arrived on the
/// connection (per-connection sequence numbers; out-of-order completions
/// park until their turn), because line-JSON has no request/response
/// correlation ids — clients match by position.
///
/// Edge-triggered epoll everywhere: every readiness edge is drained to
/// EAGAIN. The loop never blocks on client sockets; a client that stops
/// reading accumulates a write buffer until `kMaxOutbufBytes` and is then
/// disconnected (slow-loris back-pressure).
///
/// Completion hand-off outlives the server object safely: workers push
/// into a shared sink that the destructor marks closed before any fd is
/// torn down, so a completion landing after shutdown is dropped instead of
/// touching dead state.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "ccpred/serve/protocol.hpp"

namespace ccpred::serve {

struct EventLoopOptions {
  int port = 0;      ///< 0 = kernel-assigned ephemeral port (see port())
  int backlog = -1;  ///< listen(2) backlog; < 0 = SOMAXCONN
  std::size_t max_line_bytes = 1u << 20;    ///< longest unterminated line
  /// Per-connection read-buffer cap; a connection exceeding it is closed
  /// and counted in overflow_closes. 0 = derived default
  /// (max_line_bytes + two max-size wire frames).
  std::size_t max_inbuf_bytes = 0;

  /// The effective read-buffer cap after resolving the 0 default.
  std::size_t effective_inbuf_bytes() const;
};

/// Loop-side counters (request/error accounting lives in the Server).
struct EventLoopStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_closed = 0;
  std::uint64_t requests_in = 0;    ///< individual requests, both protocols
  std::uint64_t frames_in = 0;      ///< binary frames parsed
  std::uint64_t lines_in = 0;       ///< JSON lines parsed
  std::uint64_t protocol_errors = 0;  ///< parse failures answered ok=false
  std::uint64_t overflow_closes = 0;  ///< connections dropped at a buffer cap
};

/// See file comment. The dispatch callbacks must enqueue work and return
/// quickly — they run on the loop thread. Completions may be invoked from
/// any thread (including synchronously from inside dispatch, e.g. when the
/// server sheds the request).
class EventLoopServer {
 public:
  using Completion = std::function<void(Response)>;
  using Dispatch = std::function<void(Request, Completion)>;
  using BatchCompletion = std::function<void(std::vector<Response>)>;
  using BatchDispatch = std::function<void(std::vector<Request>, BatchCompletion)>;

  /// Per-connection write-buffer cap: a connection whose unsent responses
  /// exceed it is closed and counted in overflow_closes.
  static constexpr std::size_t kMaxOutbufBytes = 16u << 20;

  /// Binds, listens and starts the loop thread. `batch_dispatch` handles a
  /// whole binary frame as one unit (one pool hand-off per frame); when
  /// null, frames fan out through `dispatch` per record. Throws
  /// ccpred::Error if the socket cannot be set up.
  explicit EventLoopServer(Dispatch dispatch,
                           BatchDispatch batch_dispatch = nullptr,
                           EventLoopOptions options = {});

  /// Stops the loop and closes every connection. In-flight completions
  /// from workers are dropped safely.
  ~EventLoopServer();

  EventLoopServer(const EventLoopServer&) = delete;
  EventLoopServer& operator=(const EventLoopServer&) = delete;

  /// The bound port (useful with options.port = 0).
  int port() const { return port_; }

  EventLoopStats stats() const;

 private:
  struct Connection;
  struct Sink;

  void loop();
  void accept_ready();
  void wake_ready();
  void conn_readable(Connection* conn);
  void parse_input(Connection* conn);
  /// Queues `payload` as the response to `seq` and flushes whatever is in
  /// order. Loop thread only.
  void enqueue_response(Connection* conn, std::uint64_t seq,
                        std::string payload);
  void flush_ready(Connection* conn);
  void try_write(Connection* conn);
  /// Marks the connection dead; the loop reaps (closes + frees) it at the
  /// end of the current event batch. Deferred so that no caller up the
  /// stack is left holding a freed Connection.
  void retire(Connection* conn);
  void reap();
  /// Live connection for `conn_id`, or nullptr (unknown or retired).
  Connection* find(std::uint64_t conn_id);

  Dispatch dispatch_;
  BatchDispatch batch_dispatch_;
  EventLoopOptions options_;
  int port_ = 0;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int event_fd_ = -1;
  std::shared_ptr<Sink> sink_;
  std::atomic<bool> stop_{false};

  std::uint64_t next_conn_id_ = 1;
  /// Keyed by connection id, not fd: a completion for a connection that
  /// died while its request was in flight must miss, not hit a reused fd.
  std::unordered_map<std::uint64_t, std::unique_ptr<Connection>> conns_;
  std::vector<std::uint64_t> retired_;  ///< awaiting reap()

  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> closed_{0};
  std::atomic<std::uint64_t> requests_in_{0};
  std::atomic<std::uint64_t> frames_in_{0};
  std::atomic<std::uint64_t> lines_in_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
  std::atomic<std::uint64_t> overflow_closes_{0};

  std::thread loop_thread_;  ///< last member: joined before fields die
};

}  // namespace ccpred::serve
