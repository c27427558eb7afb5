#include "ccpred/serve/event_loop.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <map>
#include <mutex>
#include <utility>

#include "ccpred/common/error.hpp"
#include "ccpred/serve/wire.hpp"

namespace ccpred::serve {
namespace {

// epoll user-data tags for the two non-connection fds.
constexpr std::uint64_t kListenTag = ~std::uint64_t{0};
constexpr std::uint64_t kWakeTag = ~std::uint64_t{0} - 1;

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  CCPRED_CHECK_MSG(flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
                   "event_loop: fcntl(O_NONBLOCK) failed: "
                       << std::strerror(errno));
}

}  // namespace

/// One worker-finished response on its way back to the loop thread.
struct Completed {
  std::uint64_t conn_id;
  std::uint64_t seq;
  std::string payload;  ///< already rendered (JSON line or wire frame)
};

/// The worker->loop hand-off point. Shared (via shared_ptr) between the
/// loop and every in-flight completion callback, and usable after the
/// EventLoopServer is gone: the destructor marks it closed under the
/// mutex, after which push() drops payloads instead of touching the
/// eventfd. The eventfd write happens under the same mutex, so it can
/// never race the close.
struct EventLoopServer::Sink {
  std::mutex mutex;
  std::vector<Completed> queue;
  int event_fd = -1;
  bool closed = false;

  void push(std::uint64_t conn_id, std::uint64_t seq, std::string payload) {
    const std::lock_guard<std::mutex> lock(mutex);
    if (closed) return;
    queue.push_back(Completed{conn_id, seq, std::move(payload)});
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n =
        ::write(event_fd, &one, sizeof one);  // never blocks for counts < 2^64
  }

  std::vector<Completed> drain() {
    const std::lock_guard<std::mutex> lock(mutex);
    return std::exchange(queue, {});
  }
};

/// Loop-thread-owned connection state. Workers never see this struct —
/// they only know (conn_id, seq).
struct EventLoopServer::Connection {
  int fd = -1;
  std::uint64_t id = 0;
  std::string in;   ///< unparsed bytes
  std::string out;  ///< rendered responses awaiting the socket
  std::size_t out_sent = 0;  ///< prefix of `out` already written

  std::uint64_t next_seq = 0;    ///< next request sequence to assign
  std::uint64_t next_flush = 0;  ///< next sequence owed to the client
  /// Completions that arrived ahead of their turn, keyed by sequence.
  std::map<std::uint64_t, std::string> parked;

  bool peer_closed = false;  ///< read side saw EOF
  bool fatal = false;        ///< protocol error: close once `out` drains
  bool dead = false;         ///< retired; reaped at the end of the batch

  bool idle() const { return next_seq == next_flush && out_sent == out.size(); }
};

std::size_t EventLoopOptions::effective_inbuf_bytes() const {
  if (max_inbuf_bytes > 0) return max_inbuf_bytes;
  // Derived default: one unterminated line plus two max-size wire frames
  // of lookahead — the pre-PR-10 hardcoded formula.
  return max_line_bytes + wire::kMaxFramePayload * 2;
}

EventLoopServer::EventLoopServer(Dispatch dispatch, BatchDispatch batch_dispatch,
                                 EventLoopOptions options)
    : dispatch_(std::move(dispatch)),
      batch_dispatch_(std::move(batch_dispatch)),
      options_(options) {
  CCPRED_CHECK_MSG(dispatch_ != nullptr, "event_loop: dispatch is required");
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  CCPRED_CHECK_MSG(listen_fd_ >= 0,
                   "event_loop: socket() failed: " << std::strerror(errno));
  const int yes = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &yes, sizeof yes);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  CCPRED_CHECK_MSG(
      ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0,
      "event_loop: bind to port " << options_.port
                                  << " failed: " << std::strerror(errno));
  const int backlog = options_.backlog < 0 ? SOMAXCONN : options_.backlog;
  CCPRED_CHECK_MSG(::listen(listen_fd_, backlog) == 0,
                   "event_loop: listen() failed: " << std::strerror(errno));
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);
  set_nonblocking(listen_fd_);

  epoll_fd_ = ::epoll_create1(0);
  CCPRED_CHECK_MSG(epoll_fd_ >= 0, "event_loop: epoll_create1 failed: "
                                       << std::strerror(errno));
  event_fd_ = ::eventfd(0, EFD_NONBLOCK);
  CCPRED_CHECK_MSG(event_fd_ >= 0,
                   "event_loop: eventfd failed: " << std::strerror(errno));
  sink_ = std::make_shared<Sink>();
  sink_->event_fd = event_fd_;

  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLET;
  ev.data.u64 = kListenTag;
  CCPRED_CHECK_MSG(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) == 0,
                   "event_loop: epoll_ctl(listen) failed");
  ev.data.u64 = kWakeTag;
  CCPRED_CHECK_MSG(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, event_fd_, &ev) == 0,
                   "event_loop: epoll_ctl(eventfd) failed");

  loop_thread_ = std::thread([this] { loop(); });
}

EventLoopServer::~EventLoopServer() {
  stop_.store(true, std::memory_order_release);
  {
    // Wake the loop through the sink so the write cannot race closed-fd
    // teardown below.
    const std::lock_guard<std::mutex> lock(sink_->mutex);
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n = ::write(event_fd_, &one, sizeof one);
  }
  loop_thread_.join();
  for (auto& [id, conn] : conns_) ::close(conn->fd);
  conns_.clear();
  {
    // After this block any straggling completion is dropped in push().
    const std::lock_guard<std::mutex> lock(sink_->mutex);
    sink_->closed = true;
  }
  ::close(event_fd_);
  ::close(listen_fd_);
  ::close(epoll_fd_);
}

EventLoopStats EventLoopServer::stats() const {
  EventLoopStats s;
  s.connections_accepted = accepted_.load(std::memory_order_relaxed);
  s.connections_closed = closed_.load(std::memory_order_relaxed);
  s.requests_in = requests_in_.load(std::memory_order_relaxed);
  s.frames_in = frames_in_.load(std::memory_order_relaxed);
  s.lines_in = lines_in_.load(std::memory_order_relaxed);
  s.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  s.overflow_closes = overflow_closes_.load(std::memory_order_relaxed);
  return s;
}

EventLoopServer::Connection* EventLoopServer::find(std::uint64_t conn_id) {
  const auto it = conns_.find(conn_id);
  if (it == conns_.end() || it->second->dead) return nullptr;
  return it->second.get();
}

void EventLoopServer::retire(Connection* conn) {
  if (conn->dead) return;
  conn->dead = true;
  closed_.fetch_add(1, std::memory_order_relaxed);
  retired_.push_back(conn->id);
}

void EventLoopServer::reap() {
  for (const std::uint64_t id : retired_) {
    const auto it = conns_.find(id);
    if (it == conns_.end()) continue;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, it->second->fd, nullptr);
    ::close(it->second->fd);
    conns_.erase(it);
  }
  retired_.clear();
}

void EventLoopServer::loop() {
  constexpr int kMaxEvents = 128;
  epoll_event events[kMaxEvents];
  while (!stop_.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll fd itself failed; shut the loop down
    }
    for (int i = 0; i < n; ++i) {
      const std::uint64_t tag = events[i].data.u64;
      if (tag == kListenTag) {
        accept_ready();
        continue;
      }
      if (tag == kWakeTag) {
        wake_ready();
        continue;
      }
      Connection* conn = find(tag);
      if (conn == nullptr) continue;  // retired earlier this batch
      if ((events[i].events & (EPOLLERR | EPOLLHUP)) != 0) {
        retire(conn);
        continue;
      }
      if ((events[i].events & EPOLLOUT) != 0) try_write(conn);
      if (!conn->dead && (events[i].events & EPOLLIN) != 0) {
        conn_readable(conn);
      }
    }
    reap();
  }
}

void EventLoopServer::accept_ready() {
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;  // transient resource exhaustion: retry on the next edge
    }
    const int yes = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &yes, sizeof yes);
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->id = next_conn_id_++;
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLOUT | EPOLLET;
    ev.data.u64 = conn->id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    accepted_.fetch_add(1, std::memory_order_relaxed);
    conns_.emplace(conn->id, std::move(conn));
  }
}

void EventLoopServer::wake_ready() {
  std::uint64_t drained = 0;
  while (::read(event_fd_, &drained, sizeof drained) > 0) {
  }
  for (Completed& done : sink_->drain()) {
    Connection* conn = find(done.conn_id);
    if (conn == nullptr) continue;  // client left before its answer
    enqueue_response(conn, done.seq, std::move(done.payload));
  }
}

void EventLoopServer::conn_readable(Connection* conn) {
  char buf[1 << 16];
  while (true) {
    const ssize_t n = ::read(conn->fd, buf, sizeof buf);
    if (n > 0) {
      conn->in.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) {
      conn->peer_closed = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    retire(conn);
    return;
  }
  parse_input(conn);
  if (!conn->dead && conn->peer_closed && conn->idle()) retire(conn);
}

void EventLoopServer::parse_input(Connection* conn) {
  if (conn->fatal) {
    // Already answering a stream-level error; everything further is noise.
    conn->in.clear();
    return;
  }
  std::size_t pos = 0;
  const std::uint64_t conn_id = conn->id;
  while (!conn->dead && pos < conn->in.size()) {
    // Inter-message whitespace (trailing CRLFs, netcat blank lines).
    const char first = conn->in[pos];
    if (first == '\n' || first == '\r' || first == ' ' || first == '\t') {
      ++pos;
      continue;
    }
    const auto* data =
        reinterpret_cast<const unsigned char*>(conn->in.data()) + pos;
    const std::size_t avail = conn->in.size() - pos;

    if (wire::starts_frame(static_cast<unsigned char>(first))) {
      wire::FrameHeader header;
      std::string why;
      const wire::FrameStatus st =
          wire::probe_frame(data, avail, &header, &why);
      if (st == wire::FrameStatus::kNeedMore) break;
      if (st == wire::FrameStatus::kBad) {
        // Unframeable garbage: the stream offset is unrecoverable, so
        // answer once and close after the write drains.
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        conn->fatal = true;
        enqueue_response(
            conn, conn->next_seq++,
            wire::encode_response_frame({error_response(why)}));
        pos = conn->in.size();
        break;
      }
      if (avail < wire::kHeaderBytes + header.payload_bytes) break;
      frames_in_.fetch_add(1, std::memory_order_relaxed);
      const unsigned char* payload = data + wire::kHeaderBytes;
      pos += wire::kHeaderBytes + header.payload_bytes;
      std::vector<Request> batch;
      try {
        batch = wire::decode_request_frame(header, payload);
      } catch (const Error& e) {
        // The frame boundary held, so the connection survives: answer the
        // whole frame with one error response and keep parsing.
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        enqueue_response(
            conn, conn->next_seq++,
            wire::encode_response_frame({error_response(e.what())}));
        continue;
      }
      requests_in_.fetch_add(batch.size(), std::memory_order_relaxed);
      const std::uint64_t seq = conn->next_seq++;
      if (batch.empty()) {
        enqueue_response(conn, seq, wire::encode_response_frame({}));
        continue;
      }
      const std::shared_ptr<Sink> sink = sink_;
      if (batch_dispatch_ != nullptr) {
        batch_dispatch_(std::move(batch),
                        [sink, conn_id, seq](std::vector<Response> rs) {
                          sink->push(conn_id, seq,
                                     wire::encode_response_frame(rs));
                        });
      } else {
        // Fan out per record; the last completion encodes the frame.
        struct FrameJob {
          std::shared_ptr<Sink> sink;
          std::uint64_t conn_id, seq;
          std::vector<Response> slots;
          std::atomic<std::size_t> remaining;
        };
        auto job = std::make_shared<FrameJob>();
        job->sink = sink;
        job->conn_id = conn_id;
        job->seq = seq;
        job->slots.resize(batch.size());
        job->remaining.store(batch.size(), std::memory_order_relaxed);
        for (std::size_t r = 0; r < batch.size(); ++r) {
          dispatch_(std::move(batch[r]), [job, r](Response resp) {
            job->slots[r] = std::move(resp);
            if (job->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
              job->sink->push(job->conn_id, job->seq,
                              wire::encode_response_frame(job->slots));
            }
          });
        }
      }
      continue;
    }

    // JSON line.
    const std::size_t nl = conn->in.find('\n', pos);
    if (nl == std::string::npos) {
      if (avail > options_.max_line_bytes) {
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        conn->fatal = true;
        enqueue_response(conn, conn->next_seq++,
                         format_response(error_response(
                             "protocol: line exceeds " +
                             std::to_string(options_.max_line_bytes) +
                             " bytes")) +
                             "\n");
        pos = conn->in.size();
      }
      break;
    }
    std::size_t end = nl;
    while (end > pos && conn->in[end - 1] == '\r') --end;
    const std::string line = conn->in.substr(pos, end - pos);
    pos = nl + 1;
    lines_in_.fetch_add(1, std::memory_order_relaxed);
    requests_in_.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t seq = conn->next_seq++;
    Request req;
    try {
      req = parse_request(line);
    } catch (const Error& e) {
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      enqueue_response(conn, seq,
                       format_response(line_error(line, e.what())) + "\n");
      continue;
    }
    const std::shared_ptr<Sink> sink = sink_;
    dispatch_(std::move(req), [sink, conn_id, seq](Response resp) {
      sink->push(conn_id, seq, format_response(resp) + "\n");
    });
  }
  if (conn->dead) return;
  conn->in.erase(0, pos);
  if (conn->in.size() > options_.effective_inbuf_bytes()) {
    // Defense in depth: nothing parseable should ever grow this far.
    overflow_closes_.fetch_add(1, std::memory_order_relaxed);
    retire(conn);
  }
}

void EventLoopServer::enqueue_response(Connection* conn, std::uint64_t seq,
                                       std::string payload) {
  conn->parked.emplace(seq, std::move(payload));
  flush_ready(conn);
}

void EventLoopServer::flush_ready(Connection* conn) {
  auto it = conn->parked.begin();
  while (it != conn->parked.end() && it->first == conn->next_flush) {
    conn->out.append(it->second);
    it = conn->parked.erase(it);
    ++conn->next_flush;
  }
  if (conn->out.size() - conn->out_sent > kMaxOutbufBytes) {
    overflow_closes_.fetch_add(1, std::memory_order_relaxed);
    retire(conn);
    return;
  }
  try_write(conn);
}

void EventLoopServer::try_write(Connection* conn) {
  if (conn->dead) return;
  while (conn->out_sent < conn->out.size()) {
    // MSG_NOSIGNAL: a peer that closed mid-write must surface as EPIPE
    // (retire the connection), not SIGPIPE (kill the process).
    const ssize_t n =
        ::send(conn->fd, conn->out.data() + conn->out_sent,
               conn->out.size() - conn->out_sent, MSG_NOSIGNAL);
    if (n > 0) {
      conn->out_sent += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    retire(conn);
    return;
  }
  // Fully flushed: reclaim the buffer and close if this stream is done.
  conn->out.clear();
  conn->out_sent = 0;
  if (conn->fatal || (conn->peer_closed && conn->idle())) retire(conn);
}

}  // namespace ccpred::serve
