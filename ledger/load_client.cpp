#include "load_client.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <exception>
#include <mutex>
#include <thread>

#include "ccpred/common/error.hpp"
#include "ledger.hpp"

namespace ccpred::ledger {
namespace {

/// Closes the descriptor on every exit path.
struct FdGuard {
  int fd;
  ~FdGuard() { ::close(fd); }
};

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  CCPRED_CHECK_MSG(flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
                   "cannot make client socket non-blocking");
}

/// Waits up to `timeout_ns` for `events` on fd; returns revents (0 on
/// timeout). Nanosecond timeouts: ppoll, not poll's milliseconds.
short wait_fd(int fd, short events, std::int64_t timeout_ns) {
  pollfd pfd{fd, events, 0};
  timespec ts{};
  if (timeout_ns > 0) {
    ts.tv_sec = static_cast<time_t>(timeout_ns / 1'000'000'000);
    ts.tv_nsec = static_cast<long>(timeout_ns % 1'000'000'000);
  }
  const int n = ::ppoll(&pfd, 1, &ts, nullptr);
  if (n < 0) {
    CCPRED_CHECK_MSG(errno == EINTR, "ppoll failed: " << std::strerror(errno));
    return 0;
  }
  return n == 0 ? 0 : pfd.revents;
}

/// Sends as much of out[*off..] as the socket takes without blocking.
/// Returns false when the connection is gone.
bool flush_some(int fd, const std::string& out, std::size_t* off) {
  while (*off < out.size()) {
    const ssize_t n =
        ::send(fd, out.data() + *off, out.size() - *off, MSG_NOSIGNAL);
    if (n > 0) {
      *off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
  }
  return true;
}

/// The open loop for one connection: `mine` are its requests, in schedule
/// order.
void drive_connection(int port, const Schedule& schedule,
                      const std::vector<std::size_t>& mine,
                      std::int64_t start_ns, std::int64_t drain_deadline_ns,
                      const Checker& check, std::vector<Outcome>* outcomes) {
  // Default timer slack (50 us) would make every timed wake-up late by
  // about that much; the generator's own lateness is part of the latency.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);

  const int fd = connect_loopback(port);
  const FdGuard guard{fd};
  set_nonblocking(fd);

  std::string out;
  std::size_t out_off = 0;
  std::string in;
  std::size_t next = 0;   // next request of `mine` to send
  std::size_t acked = 0;  // next request of `mine` awaiting its response
  char chunk[1 << 16];
  while (acked < mine.size()) {
    const std::int64_t now = now_ns();
    if (now >= drain_deadline_ns) return;
    while (next < mine.size() &&
           start_ns + schedule.at_ns[mine[next]] <= now) {
      (*outcomes)[mine[next]].sent_ns = now;
      out += schedule.lines[mine[next]];
      ++next;
    }
    if (!flush_some(fd, out, &out_off)) return;
    if (out_off == out.size()) {
      out.clear();
      out_off = 0;
    }

    const std::int64_t wake = next < mine.size()
                                  ? start_ns + schedule.at_ns[mine[next]]
                                  : drain_deadline_ns;
    const short events = static_cast<short>(POLLIN | (out.empty() ? 0 : POLLOUT));
    const short revents = wait_fd(fd, events, wake - now_ns());
    if ((revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;

    while (true) {
      const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
      if (n > 0) {
        const std::int64_t t = now_ns();
        in.append(chunk, static_cast<std::size_t>(n));
        std::size_t pos = 0;
        std::size_t nl;
        while (acked < next && (nl = in.find('\n', pos)) != std::string::npos) {
          Outcome& o = (*outcomes)[mine[acked]];
          o.recv_ns = t;
          o.verdict = check(mine[acked],
                            std::string_view(in.data() + pos, nl - pos));
          ++acked;
          pos = nl + 1;
        }
        in.erase(0, pos);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      return;  // closed or reset: the rest stay unanswered
    }
  }
}

}  // namespace

int connect_loopback(int port) {
  // CLOEXEC: a daemon forked later must not inherit client sockets.
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  CCPRED_CHECK_MSG(fd >= 0, "client socket failed: " << std::strerror(errno));
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const int err = errno;
    ::close(fd);
    CCPRED_CHECK_MSG(false, "connect to port " << port << ": "
                                                << std::strerror(err));
  }
  return fd;
}

std::vector<std::string> exchange(int port, const std::vector<std::string>& lines,
                                  double timeout_s) {
  const int fd = connect_loopback(port);
  const FdGuard guard{fd};
  set_nonblocking(fd);
  std::string out;
  for (const std::string& line : lines) out += line;
  std::size_t off = 0;
  std::string in;
  std::vector<std::string> replies;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(timeout_s * 1e9);
  char chunk[1 << 16];
  while (replies.size() < lines.size()) {
    CCPRED_CHECK_MSG(flush_some(fd, out, &off), "server closed mid-send");
    const std::int64_t left = deadline - now_ns();
    CCPRED_CHECK_MSG(left > 0, "no answer within " << timeout_s << " s ("
                                                   << replies.size() << " of "
                                                   << lines.size() << ")");
    const short revents = wait_fd(
        fd, static_cast<short>(POLLIN | (off < out.size() ? POLLOUT : 0)), left);
    if ((revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
      continue;
    }
    CCPRED_CHECK_MSG(n > 0, "server closed the connection early");
    in.append(chunk, static_cast<std::size_t>(n));
    std::size_t nl;
    while ((nl = in.find('\n')) != std::string::npos) {
      replies.push_back(in.substr(0, nl));
      in.erase(0, nl + 1);
    }
  }
  return replies;
}

PhaseResult run_open_loop(int port, const Schedule& schedule, int conns,
                          const Checker& check, double drain_s,
                          std::int64_t start_ns) {
  const std::size_t n = schedule.lines.size();
  CCPRED_CHECK_MSG(schedule.at_ns.size() == n && schedule.conn.size() == n,
                   "malformed schedule");
  std::vector<std::vector<std::size_t>> per_conn(static_cast<std::size_t>(conns));
  for (std::size_t i = 0; i < n; ++i) {
    CCPRED_CHECK_MSG(schedule.conn[i] < conns, "request on a missing connection");
    per_conn[schedule.conn[i]].push_back(i);
  }

  PhaseResult result;
  result.outcomes.resize(n);
  const std::int64_t last = n == 0 ? 0 : schedule.at_ns.back();
  result.start_ns = start_ns;
  result.end_ns = result.start_ns + last;
  const std::int64_t drain_deadline =
      result.end_ns + static_cast<std::int64_t>(drain_s * 1e9);
  for (std::size_t i = 0; i < n; ++i) {
    result.outcomes[i].intended_ns = result.start_ns + schedule.at_ns[i];
  }

  std::mutex error_mutex;
  std::exception_ptr error;
  std::vector<std::thread> threads;
  threads.reserve(per_conn.size());
  for (const auto& mine : per_conn) {
    threads.emplace_back([&, mine_ptr = &mine] {
      try {
        drive_connection(port, schedule, *mine_ptr, result.start_ns,
                         drain_deadline, check, &result.outcomes);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) error = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (error) std::rethrow_exception(error);
  return result;
}

}  // namespace ccpred::ledger
