#pragma once

/// \file load_client.hpp
/// Loopback line-JSON client for ccpred_serverd's TCP front end, in two
/// shapes:
///
///  * run_open_loop — the ledger's load generator. Each connection has its
///    own thread and its own pre-drawn arrival schedule. A request is
///    written when it falls due whether or not earlier ones were answered,
///    so the server's queue can grow, and its latency runs from the
///    *intended* send time: a stall that delays later sends is charged to
///    those requests instead of hidden (no coordinated omission). How late
///    the generator itself ran is recorded per request.
///  * exchange — a pipelined burst on one connection (prefill, stats).
///
/// Line JSON carries no correlation ids the server must honour, but the
/// server answers each connection strictly in request order, so responses
/// match requests by position.

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace ccpred::ledger {

/// Connects to 127.0.0.1:port with TCP_NODELAY. Throws ccpred::Error.
int connect_loopback(int port);

/// Sends every line (each newline-terminated) on one fresh connection and
/// returns the response lines, in order, without their newlines. Throws
/// ccpred::Error if the server closes early or `timeout_s` passes.
std::vector<std::string> exchange(int port, const std::vector<std::string>& lines,
                                  double timeout_s);

/// One open-loop phase: request i is due `at_ns[i]` after the phase starts
/// and is sent on connection `conn[i]`.
struct Schedule {
  std::vector<std::int64_t> at_ns;  ///< nondecreasing offsets from start
  std::vector<std::uint8_t> conn;   ///< connection index per request
  std::vector<std::string> lines;   ///< newline-terminated request lines
};

enum class Verdict : std::uint8_t {
  kUnanswered = 0,  ///< no response by the drain deadline
  kOk,              ///< answered ok and (where checked) correct
  kFailed,          ///< answered ok=false
  kWrong,           ///< answered ok but differs from the reference
};

/// What happened to one scheduled request. Times are now_ns() values.
struct Outcome {
  std::int64_t intended_ns = 0;
  std::int64_t sent_ns = 0;  ///< when the generator wrote it (>= intended)
  std::int64_t recv_ns = 0;  ///< when its response line was read; 0 = never
  Verdict verdict = Verdict::kUnanswered;
};

/// Judges the response line to request `index`. Runs on the connection
/// threads, concurrently for different requests.
using Checker = std::function<Verdict(std::size_t index, std::string_view line)>;

struct PhaseResult {
  std::int64_t start_ns = 0;  ///< the phase's time zero
  std::int64_t end_ns = 0;    ///< start + the last arrival offset
  std::vector<Outcome> outcomes;  ///< aligned with the schedule
};

/// Drives `schedule` against 127.0.0.1:port over `conns` connections (one
/// thread each) from time zero `start_ns` (a now_ns() value a little in
/// the future, so every thread is connected before the first arrival),
/// then waits for the stragglers until `drain_s` after the last arrival.
/// Requests still unanswered then stay kUnanswered, as do the rest of a
/// connection the server closes.
PhaseResult run_open_loop(int port, const Schedule& schedule, int conns,
                          const Checker& check, double drain_s,
                          std::int64_t start_ns);

}  // namespace ccpred::ledger
