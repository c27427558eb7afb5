#pragma once

/// \file protocol.hpp
/// The serving subsystem's wire format: one flat JSON object per line, for
/// both requests and responses. Flat means string / number / boolean values
/// only — no nesting — which keeps the parser ~100 lines, the protocol
/// greppable, and a session scriptable with a shell here-doc.
///
/// Requests:
///   {"op":"stq","machine":"aurora","o":134,"v":951}
///   {"op":"bq","machine":"frontier","o":99,"v":718,"id":"q7"}
///   {"op":"budget","machine":"aurora","o":134,"v":951,"max_node_hours":8.0}
///   {"op":"job","machine":"aurora","o":134,"v":951,"nodes":110,"tile":90}
///   {"op":"stats"}
///   {"op":"report","machine":"aurora","o":134,"v":951,"nodes":110,
///    "tile":90,"wall_time_s":123.4}
///
/// `report` feeds a measured run back into the online learning loop. Repeat
/// measurements of the same configuration batch as a comma-separated list:
/// "wall_times":"123.4,130.1" (at most 64 entries; mutually exclusive with
/// wall_time_s). Every wall time must be a finite positive number — NaN,
/// Inf and non-positive values are rejected at the parse boundary.
///
/// Any request may carry "deadline_ms": the server answers
/// {"ok":false,"code":"deadline",...} if it cannot finish in time (the
/// underlying sweep still completes and warms the cache).
///
/// Responses echo "op" (and "id" when given) and carry either the answer
/// fields or {"ok":false,"code":"...","error":"..."} — `code` is a stable
/// machine-readable failure class ("deadline", "overloaded",
/// "bad_request", "internal") while `error` stays human-readable. An ok
/// answer computed from a last-good model after a failed hot reload
/// additionally carries "stale":true.

#include <map>
#include <span>
#include <string>
#include <vector>

#include "ccpred/serve/stats.hpp"

namespace ccpred::serve {

/// Request kinds understood by the server.
enum class Op {
  kStq,     ///< shortest-time question
  kBq,      ///< budget question (min node-hours)
  kBudget,  ///< fastest within a node-hour budget
  kJob,     ///< whole-job estimate straight from the simulator
  kStats,   ///< server statistics snapshot
  kReport,  ///< measured-run feedback for the online learning loop
};

/// Largest batch of wall times one report request may carry.
inline constexpr std::size_t kMaxReportBatch = 64;

/// Canonical wire name of an op ("stq", "bq", ...).
const char* op_name(Op op);

/// One parsed request. `machine` / `model` may be empty, meaning "use the
/// server's defaults".
struct Request {
  Op op = Op::kStats;
  std::string id;       ///< optional client tag, echoed verbatim
  std::string machine;  ///< "aurora" | "frontier" | "" (server default)
  std::string model;    ///< "gb" | "rf" | "" (server default)
  int o = 0;
  int v = 0;
  int nodes = 0;              ///< job / report ops only
  int tile = 0;               ///< job / report ops only
  double max_node_hours = 0.0;  ///< budget op only
  int deadline_ms = 0;          ///< per-request deadline; 0 = none
  /// report op only: validated finite positive measurements (>= 1 entry).
  std::vector<double> wall_times;
};

/// One response; which optional block is populated depends on the op.
struct Response {
  bool ok = false;
  std::string op;     ///< echoed op name
  std::string id;     ///< echoed request id (may be empty)
  std::string error;  ///< set when !ok (human-readable)
  std::string code;   ///< set when !ok (machine-readable failure class)
  bool stale = false;  ///< answer came from a last-good model (degraded)

  // Recommendation block (stq / bq / budget).
  bool has_recommendation = false;
  int nodes = 0;
  int tile = 0;
  double time_s = 0.0;
  double node_hours = 0.0;
  std::uint64_t model_version = 0;
  std::size_t sweep_size = 0;
  bool cache_hit = false;

  // Job block.
  bool has_job = false;
  int iterations = 0;
  double setup_s = 0.0;
  double iteration_s = 0.0;
  double total_s = 0.0;

  // Report block (online feedback ingestion; model_version above names the
  // model that scored the reported runs).
  bool has_report = false;
  std::size_t accepted = 0;    ///< measurements stored
  std::size_t duplicates = 0;  ///< byte-exact repeats dropped
  std::size_t buffered = 0;    ///< stream buffer size afterwards
  double rolling_mape = 0.0;   ///< drift window MAPE afterwards
  bool drifting = false;       ///< drift detector tripped
  bool refit_scheduled = false;  ///< this report triggered a refit

  // Stats block.
  bool has_stats = false;
  ServerStats stats;
};

/// Parses one flat JSON object into key -> raw value text (strings are
/// unescaped, numbers/booleans kept as written). Throws ccpred::Error on
/// malformed input, nesting, or duplicate keys.
std::map<std::string, std::string> parse_record(const std::string& line);

/// Parses and validates a request line. Throws ccpred::Error with a
/// user-facing message on unknown ops, missing fields, or bad numbers:
/// the message alone, with no checked expression or source path, since it
/// goes back to the client.
Request parse_request(const std::string& line);

/// Semantic validation shared by every ingress path (line-JSON parsing and
/// the binary wire decoder): o and v positive for every op but stats,
/// nodes and tile positive for job and report, a finite positive
/// max_node_hours for budget, report wall times, deadline sign. Throws
/// ccpred::Error with the same plain messages parse_request raises, so a
/// request is accepted or rejected identically on both protocols and
/// answered "bad_request".
void validate_request(const Request& request);

/// Renders a request as one flat JSON line (no trailing newline) that
/// parse_request accepts back as an equivalent request. Doubles are
/// rendered with enough digits (%.17g) to round-trip exactly; the load
/// generators of the benches and the ledger are built on this.
std::string format_request(const Request& request);

/// Renders a response as one flat JSON line (no trailing newline).
std::string format_response(const Response& response);

/// Convenience: an ok=false response echoing whatever could be salvaged.
/// `code` defaults to "bad_request", the class of every parse-boundary
/// failure; dispatch-time failures pass their own class.
Response error_response(const std::string& message, const std::string& op = "",
                        const std::string& id = "",
                        const std::string& code = "bad_request");

/// The code="bad_request" answer to a line parse_request rejected with
/// `message`. A line that still parses as a flat record (parse_record)
/// gets its "op" and "id" echoed as sent, so a pipelining client can match
/// the error to its request; any other line is answered without them.
Response line_error(const std::string& line, const std::string& message);

/// The same ok=false answer for every record of a frame, each echoing its
/// own record's op and id: a frame always gets one response per record.
std::vector<Response> frame_error(std::span<const Request> frame,
                                  const std::string& message,
                                  const std::string& code);

}  // namespace ccpred::serve
