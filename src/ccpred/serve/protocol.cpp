#include "ccpred/serve/protocol.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "ccpred/common/error.hpp"
#include "ccpred/common/strings.hpp"

namespace ccpred::serve {
namespace {

/// Cursor over one request line; all helpers throw on malformed input so
/// the caller can turn any parse failure into an error response.
struct Cursor {
  const std::string& s;
  std::size_t i = 0;

  void skip_ws() {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
  }
  bool done() {
    skip_ws();
    return i >= s.size();
  }
  char peek() {
    skip_ws();
    CCPRED_REQUIRE(i < s.size(), "protocol: unexpected end of line");
    return s[i];
  }
  void expect(char c) {
    CCPRED_REQUIRE(peek() == c, "protocol: expected '"
                                    << c << "' at column " << i << ", got '"
                                    << s[i] << "'");
    ++i;
  }
};

std::string parse_string(Cursor& c) {
  c.expect('"');
  std::string out;
  while (true) {
    CCPRED_REQUIRE(c.i < c.s.size(), "protocol: unterminated string");
    const char ch = c.s[c.i++];
    if (ch == '"') return out;
    if (ch == '\\') {
      CCPRED_REQUIRE(c.i < c.s.size(), "protocol: dangling escape");
      const char esc = c.s[c.i++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        default:
          throw Error(std::string("protocol: unsupported escape '\\") + esc +
                      "'");
      }
    } else {
      out += ch;
    }
  }
}

/// A bare (unquoted) scalar: number, true or false. Returned as written.
std::string parse_scalar(Cursor& c) {
  c.skip_ws();
  std::string out;
  while (c.i < c.s.size()) {
    const char ch = c.s[c.i];
    if (ch == ',' || ch == '}' ||
        std::isspace(static_cast<unsigned char>(ch))) {
      break;
    }
    CCPRED_REQUIRE(ch != '{' && ch != '[',
                   "protocol: nested values are not supported");
    out += ch;
    ++c.i;
  }
  CCPRED_REQUIRE(!out.empty(), "protocol: empty value");
  return out;
}

void json_escape(std::ostream& os, const std::string& s) {
  for (const char ch : s) {
    switch (ch) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", ch);
          os << buf;
        } else {
          os << ch;
        }
    }
  }
}

/// Compact double rendering with enough digits to round-trip answers.
std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

/// Exact double rendering for request fields: a request formatted by one
/// process and parsed by another must carry bit-identical values.
std::string number_exact(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// The raw text of a required field.
const std::string& field(const std::map<std::string, std::string>& rec,
                         const std::string& key) {
  const auto it = rec.find(key);
  CCPRED_REQUIRE(it != rec.end(), "request: missing field \"" << key << "\"");
  return it->second;
}

/// An integer field; a value outside int fails here rather than wrapping
/// into a different question (o = 2^32 + 44 would ask about O = 44).
int field_int(const std::map<std::string, std::string>& rec,
              const std::string& key) {
  return parse_int_as<int>(field(rec, key), "request: field \"" + key + "\"");
}

double field_double(const std::map<std::string, std::string>& rec,
                    const std::string& key) {
  return parse_double(field(rec, key));
}

std::string field_or(const std::map<std::string, std::string>& rec,
                     const std::string& key, const std::string& fallback) {
  const auto it = rec.find(key);
  return it == rec.end() ? fallback : it->second;
}

/// One validated wall-time measurement. std::from_chars happily parses
/// "nan" and "inf", so finiteness is checked explicitly here — nothing
/// non-finite or non-positive escapes the parse boundary.
double parse_wall_time(const std::string& text) {
  const double value = parse_double(text);
  CCPRED_REQUIRE(std::isfinite(value) && value > 0.0,
                 "report: wall time must be a finite positive number, got \""
                     << text << "\"");
  return value;
}

/// The report op's measurements: either "wall_time_s" (one number) or
/// "wall_times" (comma-separated batch, at most kMaxReportBatch entries).
std::vector<double> parse_wall_times(
    const std::map<std::string, std::string>& rec) {
  const bool single = rec.count("wall_time_s") != 0;
  const bool batch = rec.count("wall_times") != 0;
  CCPRED_REQUIRE(single != batch,
                 "report: provide exactly one of \"wall_time_s\" and "
                 "\"wall_times\"");
  std::vector<double> out;
  if (single) {
    out.push_back(parse_wall_time(rec.at("wall_time_s")));
    return out;
  }
  const std::string& list = rec.at("wall_times");
  std::size_t start = 0;
  while (true) {
    const std::size_t comma = list.find(',', start);
    const std::string item = list.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    CCPRED_REQUIRE(!item.empty(), "report: empty entry in \"wall_times\"");
    CCPRED_REQUIRE(out.size() < kMaxReportBatch,
                   "report: \"wall_times\" carries more than "
                       << kMaxReportBatch << " entries");
    out.push_back(parse_wall_time(item));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

}  // namespace

const char* op_name(Op op) {
  switch (op) {
    case Op::kStq: return "stq";
    case Op::kBq: return "bq";
    case Op::kBudget: return "budget";
    case Op::kJob: return "job";
    case Op::kStats: return "stats";
    case Op::kReport: return "report";
  }
  return "?";
}

std::map<std::string, std::string> parse_record(const std::string& line) {
  Cursor c{line};
  c.expect('{');
  std::map<std::string, std::string> rec;
  if (c.peek() == '}') {
    ++c.i;
  } else {
    while (true) {
      const std::string key = parse_string(c);
      c.expect(':');
      const std::string value =
          c.peek() == '"' ? parse_string(c) : parse_scalar(c);
      CCPRED_REQUIRE(rec.emplace(key, value).second,
                     "protocol: duplicate key \"" << key << "\"");
      const char next = c.peek();
      ++c.i;
      if (next == '}') break;
      CCPRED_REQUIRE(next == ',', "protocol: expected ',' or '}' after \""
                                      << key << "\"");
    }
  }
  CCPRED_REQUIRE(c.done(), "protocol: trailing characters after '}'");
  return rec;
}

Request parse_request(const std::string& line) {
  const auto rec = parse_record(line);
  Request req;
  const std::string op = field_or(rec, "op", "");
  CCPRED_REQUIRE(!op.empty(), "request: missing field \"op\"");
  if (op == "stq") {
    req.op = Op::kStq;
  } else if (op == "bq") {
    req.op = Op::kBq;
  } else if (op == "budget") {
    req.op = Op::kBudget;
  } else if (op == "job") {
    req.op = Op::kJob;
  } else if (op == "stats") {
    req.op = Op::kStats;
  } else if (op == "report") {
    req.op = Op::kReport;
  } else {
    throw Error("request: unknown op \"" + op +
                "\" (use stq|bq|budget|job|stats|report)");
  }
  req.id = field_or(rec, "id", "");
  req.machine = field_or(rec, "machine", "");
  req.model = field_or(rec, "model", "");
  if (req.op != Op::kStats) {
    req.o = field_int(rec, "o");
    req.v = field_int(rec, "v");
  }
  if (req.op == Op::kJob || req.op == Op::kReport) {
    req.nodes = field_int(rec, "nodes");
    req.tile = field_int(rec, "tile");
  }
  if (req.op == Op::kReport) {
    req.wall_times = parse_wall_times(rec);
  }
  if (req.op == Op::kBudget) {
    req.max_node_hours = field_double(rec, "max_node_hours");
  }
  if (rec.count("deadline_ms") != 0) {
    req.deadline_ms = field_int(rec, "deadline_ms");
  }
  validate_request(req);
  return req;
}

void validate_request(const Request& req) {
  CCPRED_REQUIRE(req.deadline_ms >= 0,
                 "request: deadline_ms must be >= 0, got " << req.deadline_ms);
  if (req.op == Op::kStats) return;
  CCPRED_REQUIRE(req.o > 0 && req.v > 0,
                 "request: o and v must be positive, got o="
                     << req.o << " v=" << req.v);
  if (req.op == Op::kJob || req.op == Op::kReport) {
    CCPRED_REQUIRE(req.nodes > 0 && req.tile > 0,
                   "request: nodes and tile must be positive, got nodes="
                       << req.nodes << " tile=" << req.tile);
  }
  if (req.op == Op::kBudget) {
    CCPRED_REQUIRE(
        std::isfinite(req.max_node_hours) && req.max_node_hours > 0.0,
        "budget: max_node_hours must be a finite positive number, got "
            << req.max_node_hours);
  }
  if (req.op == Op::kReport) {
    CCPRED_REQUIRE(!req.wall_times.empty() &&
                       req.wall_times.size() <= kMaxReportBatch,
                   "report: between 1 and " << kMaxReportBatch
                                            << " wall times required");
    for (const double wall : req.wall_times) {
      CCPRED_REQUIRE(
          std::isfinite(wall) && wall > 0.0,
          "report: wall time must be a finite positive number, got " << wall);
    }
  }
}

std::string format_request(const Request& req) {
  std::ostringstream os;
  os << "{\"op\":\"" << op_name(req.op) << '"';
  if (!req.id.empty()) {
    os << ",\"id\":\"";
    json_escape(os, req.id);
    os << '"';
  }
  if (!req.machine.empty()) {
    os << ",\"machine\":\"";
    json_escape(os, req.machine);
    os << '"';
  }
  if (!req.model.empty()) {
    os << ",\"model\":\"";
    json_escape(os, req.model);
    os << '"';
  }
  if (req.op != Op::kStats) os << ",\"o\":" << req.o << ",\"v\":" << req.v;
  if (req.op == Op::kJob || req.op == Op::kReport) {
    os << ",\"nodes\":" << req.nodes << ",\"tile\":" << req.tile;
  }
  if (req.op == Op::kBudget) {
    os << ",\"max_node_hours\":" << number_exact(req.max_node_hours);
  }
  if (req.op == Op::kReport) {
    os << ",\"wall_times\":\"";
    for (std::size_t i = 0; i < req.wall_times.size(); ++i) {
      if (i != 0) os << ',';
      os << number_exact(req.wall_times[i]);
    }
    os << '"';
  }
  if (req.deadline_ms > 0) os << ",\"deadline_ms\":" << req.deadline_ms;
  os << '}';
  return os.str();
}

std::string format_response(const Response& r) {
  std::ostringstream os;
  os << "{\"ok\":" << (r.ok ? "true" : "false");
  if (!r.op.empty()) {
    os << ",\"op\":\"";
    json_escape(os, r.op);
    os << '"';
  }
  if (!r.id.empty()) {
    os << ",\"id\":\"";
    json_escape(os, r.id);
    os << '"';
  }
  if (!r.ok) {
    if (!r.code.empty()) {
      os << ",\"code\":\"";
      json_escape(os, r.code);
      os << '"';
    }
    os << ",\"error\":\"";
    json_escape(os, r.error);
    os << '"';
  }
  if (r.stale) os << ",\"stale\":true";
  if (r.has_recommendation) {
    os << ",\"nodes\":" << r.nodes << ",\"tile\":" << r.tile
       << ",\"time_s\":" << number(r.time_s)
       << ",\"node_hours\":" << number(r.node_hours)
       << ",\"model_version\":" << r.model_version
       << ",\"sweep_size\":" << r.sweep_size
       << ",\"cache_hit\":" << (r.cache_hit ? "true" : "false");
  }
  if (r.has_job) {
    os << ",\"iterations\":" << r.iterations
       << ",\"setup_s\":" << number(r.setup_s)
       << ",\"iteration_s\":" << number(r.iteration_s)
       << ",\"total_s\":" << number(r.total_s)
       << ",\"node_hours\":" << number(r.node_hours);
  }
  if (r.has_report) {
    os << ",\"accepted\":" << r.accepted
       << ",\"duplicates\":" << r.duplicates
       << ",\"buffered\":" << r.buffered
       << ",\"rolling_mape\":" << number(r.rolling_mape)
       << ",\"drifting\":" << (r.drifting ? "true" : "false")
       << ",\"refit_scheduled\":" << (r.refit_scheduled ? "true" : "false")
       << ",\"model_version\":" << r.model_version;
  }
  if (r.has_stats) {
    const ServerStats& s = r.stats;
    for (const auto& c : kCounters) {
      os << ",\"" << c.name << "\":" << s.*c.member;
    }
    const LatencyHistogram::Snapshot total = s.total_latency();
    os << ",\"cache_hit_rate\":" << number(s.cache_hit_rate())
       << ",\"latency_p50_ms\":" << number(total.quantile(0.50) * 1e3)
       << ",\"latency_p95_ms\":" << number(total.quantile(0.95) * 1e3)
       << ",\"latency_mean_ms\":" << number(total.mean() * 1e3)
       << ",\"batch_size_p50\":" << number(s.batch_size_quantile(0.50))
       << ",\"batch_size_p95\":" << number(s.batch_size_quantile(0.95));
    for (std::size_t i = 0; i < kNumOps; ++i) {
      const LatencyHistogram::Snapshot& h = s.verb_latency[i];
      if (h.count == 0) continue;  // only verbs actually served
      const auto key = [&](const char* suffix) -> std::ostream& {
        return os << ",\"lat_" << op_name(static_cast<Op>(i)) << suffix
                  << "\":";
      };
      key("_count") << h.count;
      key("_p50_ms") << number(h.quantile(0.50) * 1e3);
      key("_p95_ms") << number(h.quantile(0.95) * 1e3);
      key("_p99_ms") << number(h.quantile(0.99) * 1e3);
      key("_max_ms") << number(h.max() * 1e3);
    }
    if (s.online_enabled) {
      for (const auto& c : kOnlineCounters) {
        os << ",\"" << c.name << "\":" << s.online.*c.member;
      }
      os << ",\"online_rolling_mape\":" << number(s.online.rolling_mape);
    }
  }
  os << '}';
  return os.str();
}

Response error_response(const std::string& message, const std::string& op,
                        const std::string& id, const std::string& code) {
  Response r;
  r.ok = false;
  r.op = op;
  r.id = id;
  r.error = message;
  r.code = code;
  return r;
}

Response line_error(const std::string& line, const std::string& message) {
  std::map<std::string, std::string> rec;
  try {
    rec = parse_record(line);
  } catch (const Error&) {
    return error_response(message);
  }
  return error_response(message, field_or(rec, "op", ""),
                        field_or(rec, "id", ""));
}

std::vector<Response> frame_error(std::span<const Request> frame,
                                  const std::string& message,
                                  const std::string& code) {
  std::vector<Response> out;
  out.reserve(frame.size());
  for (const Request& r : frame) {
    out.push_back(error_response(message, op_name(r.op), r.id, code));
  }
  return out;
}

}  // namespace ccpred::serve
