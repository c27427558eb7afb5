#include "ccpred/serve/wire.hpp"

#include <algorithm>
#include <cstring>

#include "ccpred/common/error.hpp"

namespace ccpred::serve::wire {
namespace {

/// Appends little-endian primitives to a growing frame.
struct Writer {
  std::string& out;

  void u8(std::uint8_t v) { out.push_back(static_cast<char>(v)); }
  void u16(std::uint16_t v) {
    for (int i = 0; i < 2; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void str(const std::string& s) {
    CCPRED_REQUIRE(s.size() <= kMaxStringBytes,
                   "wire: string field of " << s.size()
                                            << " bytes exceeds the cap");
    u32(static_cast<std::uint32_t>(s.size()));
    out.append(s);
  }
  /// A histogram as its nonzero entries: a u16 entry count, then
  /// (u16 index, u64 count) pairs in ascending index order.
  void counts(const std::vector<std::uint64_t>& h) {
    CCPRED_REQUIRE(h.size() <= kMaxHistogramEntries,
                   "wire: histogram of " << h.size()
                                         << " entries exceeds the cap");
    const auto nonzero = static_cast<std::uint16_t>(
        std::count_if(h.begin(), h.end(), [](auto n) { return n != 0; }));
    u16(nonzero);
    for (std::size_t i = 0; i < h.size(); ++i) {
      if (h[i] == 0) continue;
      u16(static_cast<std::uint16_t>(i));
      u64(h[i]);
    }
  }
};

/// Bounds-checked little-endian reads over one frame payload. Every read
/// throws instead of running past the declared payload, so a hostile
/// length prefix can never make the decoder touch adjacent memory.
struct Reader {
  const unsigned char* data;
  std::size_t size;
  std::size_t pos = 0;

  void need(std::size_t n) const {
    CCPRED_REQUIRE(size - pos >= n,
                   "wire: truncated record (need " << n << " bytes, have "
                                                   << size - pos << ")");
  }
  std::uint8_t u8() {
    need(1);
    return data[pos++];
  }
  std::uint16_t u16() {
    need(2);
    std::uint16_t v = 0;
    for (int i = 0; i < 2; ++i) v |= static_cast<std::uint16_t>(data[pos++]) << (8 * i);
    return v;
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data[pos++]) << (8 * i);
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data[pos++]) << (8 * i);
    return v;
  }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  double f64() {
    const std::uint64_t bits = u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  std::string str() {
    const std::uint32_t n = u32();
    CCPRED_REQUIRE(n <= kMaxStringBytes,
                   "wire: string length " << n << " exceeds the cap");
    need(n);
    std::string s(reinterpret_cast<const char*>(data + pos), n);
    pos += n;
    return s;
  }
  /// Reads what Writer::counts wrote. Indices must rise and stay below
  /// `limit`, and counts must be nonzero, so the result has no trailing
  /// zeros.
  std::vector<std::uint64_t> counts(std::size_t limit) {
    std::vector<std::uint64_t> h;
    for (std::uint16_t i = u16(); i > 0; --i) {
      const std::uint16_t index = u16();
      CCPRED_REQUIRE(index >= h.size() && index < limit,
                     "wire: histogram index " << index
                                              << " out of order or range");
      h.resize(index + 1);
      h[index] = u64();
      CCPRED_REQUIRE(h[index] != 0, "wire: empty histogram entry");
    }
    return h;
  }
};

void write_header(Writer& w, FrameKind kind, std::size_t count,
                  std::size_t payload_bytes) {
  CCPRED_REQUIRE(count <= kMaxFrameRecords,
                 "wire: " << count << " records exceed the frame cap");
  CCPRED_REQUIRE(payload_bytes <= kMaxFramePayload,
                 "wire: payload of " << payload_bytes
                                     << " bytes exceeds the frame cap");
  for (const unsigned char m : kMagic) w.u8(m);
  w.u8(kVersion);
  w.u8(static_cast<std::uint8_t>(kind));
  w.u16(static_cast<std::uint16_t>(count));
  w.u32(static_cast<std::uint32_t>(payload_bytes));
}

void encode_request(Writer& w, const Request& r) {
  w.u8(static_cast<std::uint8_t>(r.op));
  w.str(r.id);
  w.str(r.machine);
  w.str(r.model);
  w.i32(r.o);
  w.i32(r.v);
  w.i32(r.nodes);
  w.i32(r.tile);
  w.f64(r.max_node_hours);
  w.i32(r.deadline_ms);
  CCPRED_REQUIRE(r.wall_times.size() <= kMaxReportBatch,
                 "wire: wall-time batch exceeds " << kMaxReportBatch);
  w.u16(static_cast<std::uint16_t>(r.wall_times.size()));
  for (const double wall : r.wall_times) w.f64(wall);
}

Request decode_request(Reader& rd) {
  Request r;
  const std::uint8_t op = rd.u8();
  CCPRED_REQUIRE(op < kNumOps, "wire: invalid op byte "
                                   << static_cast<int>(op));
  r.op = static_cast<Op>(op);
  r.id = rd.str();
  r.machine = rd.str();
  r.model = rd.str();
  r.o = rd.i32();
  r.v = rd.i32();
  r.nodes = rd.i32();
  r.tile = rd.i32();
  r.max_node_hours = rd.f64();
  r.deadline_ms = rd.i32();
  const std::uint16_t walls = rd.u16();
  // Cap enforced before allocating: a hostile count cannot reserve memory.
  CCPRED_REQUIRE(walls <= kMaxReportBatch,
                 "wire: wall-time batch of " << walls << " exceeds "
                                             << kMaxReportBatch);
  r.wall_times.reserve(walls);
  for (std::uint16_t i = 0; i < walls; ++i) r.wall_times.push_back(rd.f64());
  validate_request(r);  // same semantic gate as the JSON parse boundary
  return r;
}

// Response flag bits.
constexpr std::uint8_t kFlagOk = 1u << 0;
constexpr std::uint8_t kFlagStale = 1u << 1;
constexpr std::uint8_t kFlagRecommendation = 1u << 2;
constexpr std::uint8_t kFlagJob = 1u << 3;
constexpr std::uint8_t kFlagReport = 1u << 4;
constexpr std::uint8_t kFlagStats = 1u << 5;
constexpr std::uint8_t kFlagCacheHit = 1u << 6;
constexpr std::uint8_t kFlagDrift = 1u << 7;

void encode_stats(Writer& w, const ServerStats& s) {
  for (const auto& c : kCounters) w.u64(s.*c.member);
  for (const LatencyHistogram::Snapshot& h : s.verb_latency) {
    w.counts(h.buckets);
    w.u64(h.sum_ns);
    w.u64(h.max_ns);
  }
  w.counts(s.batch_sizes);
  w.u8(s.online_enabled ? 1 : 0);
  if (!s.online_enabled) return;
  for (const auto& c : kOnlineCounters) w.u64(s.online.*c.member);
  w.f64(s.online.rolling_mape);
}

void decode_stats(Reader& rd, ServerStats* s) {
  for (const auto& c : kCounters) s->*c.member = rd.u64();
  for (LatencyHistogram::Snapshot& h : s->verb_latency) {
    h.buckets = rd.counts(LatencyHistogram::kBuckets);
    for (const std::uint64_t n : h.buckets) h.count += n;
    h.sum_ns = rd.u64();
    h.max_ns = rd.u64();
  }
  s->batch_sizes = rd.counts(kMaxHistogramEntries);
  s->online_enabled = rd.u8() != 0;
  if (!s->online_enabled) return;
  for (const auto& c : kOnlineCounters) s->online.*c.member = rd.u64();
  s->online.rolling_mape = rd.f64();
}

void encode_response(Writer& w, const Response& r) {
  std::uint8_t flags = 0;
  if (r.ok) flags |= kFlagOk;
  if (r.stale) flags |= kFlagStale;
  if (r.has_recommendation) flags |= kFlagRecommendation;
  if (r.has_job) flags |= kFlagJob;
  if (r.has_report) flags |= kFlagReport;
  if (r.has_stats) flags |= kFlagStats;
  if (r.cache_hit) flags |= kFlagCacheHit;
  if (r.drifting) flags |= kFlagDrift;
  w.u8(flags);
  w.str(r.op);
  w.str(r.id);
  w.str(r.error);
  w.str(r.code);
  if (r.has_recommendation) {
    w.i32(r.nodes);
    w.i32(r.tile);
    w.f64(r.time_s);
    w.f64(r.node_hours);
    w.u64(r.model_version);
    w.u64(r.sweep_size);
  }
  if (r.has_job) {
    w.i32(r.iterations);
    w.f64(r.setup_s);
    w.f64(r.iteration_s);
    w.f64(r.total_s);
    w.f64(r.node_hours);
  }
  if (r.has_report) {
    w.u64(r.accepted);
    w.u64(r.duplicates);
    w.u64(r.buffered);
    w.f64(r.rolling_mape);
    w.u8(r.refit_scheduled ? 1 : 0);
    w.u64(r.model_version);
  }
  if (r.has_stats) encode_stats(w, r.stats);
}

Response decode_response(Reader& rd) {
  Response r;
  const std::uint8_t flags = rd.u8();
  r.ok = (flags & kFlagOk) != 0;
  r.stale = (flags & kFlagStale) != 0;
  r.has_recommendation = (flags & kFlagRecommendation) != 0;
  r.has_job = (flags & kFlagJob) != 0;
  r.has_report = (flags & kFlagReport) != 0;
  r.has_stats = (flags & kFlagStats) != 0;
  r.cache_hit = (flags & kFlagCacheHit) != 0;
  r.drifting = (flags & kFlagDrift) != 0;
  r.op = rd.str();
  r.id = rd.str();
  r.error = rd.str();
  r.code = rd.str();
  if (r.has_recommendation) {
    r.nodes = rd.i32();
    r.tile = rd.i32();
    r.time_s = rd.f64();
    r.node_hours = rd.f64();
    r.model_version = rd.u64();
    r.sweep_size = static_cast<std::size_t>(rd.u64());
  }
  if (r.has_job) {
    r.iterations = rd.i32();
    r.setup_s = rd.f64();
    r.iteration_s = rd.f64();
    r.total_s = rd.f64();
    r.node_hours = rd.f64();
  }
  if (r.has_report) {
    r.accepted = static_cast<std::size_t>(rd.u64());
    r.duplicates = static_cast<std::size_t>(rd.u64());
    r.buffered = static_cast<std::size_t>(rd.u64());
    r.rolling_mape = rd.f64();
    r.refit_scheduled = rd.u8() != 0;
    r.model_version = rd.u64();
  }
  if (r.has_stats) decode_stats(rd, &r.stats);
  return r;
}

/// The frame around `count` records already encoded into `payload`.
std::string frame_of(FrameKind kind, std::size_t count,
                     const std::string& payload) {
  std::string frame;
  frame.reserve(kHeaderBytes + payload.size());
  Writer fw{frame};
  write_header(fw, kind, count, payload.size());
  frame.append(payload);
  return frame;
}

void check_kind(const FrameHeader& header, FrameKind want) {
  CCPRED_REQUIRE(header.kind == want,
                 "wire: expected a "
                     << (want == FrameKind::kRequest ? "request" : "response")
                     << " frame");
}

}  // namespace

bool starts_frame(unsigned char first) { return first == kMagic[0]; }

FrameStatus probe_frame(const unsigned char* data, std::size_t size,
                        FrameHeader* header, std::string* error) {
  const auto bad = [&](const std::string& why) {
    if (error != nullptr) *error = "wire: " + why;
    return FrameStatus::kBad;
  };
  for (std::size_t i = 0; i < size && i < 4; ++i) {
    if (data[i] != kMagic[i]) return bad("bad frame magic");
  }
  if (size >= 5 && data[4] != kVersion) {
    return bad("unsupported frame version " + std::to_string(data[4]));
  }
  if (size >= 6 && data[5] > static_cast<std::uint8_t>(FrameKind::kResponse)) {
    return bad("unknown frame kind " + std::to_string(data[5]));
  }
  if (size < kHeaderBytes) return FrameStatus::kNeedMore;

  FrameHeader h;
  h.version = data[4];
  h.kind = static_cast<FrameKind>(data[5]);
  h.count = static_cast<std::uint16_t>(data[6]) |
            static_cast<std::uint16_t>(data[7]) << 8;
  h.payload_bytes = static_cast<std::uint32_t>(data[8]) |
                    static_cast<std::uint32_t>(data[9]) << 8 |
                    static_cast<std::uint32_t>(data[10]) << 16 |
                    static_cast<std::uint32_t>(data[11]) << 24;
  if (h.count > kMaxFrameRecords) {
    return bad("frame declares " + std::to_string(h.count) + " records (cap " +
               std::to_string(kMaxFrameRecords) + ")");
  }
  if (h.payload_bytes > kMaxFramePayload) {
    return bad("frame declares a " + std::to_string(h.payload_bytes) +
               "-byte payload (cap " + std::to_string(kMaxFramePayload) + ")");
  }
  if (h.count > 0 && h.payload_bytes == 0) {
    return bad("frame declares records but no payload");
  }
  if (header != nullptr) *header = h;
  return FrameStatus::kHeader;
}

std::string encode_request_frame(const std::vector<Request>& batch) {
  std::string payload;
  Writer w{payload};
  for (const Request& r : batch) encode_request(w, r);
  return frame_of(FrameKind::kRequest, batch.size(), payload);
}

std::string encode_response_frame(const std::vector<Response>& responses) {
  std::string payload;
  Writer w{payload};
  for (const Response& r : responses) encode_response(w, r);
  if (payload.size() > kMaxFramePayload) {
    // Each too_large record is at most 32 bytes plus its id; the request
    // record that carried the id was at least 43 bytes plus it, so this
    // frame fits wherever the request frame did.
    payload.clear();
    for (const Response& r : responses) {
      encode_response(w, error_response("", r.op, r.id, "too_large"));
    }
  }
  return frame_of(FrameKind::kResponse, responses.size(), payload);
}

std::vector<Request> decode_request_frame(const FrameHeader& header,
                                          const unsigned char* payload) {
  check_kind(header, FrameKind::kRequest);
  Reader rd{payload, header.payload_bytes};
  std::vector<Request> out;
  out.reserve(header.count);
  for (std::uint16_t i = 0; i < header.count; ++i) {
    out.push_back(decode_request(rd));
  }
  CCPRED_REQUIRE(rd.pos == rd.size, "wire: " << rd.size - rd.pos
                                             << " trailing payload bytes");
  return out;
}

std::vector<Response> decode_response_frame(const FrameHeader& header,
                                            const unsigned char* payload) {
  check_kind(header, FrameKind::kResponse);
  Reader rd{payload, header.payload_bytes};
  std::vector<Response> out;
  out.reserve(header.count);
  for (std::uint16_t i = 0; i < header.count; ++i) {
    out.push_back(decode_response(rd));
  }
  CCPRED_REQUIRE(rd.pos == rd.size, "wire: " << rd.size - rd.pos
                                             << " trailing payload bytes");
  return out;
}

}  // namespace ccpred::serve::wire
