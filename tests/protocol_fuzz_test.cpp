// Fuzz-style property tests for the line-JSON protocol boundary. The
// serving daemon feeds every network line through parse_request, so the
// parser must never crash, never throw anything but ccpred::Error, and the
// error path must always produce a well-formed ok=false response line.
// All inputs are generated from a seeded Rng: a failure reproduces
// bit-for-bit from the seed printed in the assertion message.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "ccpred/common/error.hpp"
#include "ccpred/common/latency_histogram.hpp"
#include "ccpred/common/rng.hpp"
#include "ccpred/serve/protocol.hpp"
#include "ccpred/serve/wire.hpp"

namespace ccpred::serve {
namespace {

/// Feeds one line through the parse boundary the way the daemon does.
/// Returns true if it parsed; throws only ccpred::Error by contract.
bool survives_boundary(const std::string& line) {
  try {
    (void)parse_request(line);
    return true;
  } catch (const Error&) {
    // The daemon's error path: the message must format into a response
    // line that parses back as a flat record with ok=false.
    const Response err = error_response("rejected: fuzz input");
    const auto rec = parse_record(format_response(err));
    EXPECT_EQ(rec.at("ok"), "false");
    return false;
  }
  // Anything else (std::bad_alloc aside) escapes and fails the test.
}

std::string random_bytes(Rng& rng, std::size_t max_len) {
  const std::size_t len =
      static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(max_len)));
  std::string s(len, '\0');
  for (char& c : s) {
    // Full byte range except '\n' (the daemon splits on newlines before
    // parsing, so a line never contains one).
    c = static_cast<char>(rng.uniform_int(0, 255));
    if (c == '\n') c = ' ';
  }
  return s;
}

std::string valid_request_line(Rng& rng) {
  switch (rng.uniform_int(0, 6)) {
    case 0: return R"({"op":"stq","o":134,"v":951})";
    case 1: return R"({"op":"bq","o":85,"v":698,"machine":"aurora"})";
    case 2: return R"({"op":"budget","o":44,"v":260,"max_node_hours":3.5})";
    case 3: return R"({"op":"job","o":99,"v":718,"nodes":64,"tile":80})";
    case 4:
      return R"({"op":"report","o":99,"v":718,"nodes":64,"tile":80,)"
             R"("wall_time_s":123.4})";
    case 5:
      return R"({"op":"report","o":44,"v":260,"nodes":16,"tile":60,)"
             R"("wall_times":"1.5,2.25,3"})";
    default: return R"({"op":"stats","id":"fz","deadline_ms":250})";
  }
}

TEST(ProtocolFuzzTest, RandomBytesNeverEscapeTheBoundary) {
  Rng rng(20250805);
  for (int i = 0; i < 4000; ++i) {
    const std::string line = random_bytes(rng, 160);
    SCOPED_TRACE("iteration " + std::to_string(i));
    (void)survives_boundary(line);  // any ccpred::Error is acceptable
  }
}

TEST(ProtocolFuzzTest, TruncationsOfValidLinesNeverEscape) {
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const std::string line = valid_request_line(rng);
    for (std::size_t cut = 0; cut <= line.size(); ++cut) {
      std::string trace = "iteration ";
      trace += std::to_string(i);
      trace += " cut ";
      trace += std::to_string(cut);
      SCOPED_TRACE(trace);
      const bool parsed = survives_boundary(line.substr(0, cut));
      if (cut == line.size()) {
        EXPECT_TRUE(parsed);
      }
    }
  }
}

TEST(ProtocolFuzzTest, MutatedValidLinesNeverEscape) {
  Rng rng(42);
  for (int i = 0; i < 4000; ++i) {
    std::string line = valid_request_line(rng);
    const int edits = static_cast<int>(rng.uniform_int(1, 4));
    for (int e = 0; e < edits; ++e) {
      if (line.empty()) line.push_back('{');
      const std::size_t pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(line.size()) - 1));
      switch (rng.uniform_int(0, 2)) {
        case 0:  // overwrite with a random byte
          line[pos] = static_cast<char>(rng.uniform_int(1, 255));
          if (line[pos] == '\n') line[pos] = '{';
          break;
        case 1:  // delete one byte
          line.erase(pos, 1);
          break;
        default:  // duplicate one byte
          line.insert(pos, 1, line[pos]);
      }
    }
    if (line.empty()) line.push_back('{');
    std::string trace = "iteration ";
    trace += std::to_string(i);
    trace += " line ";
    trace += line;
    SCOPED_TRACE(trace);
    (void)survives_boundary(line);
  }
}

TEST(ProtocolFuzzTest, OversizedFieldsAreRejectedNotFatal) {
  // Huge numbers must come back as Error (from_chars out-of-range), not
  // wrap, crash, or parse to garbage.
  EXPECT_THROW(parse_request(R"({"op":"stq","o":999999999999999999999,"v":2})"),
               Error);
  EXPECT_THROW(parse_request(R"({"op":"stq","o":1,"v":2,"deadline_ms":1e99})"),
               Error);
  EXPECT_THROW(
      parse_request(
          R"({"op":"budget","o":1,"v":2,"max_node_hours":1e999999})"),
      Error);
  const std::string long_digits(5000, '7');
  EXPECT_THROW(
      parse_request(R"({"op":"stq","o":)" + long_digits + R"(,"v":2})"),
      Error);

  // Oversized string fields are carried through, not truncated or fatal:
  // unknown machines fail later, at the registry, with a clean Error.
  const std::string big_id(1 << 16, 'x');
  const auto req =
      parse_request(R"({"op":"stq","o":1,"v":2,"id":")" + big_id + R"("})");
  EXPECT_EQ(req.id.size(), big_id.size());

  // Nesting is explicitly unsupported and must throw, not recurse.
  std::string nested = R"({"a":)";
  for (int i = 0; i < 2000; ++i) nested += '{';
  EXPECT_THROW(parse_record(nested), Error);
}

TEST(ProtocolFuzzTest, ReportWallTimesNeverEscapeTheBoundary) {
  // Happy paths first: single measurement and a comma-separated batch.
  const auto single = parse_request(
      R"({"op":"report","o":99,"v":718,"nodes":64,"tile":80,)"
      R"("wall_time_s":123.4})");
  ASSERT_EQ(single.wall_times.size(), 1u);
  EXPECT_DOUBLE_EQ(single.wall_times[0], 123.4);
  const auto batch = parse_request(
      R"({"op":"report","o":99,"v":718,"nodes":64,"tile":80,)"
      R"("wall_times":"1.5,2.25,3"})");
  ASSERT_EQ(batch.wall_times.size(), 3u);
  EXPECT_DOUBLE_EQ(batch.wall_times[1], 2.25);

  // std::from_chars happily parses "nan" and "inf" — the boundary must
  // reject them (and every other non-finite / non-positive value) with a
  // clean Error, never letting them reach the learner.
  const auto with_wall = [](const std::string& value) {
    return R"({"op":"report","o":99,"v":718,"nodes":64,"tile":80,)"
           R"("wall_time_s":)" +
           value + "}";
  };
  for (const char* bad :
       {"nan", "inf", "-inf", "NaN", "Infinity", "-1.5", "0", "0.0", "1e999",
        "\"nan\"", "\"\"", "1.2.3", "true"}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW((void)parse_request(with_wall(bad)), Error);
  }

  // Batch entries are validated individually; empty entries are malformed.
  const auto with_batch = [](const std::string& list) {
    return R"({"op":"report","o":99,"v":718,"nodes":64,"tile":80,)"
           R"("wall_times":")" +
           list + R"("})";
  };
  for (const char* bad : {"1.0,nan,2.0", "1.0,inf", "1.0,,2.0", ",1.0",
                          "1.0,", "", "1.0,-2.0"}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW((void)parse_request(with_batch(bad)), Error);
  }

  // Oversized batches are rejected at the boundary, not buffered.
  std::string big;
  for (int i = 0; i < 65; ++i) big += (i ? ",1.5" : "1.5");
  EXPECT_THROW((void)parse_request(with_batch(big)), Error);
  std::string at_cap;
  for (int i = 0; i < 64; ++i) at_cap += (i ? ",1.5" : "1.5");
  EXPECT_EQ(parse_request(with_batch(at_cap)).wall_times.size(), 64u);

  // Exactly one measurement field, and positive dimensions.
  EXPECT_THROW(
      (void)parse_request(
          R"({"op":"report","o":9,"v":7,"nodes":6,"tile":8,)"
          R"("wall_time_s":1.0,"wall_times":"2.0"})"),
      Error);
  EXPECT_THROW((void)parse_request(
                   R"({"op":"report","o":9,"v":7,"nodes":6,"tile":8})"),
               Error);
  EXPECT_THROW(
      (void)parse_request(
          R"({"op":"report","o":0,"v":7,"nodes":6,"tile":8,"wall_time_s":1})"),
      Error);
  EXPECT_THROW(
      (void)parse_request(
          R"({"op":"report","o":9,"v":7,"nodes":-4,"tile":8,"wall_time_s":1})"),
      Error);
}

/// Text over the protocol's representable alphabet: printable ASCII,
/// high bytes, and the escapes parse_string round-trips (", \, \n, \t).
/// Control bytes below 0x20 format as \uXXXX, which the flat parser
/// rejects by design — they never appear in responses the server builds.
std::string random_text(Rng& rng, std::size_t max_len) {
  static const std::string palette =
      "abz\"\\{}:,\n\t 0129.-\x7f\xc3\xa9";
  const std::size_t len =
      static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(max_len)));
  std::string s(len, '\0');
  for (char& c : s) {
    c = palette[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(palette.size()) - 1))];
  }
  return s;
}

TEST(ProtocolFuzzTest, ErrorResponsesAlwaysRoundTrip) {
  Rng rng(1234);
  for (int i = 0; i < 1000; ++i) {
    // Error messages frequently embed hostile input; the formatter must
    // escape whatever ends up in them.
    const Response err = error_response(random_text(rng, 80),
                                        /*op=*/"stq", random_text(rng, 12),
                                        /*code=*/"bad_request");
    SCOPED_TRACE("iteration " + std::to_string(i));
    const auto rec = parse_record(format_response(err));
    EXPECT_EQ(rec.at("ok"), "false");
    EXPECT_EQ(rec.at("code"), "bad_request");
    EXPECT_EQ(rec.at("error"), err.error);
  }
}

// --------------------------------------------------------------- binary wire
//
// Same contract as the JSON boundary, for wire.hpp: probe_frame never reads
// past the buffered bytes, rejects oversized declared lengths from the
// header alone, and decode_*() throws only ccpred::Error on malformed
// payloads. All inputs derive from a seeded Rng.

/// A random *valid* request (decode re-validates, so the round-trip
/// property needs inputs that pass validate_request).
Request random_wire_request(Rng& rng) {
  Request r;
  r.o = static_cast<int>(rng.uniform_int(1, 200));
  r.v = static_cast<int>(rng.uniform_int(1, 999));
  r.id = random_text(rng, 12);
  r.machine = (rng.uniform_int(0, 1) != 0) ? "aurora" : "";
  r.model = (rng.uniform_int(0, 1) != 0) ? "gb" : "";
  r.deadline_ms = static_cast<int>(rng.uniform_int(0, 500));
  switch (rng.uniform_int(0, 5)) {
    case 0: r.op = Op::kStq; break;
    case 1: r.op = Op::kBq; break;
    case 2:
      r.op = Op::kBudget;
      r.max_node_hours = rng.uniform(0.5, 50.0);
      break;
    case 3:
      r.op = Op::kJob;
      r.nodes = static_cast<int>(rng.uniform_int(1, 256));
      r.tile = static_cast<int>(rng.uniform_int(10, 120));
      break;
    case 4:
      r.op = Op::kReport;
      r.nodes = static_cast<int>(rng.uniform_int(1, 256));
      r.tile = static_cast<int>(rng.uniform_int(10, 120));
      for (int k = rng.uniform_int(1, 8); k > 0; --k) {
        r.wall_times.push_back(rng.uniform(0.1, 5000.0));
      }
      break;
    default:
      r.op = Op::kStats;
      break;
  }
  return r;
}

Response random_wire_response(Rng& rng) {
  Response r;
  r.ok = rng.uniform_int(0, 3) != 0;
  r.op = op_name(static_cast<Op>(rng.uniform_int(0, 5)));
  r.id = random_text(rng, 10);
  if (!r.ok) {
    r.error = random_text(rng, 40);
    r.code = (rng.uniform_int(0, 1) != 0) ? "internal" : "bad_request";
  }
  r.stale = rng.uniform_int(0, 7) == 0;
  if (rng.uniform_int(0, 1) != 0) {
    r.has_recommendation = true;
    r.nodes = static_cast<int>(rng.uniform_int(1, 256));
    r.tile = static_cast<int>(rng.uniform_int(10, 120));
    r.time_s = rng.uniform(1.0, 1e5);
    r.node_hours = rng.uniform(0.01, 1e3);
    r.model_version = static_cast<std::uint64_t>(rng.uniform_int(1, 9));
    r.sweep_size = static_cast<std::size_t>(rng.uniform_int(0, 500));
    r.cache_hit = rng.uniform_int(0, 1) != 0;
  }
  if (rng.uniform_int(0, 2) == 0) {
    r.has_job = true;
    r.iterations = static_cast<int>(rng.uniform_int(1, 40));
    r.setup_s = rng.uniform(0.0, 100.0);
    r.iteration_s = rng.uniform(0.1, 1000.0);
    r.total_s = rng.uniform(1.0, 1e5);
  }
  if (rng.uniform_int(0, 3) == 0) {
    r.has_report = true;
    r.accepted = static_cast<std::size_t>(rng.uniform_int(0, 64));
    r.duplicates = static_cast<std::size_t>(rng.uniform_int(0, 8));
    r.buffered = static_cast<std::size_t>(rng.uniform_int(0, 4096));
    r.rolling_mape = rng.uniform(0.0, 2.0);
    r.drifting = rng.uniform_int(0, 1) != 0;
    r.refit_scheduled = rng.uniform_int(0, 1) != 0;
  }
  if (rng.uniform_int(0, 4) == 0) {
    r.has_stats = true;
    r.stats.requests = static_cast<std::uint64_t>(rng.uniform_int(0, 100000));
    r.stats.errors = static_cast<std::uint64_t>(rng.uniform_int(0, 500));
    r.stats.cache_hits = static_cast<std::uint64_t>(rng.uniform_int(0, 9999));
    r.stats.cache_misses = static_cast<std::uint64_t>(rng.uniform_int(0, 99));
    // Latency histograms: empty, sparse, or spread over every bucket
    // (samples from 0.1 µs to 10^6 s land below and above the range too).
    for (LatencyHistogram::Snapshot& verb : r.stats.verb_latency) {
      LatencyHistogram h;
      const int samples =
          rng.uniform_int(0, 2) == 0 ? 0
                                     : static_cast<int>(rng.uniform_int(1, 300));
      for (int k = 0; k < samples; ++k) {
        h.record_n(std::exp(rng.uniform(std::log(1e-7), std::log(1e6))),
                   static_cast<std::uint64_t>(rng.uniform_int(1, 3)));
      }
      verb = h.snapshot();
    }
    r.stats.batched_requests =
        static_cast<std::uint64_t>(rng.uniform_int(0, 5000));
    r.stats.batch_flushes = static_cast<std::uint64_t>(rng.uniform_int(0, 999));
    r.stats.batch_bypass = static_cast<std::uint64_t>(rng.uniform_int(0, 999));
    // Dispatch sizes: none, or a few counts at random sizes up to 4,096.
    const auto max_size = rng.uniform_int(0, 4096);
    for (int k = static_cast<int>(rng.uniform_int(0, 40)); k > 0 && max_size > 0;
         --k) {
      const auto size = static_cast<std::size_t>(rng.uniform_int(1, max_size));
      if (r.stats.batch_sizes.size() <= size) {
        r.stats.batch_sizes.resize(size + 1);
      }
      r.stats.batch_sizes[size] +=
          static_cast<std::uint64_t>(rng.uniform_int(1, 1000));
    }
    r.stats.overflow_closed = static_cast<std::uint64_t>(rng.uniform_int(0, 9));
    r.stats.online_enabled = rng.uniform_int(0, 1) != 0;
    r.stats.online.reports = static_cast<std::uint64_t>(rng.uniform_int(0, 99));
    r.stats.online.rolling_mape = rng.uniform(0.0, 3.0);
  }
  return r;
}

const unsigned char* bytes_of(const std::string& s) {
  return reinterpret_cast<const unsigned char*>(s.data());
}

void expect_request_eq(const Request& a, const Request& b, int i) {
  EXPECT_EQ(static_cast<int>(a.op), static_cast<int>(b.op)) << i;
  EXPECT_EQ(a.id, b.id) << i;
  EXPECT_EQ(a.machine, b.machine) << i;
  EXPECT_EQ(a.model, b.model) << i;
  EXPECT_EQ(a.o, b.o) << i;
  EXPECT_EQ(a.v, b.v) << i;
  EXPECT_EQ(a.nodes, b.nodes) << i;
  EXPECT_EQ(a.tile, b.tile) << i;
  EXPECT_EQ(a.max_node_hours, b.max_node_hours) << i;  // bit-exact
  EXPECT_EQ(a.deadline_ms, b.deadline_ms) << i;
  EXPECT_EQ(a.wall_times, b.wall_times) << i;
}

TEST(WireFuzzTest, RequestFramesRoundTripExactly) {
  Rng rng(20250809);
  for (int i = 0; i < 300; ++i) {
    std::vector<Request> batch;
    for (int k = rng.uniform_int(1, 16); k > 0; --k) {
      batch.push_back(random_wire_request(rng));
    }
    const std::string frame = wire::encode_request_frame(batch);
    wire::FrameHeader header;
    std::string error;
    ASSERT_EQ(wire::probe_frame(bytes_of(frame), frame.size(), &header, &error),
              wire::FrameStatus::kHeader)
        << error;
    ASSERT_EQ(frame.size(), wire::kHeaderBytes + header.payload_bytes);
    const auto decoded =
        wire::decode_request_frame(header, bytes_of(frame) + wire::kHeaderBytes);
    ASSERT_EQ(decoded.size(), batch.size());
    for (std::size_t k = 0; k < batch.size(); ++k) {
      SCOPED_TRACE("iteration " + std::to_string(i));
      expect_request_eq(batch[k], decoded[k], static_cast<int>(k));
    }
  }
}

TEST(WireFuzzTest, ResponseFramesRoundTripToIdenticalJson) {
  // The bench's bit-identity gate compares format_response() of a decoded
  // binary answer against the JSON the server would have sent — so the
  // round trip must preserve every field the formatter renders.
  Rng rng(777);
  for (int i = 0; i < 300; ++i) {
    std::vector<Response> batch;
    for (int k = rng.uniform_int(1, 8); k > 0; --k) {
      batch.push_back(random_wire_response(rng));
    }
    const std::string frame = wire::encode_response_frame(batch);
    wire::FrameHeader header;
    std::string error;
    ASSERT_EQ(wire::probe_frame(bytes_of(frame), frame.size(), &header, &error),
              wire::FrameStatus::kHeader)
        << error;
    const auto decoded = wire::decode_response_frame(
        header, bytes_of(frame) + wire::kHeaderBytes);
    ASSERT_EQ(decoded.size(), batch.size());
    for (std::size_t k = 0; k < batch.size(); ++k) {
      SCOPED_TRACE("iteration " + std::to_string(i) + " record " +
                   std::to_string(k));
      EXPECT_EQ(format_response(decoded[k]), format_response(batch[k]));
    }
  }
}

TEST(WireFuzzTest, HistogramIndicesOutOfOrderOrRangeAreRejected) {
  Response r;
  r.ok = true;
  r.op = "stats";
  r.has_stats = true;
  LatencyHistogram h;
  h.record(2e-6);  // bucket 1
  h.record(1e-3);  // bucket 17
  r.stats.verb_latency[0] = h.snapshot();
  const std::string frame = wire::encode_response_frame({r});
  const auto decode = [](const std::string& bytes) {
    wire::FrameHeader header;
    std::string error;
    EXPECT_EQ(wire::probe_frame(bytes_of(bytes), bytes.size(), &header, &error),
              wire::FrameStatus::kHeader);
    return wire::decode_response_frame(header,
                                       bytes_of(bytes) + wire::kHeaderBytes);
  };
  ASSERT_EQ(decode(frame).front().stats, r.stats);

  // The first verb's histogram follows the flags byte, the four strings
  // (op "stats", empty id, error and code) and the counters: a u16 entry
  // count, then (u16 index, u64 count) pairs.
  const std::size_t at = wire::kHeaderBytes + 1 + (4 + 5) + 3 * 4 +
                         std::size(kCounters) * sizeof(std::uint64_t);
  ASSERT_EQ(frame[at], 2);
  ASSERT_EQ(frame[at + 2], 1);
  ASSERT_EQ(frame[at + 12], 17);

  std::string swapped = frame;  // indices 17, 1: out of order
  std::swap(swapped[at + 2], swapped[at + 12]);
  EXPECT_THROW(decode(swapped), Error);
  std::string repeated = frame;  // indices 1, 1: out of order
  repeated[at + 12] = 1;
  EXPECT_THROW(decode(repeated), Error);
  std::string past_end = frame;  // index 64: no such latency bucket
  past_end[at + 12] = 64;
  EXPECT_THROW(decode(past_end), Error);
}

TEST(WireFuzzTest, TruncatedPrefixesAskForMoreNeverCrash) {
  Rng rng(99);
  for (int i = 0; i < 40; ++i) {
    const std::string frame =
        wire::encode_request_frame({random_wire_request(rng)});
    for (std::size_t cut = 0; cut < frame.size(); ++cut) {
      SCOPED_TRACE("iteration " + std::to_string(i) + " cut " +
                   std::to_string(cut));
      wire::FrameHeader header;
      std::string error;
      const auto status =
          wire::probe_frame(bytes_of(frame), cut, &header, &error);
      // A prefix of a valid frame is never malformed: either the header is
      // incomplete (kNeedMore) or complete and valid (kHeader).
      if (cut < wire::kHeaderBytes) {
        EXPECT_EQ(status, wire::FrameStatus::kNeedMore) << error;
      } else {
        EXPECT_EQ(status, wire::FrameStatus::kHeader) << error;
      }
    }
  }
}

TEST(WireFuzzTest, OversizedDeclaredLengthsRejectedFromHeaderAlone) {
  const auto header_with = [](std::uint16_t count, std::uint32_t payload) {
    std::string h(wire::kHeaderBytes, '\0');
    h[0] = static_cast<char>(0xC3);
    h[1] = 'C';
    h[2] = 'P';
    h[3] = 'B';
    h[4] = static_cast<char>(wire::kVersion);
    h[5] = 0;  // request
    h[6] = static_cast<char>(count & 0xff);
    h[7] = static_cast<char>(count >> 8);
    h[8] = static_cast<char>(payload & 0xff);
    h[9] = static_cast<char>((payload >> 8) & 0xff);
    h[10] = static_cast<char>((payload >> 16) & 0xff);
    h[11] = static_cast<char>((payload >> 24) & 0xff);
    return h;
  };
  wire::FrameHeader header;
  std::string error;

  // A payload over the cap is rejected with ONLY the 12 header bytes
  // buffered — no attacker can make the server allocate it.
  const std::string huge = header_with(1, wire::kMaxFramePayload + 1);
  EXPECT_EQ(wire::probe_frame(bytes_of(huge), huge.size(), &header, &error),
            wire::FrameStatus::kBad);
  EXPECT_FALSE(error.empty());

  const std::string too_many = header_with(wire::kMaxFrameRecords + 1, 64);
  EXPECT_EQ(
      wire::probe_frame(bytes_of(too_many), too_many.size(), &header, &error),
      wire::FrameStatus::kBad);

  // count > 0 with an empty payload cannot encode any record.
  const std::string empty_payload = header_with(3, 0);
  EXPECT_EQ(wire::probe_frame(bytes_of(empty_payload), empty_payload.size(),
                              &header, &error),
            wire::FrameStatus::kBad);

  // Wrong magic / version / kind are all header-only rejections too.
  std::string bad = header_with(1, 64);
  bad[2] = 'X';
  EXPECT_EQ(wire::probe_frame(bytes_of(bad), bad.size(), &header, &error),
            wire::FrameStatus::kBad);
  bad = header_with(1, 64);
  bad[4] = 9;  // unknown version
  EXPECT_EQ(wire::probe_frame(bytes_of(bad), bad.size(), &header, &error),
            wire::FrameStatus::kBad);
  bad = header_with(1, 64);
  bad[5] = 7;  // unknown kind
  EXPECT_EQ(wire::probe_frame(bytes_of(bad), bad.size(), &header, &error),
            wire::FrameStatus::kBad);
}

TEST(WireFuzzTest, VersionTwoHeaderIsUnsupported) {
  // Version 2 stats records carried one more online counter; a peer built
  // from that source must be turned away at the header, not misread.
  std::string frame = wire::encode_request_frame({Request{}});
  ASSERT_EQ(frame[4], 3);
  frame[4] = 2;
  wire::FrameHeader header;
  std::string error;
  EXPECT_EQ(wire::probe_frame(bytes_of(frame), frame.size(), &header, &error),
            wire::FrameStatus::kBad);
  EXPECT_NE(error.find("unsupported frame version 2"), std::string::npos)
      << error;
}

TEST(WireFuzzTest, FirstByteDisambiguatesFromJsonExactly) {
  for (int b = 0; b < 256; ++b) {
    EXPECT_EQ(wire::starts_frame(static_cast<unsigned char>(b)), b == 0xC3);
  }
}

TEST(WireFuzzTest, MutatedPayloadsThrowOnlyError) {
  Rng rng(4242);
  int decoded_ok = 0;
  for (int i = 0; i < 2000; ++i) {
    std::vector<Request> batch;
    for (int k = rng.uniform_int(1, 4); k > 0; --k) {
      batch.push_back(random_wire_request(rng));
    }
    std::string frame = wire::encode_request_frame(batch);
    // Corrupt payload bytes only: the header stays valid, so the decoder
    // sees the full declared payload, exactly like the event loop does.
    const int edits = static_cast<int>(rng.uniform_int(1, 6));
    for (int e = 0; e < edits && frame.size() > wire::kHeaderBytes; ++e) {
      const std::size_t pos = wire::kHeaderBytes +
                              static_cast<std::size_t>(rng.uniform_int(
                                  0, static_cast<int>(frame.size() -
                                                      wire::kHeaderBytes - 1)));
      frame[pos] = static_cast<char>(rng.uniform_int(0, 255));
    }
    wire::FrameHeader header;
    std::string error;
    ASSERT_EQ(wire::probe_frame(bytes_of(frame), frame.size(), &header, &error),
              wire::FrameStatus::kHeader);
    SCOPED_TRACE("iteration " + std::to_string(i));
    try {
      const auto reqs = wire::decode_request_frame(
          header, bytes_of(frame) + wire::kHeaderBytes);
      ++decoded_ok;  // mutation landed in a don't-care byte — fine
      EXPECT_EQ(reqs.size(), batch.size());
    } catch (const Error&) {
      // the only exception the decoder may throw
    }
  }
  // Sanity: the fuzz actually exercised both outcomes.
  EXPECT_GT(decoded_ok, 0);
  EXPECT_LT(decoded_ok, 2000);
}

TEST(WireFuzzTest, RandomBlobsNeverEscapeTheDecoder) {
  Rng rng(31337);
  for (int i = 0; i < 4000; ++i) {
    std::string blob = random_bytes(rng, 200);
    if (rng.uniform_int(0, 1) != 0 && !blob.empty()) {
      blob[0] = static_cast<char>(0xC3);  // force the binary branch often
    }
    wire::FrameHeader header;
    std::string error;
    const auto status =
        wire::probe_frame(bytes_of(blob), blob.size(), &header, &error);
    if (status != wire::FrameStatus::kHeader) continue;
    if (blob.size() < wire::kHeaderBytes + header.payload_bytes) continue;
    SCOPED_TRACE("iteration " + std::to_string(i));
    try {
      (void)wire::decode_request_frame(header,
                                       bytes_of(blob) + wire::kHeaderBytes);
    } catch (const Error&) {
      // only ccpred::Error may escape
    }
  }
}

}  // namespace
}  // namespace ccpred::serve
