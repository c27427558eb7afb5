#pragma once

/// \file wire.hpp
/// The serving subsystem's binary batch protocol: length-prefixed frames
/// carrying N requests (and N responses back) per round trip, so a client
/// pays the syscall + dispatch overhead once per batch instead of once per
/// request. Line-JSON (protocol.hpp) stays the compatibility front end on
/// the same port: frame magic begins with byte 0xC3, which can never open
/// a JSON line, so a server can tell the two apart from the first byte of
/// every message and interleave them freely on one connection.
///
/// Frame layout (all integers little-endian):
///
///   offset  size  field
///   0       4     magic: C3 'C' 'P' 'B'
///   4       1     version (currently 3)
///   5       1     kind: 0 = request frame, 1 = response frame
///   6       2     count: records in this frame (u16)
///   8       4     payload length in bytes (u32, <= kMaxFramePayload)
///   12      ...   payload: `count` consecutive records
///
/// Records encode every protocol field natively (strings as u32 length +
/// bytes, doubles as IEEE-754 bit patterns), so decode(encode(x)) == x
/// exactly and a decoded response renders via format_response() into the
/// byte-identical JSON line the server would have sent for the same
/// request — the bit-identity gate in bench_serve_fleet leans on this.
///
/// A stats record (version 3) carries the snapshot's state, never a
/// quantile (see stats.hpp): every kCounters value as a u64 in list order;
/// then, per verb in Op order, the latency histogram and its u64 sum and
/// u64 max in nanoseconds; then the dispatch-size histogram; then a u8
/// online flag and, when set, every kOnlineCounters value as a u64 and
/// `rolling_mape` as an f64. A histogram is a u16 count of its nonzero
/// entries followed by that many (u16 index, u64 count) pairs in rising
/// index order; decode rejects an index out of order or out of range
/// (latency buckets stop at 64) and a zero count. kVersion changes
/// whenever a record's layout does (adding or removing a counter does),
/// so probe_frame() turns away a peer built from other source at its
/// first header instead of misreading its records.
///
/// A response frame whose payload would exceed kMaxFramePayload — 1,024
/// stats records with long ids can — is answered instead with one
/// ok=false record per request carrying its op, its id and
/// code="too_large", and no message. Such a record is smaller than the
/// request record it answers, so the fallback always fits, and it keeps
/// the record count, so a client never mistakes it for a broken peer.
///
/// Robustness contract (fuzzed in protocol_fuzz_test): probe_frame() never
/// reads past `size`, rejects oversized declared lengths from the header
/// alone (before any payload is buffered), and decode_*() throws only
/// ccpred::Error on malformed payloads.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "ccpred/serve/protocol.hpp"

namespace ccpred::serve::wire {

inline constexpr unsigned char kMagic[4] = {0xC3, 'C', 'P', 'B'};
inline constexpr std::uint8_t kVersion = 3;
inline constexpr std::size_t kHeaderBytes = 12;
/// Hard cap on one frame's payload; a header declaring more is rejected
/// before any buffering.
inline constexpr std::size_t kMaxFramePayload = 1u << 20;
/// Hard cap on records per frame.
inline constexpr std::size_t kMaxFrameRecords = 1024;
/// Hard cap on one encoded string field.
inline constexpr std::size_t kMaxStringBytes = 1u << 16;
/// Entries a histogram may carry: its indices are u16.
inline constexpr std::size_t kMaxHistogramEntries = 1u << 16;

enum class FrameKind : std::uint8_t { kRequest = 0, kResponse = 1 };

struct FrameHeader {
  std::uint8_t version = kVersion;
  FrameKind kind = FrameKind::kRequest;
  std::uint16_t count = 0;
  std::uint32_t payload_bytes = 0;
};

/// True when `first` can only open a binary frame (it is the first magic
/// byte, which is never valid at the start of a JSON line).
bool starts_frame(unsigned char first);

enum class FrameStatus {
  kNeedMore,  ///< valid prefix so far; read more bytes
  kHeader,    ///< full, valid header parsed into *header
  kBad,       ///< malformed header; *error says why (fatal for the stream)
};

/// Incremental header inspection over whatever has been buffered so far.
/// Never reads past `size`. kHeader only validates the 12 header bytes;
/// the caller still waits for `header->payload_bytes` more bytes before
/// decoding.
FrameStatus probe_frame(const unsigned char* data, std::size_t size,
                        FrameHeader* header, std::string* error);

/// Encodes a complete frame (header + payload). A response frame over the
/// payload cap is answered code="too_large" record by record (see above).
std::string encode_request_frame(const std::vector<Request>& requests);
std::string encode_response_frame(const std::vector<Response>& responses);

/// Decodes the payload of a frame whose header probe_frame() accepted.
/// `payload` must hold exactly `header.payload_bytes` bytes. Throws
/// ccpred::Error on any malformation (wrong kind, truncated record,
/// trailing bytes, oversized string, invalid op, bad wall-time batch).
std::vector<Request> decode_request_frame(const FrameHeader& header,
                                          const unsigned char* payload);
std::vector<Response> decode_response_frame(const FrameHeader& header,
                                            const unsigned char* payload);

}  // namespace ccpred::serve::wire
