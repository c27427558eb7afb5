// Tests for the epoll EventLoopServer end to end over real sockets:
// response ordering, JSON/binary interleaving on one connection, garbage
// and invalid input, oversized declared lengths, mid-frame disconnects and
// over-cap response frames.

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ccpred/serve/event_loop.hpp"
#include "ccpred/serve/model_registry.hpp"
#include "ccpred/serve/server.hpp"
#include "ccpred/serve/wire.hpp"

namespace ccpred::serve {
namespace {

namespace fs = std::filesystem;

std::string scratch_dir(const std::string& name) {
  const fs::path dir =
      fs::temp_directory_path() / ("ccpred_event_loop_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

struct TestClient {
  explicit TestClient(int port) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
              0);
  }
  ~TestClient() { close(); }

  void close() {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }

  void send(const std::string& bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n =
          ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      sent += static_cast<std::size_t>(n);
    }
  }

  /// Blocking buffered read of one '\n'-terminated line (without the \n).
  /// Returns empty on EOF.
  std::string read_line() {
    while (true) {
      const std::size_t nl = buf.find('\n');
      if (nl != std::string::npos) {
        const std::string line = buf.substr(0, nl);
        buf.erase(0, nl + 1);
        return line;
      }
      if (!fill()) return "";
    }
  }

  /// Blocking read of one full binary response frame.
  std::vector<Response> read_frame() {
    wire::FrameHeader header;
    while (true) {
      std::string error;
      const auto status = wire::probe_frame(
          reinterpret_cast<const unsigned char*>(buf.data()), buf.size(),
          &header, &error);
      EXPECT_NE(status, wire::FrameStatus::kBad) << error;
      if (status == wire::FrameStatus::kHeader &&
          buf.size() >= wire::kHeaderBytes + header.payload_bytes) {
        const auto out = wire::decode_response_frame(
            header, reinterpret_cast<const unsigned char*>(buf.data()) +
                        wire::kHeaderBytes);
        buf.erase(0, wire::kHeaderBytes + header.payload_bytes);
        return out;
      }
      if (!fill()) return {};
    }
  }

  bool at_eof() { return buf.empty() && !fill(); }

  int fd = -1;
  std::string buf;

 private:
  bool fill() {
    char chunk[4096];
    while (true) {
      const ssize_t n = ::read(fd, chunk, sizeof chunk);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      buf.append(chunk, static_cast<std::size_t>(n));
      return true;
    }
  }
};

/// Synchronous echo dispatch: answers ok with the request's op/id, plus
/// nodes = o so tests can see the payload round-trip.
EventLoopServer::Dispatch echo_dispatch() {
  return [](Request req, EventLoopServer::Completion done) {
    Response r;
    r.ok = true;
    r.op = op_name(req.op);
    r.id = req.id;
    r.has_recommendation = true;
    r.nodes = req.o;
    done(std::move(r));
  };
}

EventLoopServer::BatchDispatch echo_batch_dispatch() {
  return [](std::vector<Request> batch,
            EventLoopServer::BatchCompletion done) {
    std::vector<Response> out;
    out.reserve(batch.size());
    for (const Request& req : batch) {
      Response r;
      r.ok = true;
      r.op = op_name(req.op);
      r.id = req.id;
      r.has_recommendation = true;
      r.nodes = req.o;
      out.push_back(std::move(r));
    }
    done(std::move(out));
  };
}

std::string stq_line(int i) {
  return R"({"op":"stq","o":)" + std::to_string(i + 1) + R"(,"v":2,"id":"q)" +
         std::to_string(i) + R"("})" + "\n";
}

/// The id stq_line(i) carries.
std::string stq_id(int i) {
  std::string id = "q";
  id += std::to_string(i);
  return id;
}

TEST(EventLoopServerTest, BindsAnEphemeralPort) {
  EventLoopServer server(echo_dispatch());
  EXPECT_GT(server.port(), 0);
}

TEST(EventLoopServerTest, ResponsesKeepRequestOrderAcrossReversedCompletions) {
  // The dispatch parks every completion and fires them in REVERSE once all
  // eight arrived — the loop must still deliver responses in request order.
  constexpr int kN = 8;
  std::mutex m;
  std::vector<std::pair<Request, EventLoopServer::Completion>> parked;
  std::thread completer;
  auto dispatch = [&](Request req, EventLoopServer::Completion done) {
    std::lock_guard<std::mutex> lock(m);
    parked.emplace_back(std::move(req), std::move(done));
    if (parked.size() == kN) {
      auto batch = std::move(parked);
      completer = std::thread([batch = std::move(batch)]() mutable {
        for (auto it = batch.rbegin(); it != batch.rend(); ++it) {
          Response r;
          r.ok = true;
          r.op = op_name(it->first.op);
          r.id = it->first.id;
          it->second(std::move(r));
        }
      });
    }
  };
  {
    EventLoopServer server(dispatch);
    TestClient client(server.port());
    std::string all;
    for (int i = 0; i < kN; ++i) all += stq_line(i);
    client.send(all);
    for (int i = 0; i < kN; ++i) {
      const std::string line = client.read_line();
      const auto rec = parse_record(line);
      EXPECT_EQ(rec.at("id"), stq_id(i)) << line;
    }
  }
  if (completer.joinable()) completer.join();
}

TEST(EventLoopServerTest, InterleavesJsonAndBinaryOnOneConnection) {
  EventLoopServer server(echo_dispatch(), echo_batch_dispatch());
  TestClient client(server.port());

  std::vector<Request> batch;
  for (int i = 0; i < 3; ++i) {
    Request r;
    r.op = Op::kBq;
    r.o = 10 + i;
    r.v = 2;
    r.id = "f" + std::to_string(i);
    batch.push_back(std::move(r));
  }
  client.send(stq_line(0));
  client.send(wire::encode_request_frame(batch));
  client.send(stq_line(1));

  const auto first = parse_record(client.read_line());
  EXPECT_EQ(first.at("id"), "q0");
  const auto frame = client.read_frame();
  ASSERT_EQ(frame.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(frame[static_cast<std::size_t>(i)].ok);
    EXPECT_EQ(frame[static_cast<std::size_t>(i)].id, "f" + std::to_string(i));
    EXPECT_EQ(frame[static_cast<std::size_t>(i)].nodes, 10 + i);
  }
  const auto second = parse_record(client.read_line());
  EXPECT_EQ(second.at("id"), "q1");

  const EventLoopStats stats = server.stats();
  EXPECT_EQ(stats.frames_in, 1u);
  EXPECT_EQ(stats.lines_in, 2u);
  EXPECT_EQ(stats.requests_in, 5u);
}

TEST(EventLoopServerTest, BinaryFramesFanOutWithoutABatchDispatch) {
  // batch_dispatch == nullptr: frame records flow through the per-request
  // dispatch and are stitched back into one response frame.
  EventLoopServer server(echo_dispatch());
  TestClient client(server.port());
  std::vector<Request> batch;
  for (int i = 0; i < 4; ++i) {
    Request r;
    r.op = Op::kStq;
    r.o = 7 * (i + 1);
    r.v = 2;
    r.id = "r" + std::to_string(i);
    batch.push_back(std::move(r));
  }
  client.send(wire::encode_request_frame(batch));
  const auto replies = client.read_frame();
  ASSERT_EQ(replies.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(replies[static_cast<std::size_t>(i)].id, "r" + std::to_string(i));
    EXPECT_EQ(replies[static_cast<std::size_t>(i)].nodes, 7 * (i + 1));
  }
}

TEST(EventLoopServerTest, GarbageJsonLineAnswersErrorAndConnectionSurvives) {
  EventLoopServer server(echo_dispatch());
  TestClient client(server.port());
  client.send("this is not json\n");
  const auto err = parse_record(client.read_line());
  EXPECT_EQ(err.at("ok"), "false");
  // The stream is still usable: a parse error poisons one line, not the
  // connection.
  client.send(stq_line(5));
  EXPECT_EQ(parse_record(client.read_line()).at("id"), "q5");
  EXPECT_GE(server.stats().protocol_errors, 1u);
}

TEST(EventLoopServerTest, BadMagicAnswersErrorFrameAndCloses) {
  EventLoopServer server(echo_dispatch());
  TestClient client(server.port());
  // 0xC3 commits the stream to a frame; a wrong continuation byte is
  // unrecoverable (framing is lost), so: one error frame, then EOF.
  client.send(std::string("\xC3XPB", 4) + std::string(16, 'x'));
  const auto replies = client.read_frame();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_FALSE(replies[0].ok);
  EXPECT_TRUE(client.at_eof());
}

TEST(EventLoopServerTest, OversizedDeclaredLengthRejectedFromHeaderAlone) {
  EventLoopServer server(echo_dispatch());
  TestClient client(server.port());
  // Valid magic/version/kind, but a declared payload over the cap. Only
  // the 12 header bytes are ever sent — the server must reject without
  // waiting for (or allocating) the declared two gigabytes.
  std::string header(wire::kHeaderBytes, '\0');
  header[0] = static_cast<char>(0xC3);
  header[1] = 'C';
  header[2] = 'P';
  header[3] = 'B';
  header[4] = static_cast<char>(wire::kVersion);
  header[5] = 0;
  header[6] = 1;
  header[7] = 0;
  header[8] = header[9] = header[10] = 0;
  header[11] = static_cast<char>(0x80);  // payload_bytes = 2 GiB
  client.send(header);
  const auto replies = client.read_frame();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_FALSE(replies[0].ok);
  EXPECT_TRUE(client.at_eof());
}

TEST(EventLoopServerTest, MidFrameDisconnectIsHarmless) {
  EventLoopServer server(echo_dispatch(), echo_batch_dispatch());
  {
    TestClient half(server.port());
    Request r;
    r.op = Op::kStq;
    r.o = 3;
    r.v = 2;
    const std::string frame = wire::encode_request_frame({r});
    half.send(frame.substr(0, frame.size() / 2));
    half.close();  // peer vanishes mid-frame
  }
  // The server must have reaped the dead connection and still serve.
  TestClient client(server.port());
  client.send(stq_line(9));
  EXPECT_EQ(parse_record(client.read_line()).at("id"), "q9");
}

TEST(EventLoopServerTest, AnOverCapResponseFrameAnswersTooLargeAndServesOn) {
  // 1,024 stats records with 700-byte ids make a 760,844-byte request
  // frame, within every request cap, but their stats answers would need
  // about 1.2 MB: more than one response frame may carry.
  std::vector<Request> frame(wire::kMaxFrameRecords);
  for (std::size_t i = 0; i < frame.size(); ++i) {
    frame[i].op = Op::kStats;
    frame[i].id = std::to_string(i) + std::string(700, 'i');
    frame[i].id.resize(700);
  }
  const std::string bytes = wire::encode_request_frame(frame);
  ASSERT_LE(bytes.size() - wire::kHeaderBytes, wire::kMaxFramePayload);

  for (const bool batching : {false, true}) {
    SCOPED_TRACE(batching ? "batching on" : "batching off");
    ModelRegistry registry(scratch_dir("over_cap"));
    ServeOptions opt;
    opt.threads = 2;
    opt.batch.enabled = batching;
    Server server(registry, opt);
    // Wired as the daemon wires them: lines through submit_with, frames
    // through submit_batch_with.
    EventLoopServer listener(
        [&server](Request r, EventLoopServer::Completion done) {
          server.submit_with(std::move(r), std::move(done));
        },
        [&server](std::vector<Request> b,
                  EventLoopServer::BatchCompletion done) {
          server.submit_batch_with(std::move(b), std::move(done));
        });
    TestClient client(listener.port());
    client.send(bytes);
    const auto out = client.read_frame();
    ASSERT_EQ(out.size(), frame.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_FALSE(out[i].ok) << i;
      EXPECT_EQ(out[i].code, "too_large") << i;
      EXPECT_EQ(out[i].op, "stats") << i;
      EXPECT_EQ(out[i].id, frame[i].id) << i;
      EXPECT_FALSE(out[i].has_stats) << i;
    }

    // The connection survives and keeps answering.
    client.send("{\"op\":\"stats\",\"id\":\"next\"}\n");
    const auto next = parse_record(client.read_line());
    EXPECT_EQ(next.at("ok"), "true");
    EXPECT_EQ(next.at("id"), "next");
  }
}

TEST(EventLoopServerTest, ManyConcurrentConnectionsAllAnswered) {
  EventLoopServer server(echo_dispatch());
  constexpr int kConns = 32;
  std::vector<std::unique_ptr<TestClient>> clients;
  clients.reserve(kConns);
  for (int c = 0; c < kConns; ++c) {
    clients.push_back(std::make_unique<TestClient>(server.port()));
    clients.back()->send(stq_line(c));
  }
  for (int c = 0; c < kConns; ++c) {
    EXPECT_EQ(parse_record(clients[static_cast<std::size_t>(c)]->read_line())
                  .at("id"),
              stq_id(c));
  }
  EXPECT_EQ(server.stats().connections_accepted,
            static_cast<std::uint64_t>(kConns));
}

TEST(EventLoopServerTest, ALineThatFailsValidationIsAnsweredWithItsId) {
  EventLoopServer server(echo_dispatch());
  TestClient client(server.port());
  // The line is a well-formed record with a size no question has.
  client.send(R"({"op":"stq","o":-3,"v":260,"id":"neg"})" "\n");
  const auto err = parse_record(client.read_line());
  EXPECT_EQ(err.at("ok"), "false");
  EXPECT_EQ(err.at("code"), "bad_request");
  EXPECT_EQ(err.at("op"), "stq");
  EXPECT_EQ(err.at("id"), "neg");
  client.send(stq_line(3));
  EXPECT_EQ(parse_record(client.read_line()).at("id"), "q3");
}

}  // namespace
}  // namespace ccpred::serve
