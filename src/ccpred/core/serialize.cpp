#include "ccpred/core/serialize.hpp"

#include <unistd.h>

#include <atomic>
#include <charconv>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <filesystem>
#include <fstream>

#include "ccpred/common/error.hpp"
#include "ccpred/common/strings.hpp"

namespace ccpred::ml {
namespace {

constexpr std::string_view kTreeHeader = "ccpred-tree-v1";
constexpr std::string_view kGbHeader = "ccpred-gb-v1";
constexpr std::string_view kRfHeader = "ccpred-rf-v1";

/// Appends text, integers and doubles to one string. Doubles are written
/// by to_chars with 17 significant digits in general format, which is
/// printf's "%.17g": enough to round-trip every double exactly.
///
/// With a file sink the string is one chunk: flush_if_full() writes it to
/// the sink once it holds kChunkBytes, and every flushed chunk continues
/// the FNV-1a hash, so finish() returns fnv1a64 of the whole file.
class Writer {
 public:
  explicit Writer(std::size_t reserve) { out_.reserve(reserve); }
  explicit Writer(std::ofstream& sink) : sink_(&sink) {
    out_.reserve(kChunkBytes + 4096);  // a chunk plus the line crossing it
  }

  Writer& operator<<(std::string_view s) {
    out_ += s;
    return *this;
  }
  Writer& operator<<(char c) {
    out_ += c;
    return *this;
  }
  Writer& operator<<(std::integral auto v) {
    char buf[24];
    out_.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
    return *this;
  }
  Writer& operator<<(double v) {
    char buf[32];
    out_.append(buf, std::to_chars(buf, buf + sizeof buf, v,
                                   std::chars_format::general, 17)
                         .ptr);
    return *this;
  }

  /// Streams the chunk once it is full; a no-op without a sink.
  void flush_if_full() {
    if (sink_ != nullptr && out_.size() >= kChunkBytes) flush();
  }

  /// Streams the last chunk and returns the hash of every byte written.
  std::uint64_t finish() {
    flush();
    return hash_;
  }

  std::string take() { return std::move(out_); }

 private:
  static constexpr std::size_t kChunkBytes = 256 * 1024;

  void flush() {
    hash_ = fnv1a64(out_, hash_);
    sink_->write(out_.data(), static_cast<std::streamsize>(out_.size()));
    out_.clear();
  }

  std::string out_;
  std::ofstream* sink_ = nullptr;
  std::uint64_t hash_ = fnv1a64("");
};

/// Whitespace-separated tokens over one buffer, parsed in place by
/// from_chars. A read returns false on a missing or malformed token: a
/// leading '+', a non-finite or out-of-range value, and a '-' on an
/// unsigned count are all malformed.
class Reader {
 public:
  explicit Reader(std::string_view text)
      : pos_(text.data()), end_(text.data() + text.size()) {}

  bool word(std::string_view& out) {
    skip_space();
    const char* start = pos_;
    while (pos_ != end_ && !is_space(*pos_)) ++pos_;
    out = std::string_view(start, static_cast<std::size_t>(pos_ - start));
    return !out.empty();
  }

  template <typename T>
  bool number(T& out) {
    skip_space();
    const auto [ptr, ec] = std::from_chars(pos_, end_, out);
    if (ec != std::errc{}) return false;
    if constexpr (std::floating_point<T>) {
      if (!std::isfinite(out)) return false;
    }
    pos_ = ptr;
    return true;
  }

  template <typename... T>
  bool numbers(T&... out) {
    return (number(out) && ...);
  }

  /// Bytes not yet consumed: every remaining token needs at least two
  /// (a digit and a separator), which bounds any count read from the file.
  std::size_t remaining() const {
    return static_cast<std::size_t>(end_ - pos_);
  }

 private:
  static bool is_space(char c) {
    return c == ' ' || c == '\n' || c == '\t' || c == '\r' || c == '\v' ||
           c == '\f';
  }
  void skip_space() {
    while (pos_ != end_ && is_space(*pos_)) ++pos_;
  }

  const char* pos_;
  const char* end_;
};

void expect_header(Reader& in, std::string_view header, const char* what) {
  std::string_view word;
  CCPRED_CHECK_MSG(in.word(word) && word == header, "not a ccpred " << what);
}

void write_tree_body(Writer& out, const DecisionTreeRegressor& tree) {
  const auto& nodes = tree.nodes();
  const auto& importance = tree.raw_importance();
  out << nodes.size() << ' ' << importance.size() << '\n';
  for (const auto& n : nodes) {
    out << n.feature << ' ' << n.threshold << ' ' << n.value << ' ' << n.left
        << ' ' << n.right << '\n';
    out.flush_if_full();
  }
  for (std::size_t i = 0; i < importance.size(); ++i) {
    if (i) out << ' ';
    out << importance[i];
  }
  if (!importance.empty()) out << '\n';
  out.flush_if_full();
}

DecisionTreeRegressor read_tree_body(Reader& in) {
  std::size_t n_nodes = 0;
  std::size_t n_features = 0;
  CCPRED_CHECK_MSG(in.numbers(n_nodes, n_features),
                   "tree body: missing size line");
  CCPRED_CHECK_MSG(n_nodes >= 1 && n_nodes < (1u << 26),
                   "tree body: implausible node count " << n_nodes);
  CCPRED_CHECK_MSG(n_features <= in.remaining() / 2,
                   "tree body: truncated importance record");
  std::vector<TreeNode> nodes(n_nodes);
  for (auto& node : nodes) {
    CCPRED_CHECK_MSG(in.numbers(node.feature, node.threshold, node.value,
                                node.left, node.right),
                     "tree body: truncated node record");
  }
  std::vector<double> importance(n_features);
  for (auto& v : importance) {
    CCPRED_CHECK_MSG(in.number(v), "tree body: truncated importance record");
  }
  return DecisionTreeRegressor::from_parts({}, std::move(nodes),
                                           std::move(importance));
}

/// Serialized size of one tree body, close enough to reserve once: a node
/// line is ~45 bytes at 17 significant digits.
std::size_t tree_body_bytes(const DecisionTreeRegressor& tree) {
  return 16 + tree.nodes().size() * 48 + tree.raw_importance().size() * 25;
}

void write_gb(Writer& out, const GradientBoostingRegressor& model) {
  out << kGbHeader << '\n'
      << model.stages().size() << ' ' << model.learning_rate() << ' '
      << model.base_prediction() << '\n';
  for (const auto& tree : model.stages()) write_tree_body(out, tree);
}

void write_rf(Writer& out, const RandomForestRegressor& model) {
  out << kRfHeader << '\n' << model.tree_count() << '\n';
  for (const auto& tree : model.trees()) write_tree_body(out, tree);
}

/// Streams an artifact into a temp file beside `path`, named per writer
/// (pid + counter), and rename(2)s it over `path`: a reader sees the old
/// bytes or the new ones, never a truncated file, and a stream already
/// open on the old file keeps reading it whole. The mtime is read after
/// the close and before the rename, which keeps it. A failed write
/// removes the temp file.
template <typename WriteBody>
ArtifactStamp stream_artifact(const std::string& path, WriteBody write_body) {
  static std::atomic<std::uint64_t> writes{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(writes.fetch_add(1));
  std::ofstream file(tmp, std::ios::binary);
  CCPRED_CHECK_MSG(file.good(), "cannot open model file for write: " << tmp);
  Writer out(file);
  write_body(out);
  ArtifactStamp stamp;
  stamp.content_hash = out.finish();
  file.close();
  std::error_code ec;
  if (file.good()) stamp.mtime = std::filesystem::last_write_time(tmp, ec);
  if (file.good() && !ec) std::filesystem::rename(tmp, path, ec);
  if (!file.good() || ec) {
    std::filesystem::remove(tmp, ec);
    throw Error("I/O error writing model file: " + path);
  }
  return stamp;
}

}  // namespace

std::string serialize_tree(const DecisionTreeRegressor& tree) {
  CCPRED_CHECK_MSG(tree.is_fitted(), "cannot serialize an unfitted tree");
  Writer out(kTreeHeader.size() + 1 + tree_body_bytes(tree));
  out << kTreeHeader << '\n';
  write_tree_body(out, tree);
  return out.take();
}

DecisionTreeRegressor deserialize_tree(std::string_view text) {
  Reader in(text);
  expect_header(in, kTreeHeader, "tree file");
  return read_tree_body(in);
}

std::string serialize_gb(const GradientBoostingRegressor& model) {
  CCPRED_CHECK_MSG(model.is_fitted(), "cannot serialize an unfitted model");
  std::size_t bytes = 64;
  for (const auto& tree : model.stages()) bytes += tree_body_bytes(tree);
  Writer out(bytes);
  write_gb(out, model);
  return out.take();
}

GradientBoostingRegressor deserialize_gb(std::string_view text) {
  Reader in(text);
  expect_header(in, kGbHeader, "GB model file");
  std::size_t n_stages = 0;
  double learning_rate = 0.0;
  double base = 0.0;
  CCPRED_CHECK_MSG(in.numbers(n_stages, learning_rate, base),
                   "GB model file: missing header line");
  CCPRED_CHECK_MSG(n_stages >= 1 && n_stages < (1u << 20),
                   "GB model file: implausible stage count " << n_stages);
  std::vector<DecisionTreeRegressor> stages;
  stages.reserve(n_stages);
  for (std::size_t s = 0; s < n_stages; ++s) {
    stages.push_back(read_tree_body(in));
  }
  return GradientBoostingRegressor::from_parts(learning_rate, base,
                                               std::move(stages));
}

std::string serialize_rf(const RandomForestRegressor& model) {
  CCPRED_CHECK_MSG(model.is_fitted(), "cannot serialize an unfitted model");
  std::size_t bytes = 32;
  for (std::size_t t = 0; t < model.tree_count(); ++t) {
    bytes += tree_body_bytes(model.tree(t));
  }
  Writer out(bytes);
  write_rf(out, model);
  return out.take();
}

RandomForestRegressor deserialize_rf(std::string_view text) {
  Reader in(text);
  expect_header(in, kRfHeader, "RF model file");
  std::size_t n_trees = 0;
  CCPRED_CHECK_MSG(in.number(n_trees), "RF model file: missing tree count");
  CCPRED_CHECK_MSG(n_trees >= 1 && n_trees < (1u << 20),
                   "RF model file: implausible tree count " << n_trees);
  std::vector<DecisionTreeRegressor> trees;
  trees.reserve(n_trees);
  for (std::size_t t = 0; t < n_trees; ++t) {
    trees.push_back(read_tree_body(in));
  }
  return RandomForestRegressor::from_parts(std::move(trees));
}

std::string read_artifact(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  CCPRED_CHECK_MSG(in.good(), "cannot open model file: " << path);
  const std::streamoff size = in.tellg();
  CCPRED_CHECK_MSG(size >= 0, "cannot size model file: " << path);
  std::string bytes(static_cast<std::size_t>(size), '\0');
  in.seekg(0);
  in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  CCPRED_CHECK_MSG(in.gcount() == static_cast<std::streamsize>(bytes.size()),
                   "I/O error reading model file: " << path);
  return bytes;
}

ArtifactStamp save_rf(const RandomForestRegressor& model,
                      const std::string& path) {
  CCPRED_CHECK_MSG(model.is_fitted(), "cannot serialize an unfitted model");
  return stream_artifact(path, [&](Writer& out) { write_rf(out, model); });
}

RandomForestRegressor load_rf(const std::string& path) {
  return deserialize_rf(read_artifact(path));
}

ArtifactStamp save_gb(const GradientBoostingRegressor& model,
                      const std::string& path) {
  CCPRED_CHECK_MSG(model.is_fitted(), "cannot serialize an unfitted model");
  return stream_artifact(path, [&](Writer& out) { write_gb(out, model); });
}

GradientBoostingRegressor load_gb(const std::string& path) {
  return deserialize_gb(read_artifact(path));
}

}  // namespace ccpred::ml
