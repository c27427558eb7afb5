#include "ccpred/core/serialize.hpp"

#include <unistd.h>

#include <atomic>
#include <charconv>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <vector>

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
/// the FNV-1a hash, so finish() returns fnv1a64 of the whole file. The
/// chunk is small because its buffer outlives the save: once freed, it
/// stays resident in the saving thread's malloc arena.
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
  static constexpr std::size_t kChunkBytes = 64 * 1024;

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
  CCPRED_REQUIRE(in.word(word) && word == header, "not a ccpred " << what);
}

/// Lower bounds on the bytes a record takes, which bound every count read
/// from an artifact before anything is sized by it: each number takes at
/// least one character and the separator before it. A node record has
/// five numbers; a tree body at least its size line and one node record.
constexpr std::size_t kMinNodeBytes = 10;
constexpr std::size_t kMinTreeBytes = 4 + kMinNodeBytes;

void write_tree_body(Writer& out, std::span<const TreeNode> nodes,
                     const std::vector<double>& importance) {
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

/// Every tree of a GB/RF store, read back in the builder's depth-first
/// order.
void write_trees(Writer& out, const CompiledEnsemble& store) {
  std::vector<TreeNode> nodes;
  for (std::size_t t = 0; t < store.tree_count(); ++t) {
    store.preorder(t, nodes);
    write_tree_body(out, nodes, store.raw_importance(t));
  }
}

/// Reads one tree body into `nodes` and `importance` (reused across the
/// trees of a model). Every message names `what`, the record being read;
/// the caller checks the tree's shape.
void read_tree_body(Reader& in, std::string_view what,
                    std::vector<TreeNode>& nodes,
                    std::vector<double>& importance) {
  std::size_t n_nodes = 0;
  std::size_t n_features = 0;
  CCPRED_REQUIRE(in.numbers(n_nodes, n_features), what << ": missing size line");
  CCPRED_REQUIRE(n_nodes >= 1 && n_nodes < (1u << 26),
                 what << ": implausible node count " << n_nodes);
  CCPRED_REQUIRE(n_nodes <= in.remaining() / kMinNodeBytes,
                 what << ": node count " << n_nodes << " needs at least "
                      << n_nodes * kMinNodeBytes << " bytes, "
                      << in.remaining() << " left");
  CCPRED_REQUIRE(n_features <= in.remaining() / 2,
                 what << ": truncated importance record");
  nodes.resize(n_nodes);
  for (std::size_t i = 0; i < n_nodes; ++i) {
    TreeNode& node = nodes[i];
    CCPRED_REQUIRE(in.numbers(node.feature, node.threshold, node.value,
                              node.left, node.right),
                   what << ": truncated node record " << i);
  }
  importance.resize(n_features);
  for (auto& v : importance) {
    CCPRED_REQUIRE(in.number(v), what << ": truncated importance record");
  }
}

/// Reads the `count` tree bodies of a GB/RF artifact, checking and
/// compiling each one as soon as it is parsed; tree t is named
/// "<file>: <kind> t".
std::vector<CompiledEnsemble::Tree> read_trees(Reader& in,
                                               std::string_view file,
                                               std::string_view kind,
                                               std::size_t count) {
  CCPRED_REQUIRE(count >= 1 && count < (1u << 20),
                 file << ": implausible " << kind << " count " << count);
  CCPRED_REQUIRE(count <= in.remaining() / kMinTreeBytes,
                 file << ": " << kind << " count " << count
                      << " needs at least " << count * kMinTreeBytes
                      << " bytes, " << in.remaining() << " left");
  std::vector<CompiledEnsemble::Tree> trees;
  trees.reserve(count);
  std::vector<TreeNode> nodes;
  std::vector<double> importance;
  for (std::size_t t = 0; t < count; ++t) {
    const std::string what =
        std::string(file) + ": " + std::string(kind) + " " + std::to_string(t);
    read_tree_body(in, what, nodes, importance);
    CompiledEnsemble::check_width(importance.size(), what);
    check_tree_parts(nodes, importance.size(), what);
    trees.push_back(CompiledEnsemble::compile_tree(nodes, importance));
  }
  return trees;
}

/// Serialized size of `trees` tree bodies holding `nodes` nodes and
/// `features` importance values in all, close enough to reserve once: a
/// leaf's line carries one 17-digit value and an internal node's a short
/// threshold and two child indices, about 24.6 bytes a node on average in
/// the daemon's models.
std::size_t body_bytes(std::size_t trees, std::size_t nodes,
                       std::size_t features) {
  return 16 * trees + 25 * nodes + 25 * features;
}

std::size_t body_bytes(const CompiledEnsemble& store) {
  std::size_t features = 0;
  for (std::size_t t = 0; t < store.tree_count(); ++t) {
    features += store.raw_importance(t).size();
  }
  return body_bytes(store.tree_count(), store.node_count(), features);
}

void write_gb(Writer& out, const GradientBoostingRegressor& model) {
  out << kGbHeader << '\n'
      << model.stage_count() << ' ' << model.learning_rate() << ' '
      << model.base_prediction() << '\n';
  write_trees(out, model.compiled());
}

void write_rf(Writer& out, const RandomForestRegressor& model) {
  out << kRfHeader << '\n' << model.tree_count() << '\n';
  write_trees(out, model.compiled());
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
  Writer out(kTreeHeader.size() + 1 +
             body_bytes(1, tree.nodes().size(), tree.raw_importance().size()));
  out << kTreeHeader << '\n';
  write_tree_body(out, tree.nodes(), tree.raw_importance());
  return out.take();
}

DecisionTreeRegressor deserialize_tree(std::string_view text) {
  Reader in(text);
  expect_header(in, kTreeHeader, "tree file");
  std::vector<TreeNode> nodes;
  std::vector<double> importance;
  read_tree_body(in, "tree file", nodes, importance);
  // from_parts checks the tree's shape, its messages also naming the file.
  return DecisionTreeRegressor::from_parts({}, std::move(nodes),
                                           std::move(importance));
}

std::string serialize_gb(const GradientBoostingRegressor& model) {
  CCPRED_CHECK_MSG(model.is_fitted(), "cannot serialize an unfitted model");
  Writer out(64 + body_bytes(model.compiled()));
  write_gb(out, model);
  return out.take();
}

GradientBoostingRegressor deserialize_gb(std::string_view text) {
  Reader in(text);
  expect_header(in, kGbHeader, "GB model file");
  std::size_t n_stages = 0;
  double learning_rate = 0.0;
  double base = 0.0;
  CCPRED_REQUIRE(in.numbers(n_stages, learning_rate, base),
                 "GB model file: missing header line");
  CCPRED_REQUIRE(learning_rate > 0.0 && learning_rate <= 1.0,
                 "GB model file: learning rate " << learning_rate
                                                 << " is not in (0, 1]");
  return GradientBoostingRegressor::from_parts(
      learning_rate, base, read_trees(in, "GB model file", "stage", n_stages));
}

std::string serialize_rf(const RandomForestRegressor& model) {
  CCPRED_CHECK_MSG(model.is_fitted(), "cannot serialize an unfitted model");
  Writer out(32 + body_bytes(model.compiled()));
  write_rf(out, model);
  return out.take();
}

RandomForestRegressor deserialize_rf(std::string_view text) {
  Reader in(text);
  expect_header(in, kRfHeader, "RF model file");
  std::size_t n_trees = 0;
  CCPRED_REQUIRE(in.number(n_trees), "RF model file: missing tree count");
  return RandomForestRegressor::from_parts(
      read_trees(in, "RF model file", "tree", n_trees));
}

std::string read_artifact(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  CCPRED_REQUIRE(in.good(), "cannot open model file: " << path);
  const std::streamoff size = in.tellg();
  CCPRED_REQUIRE(size >= 0, "cannot size model file: " << path);
  std::string bytes(static_cast<std::size_t>(size), '\0');
  in.seekg(0);
  in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  CCPRED_REQUIRE(in.gcount() == static_cast<std::streamsize>(bytes.size()),
                 "I/O error reading model file: " << path);
  return bytes;
}

ArtifactStamp save_rf(const RandomForestRegressor& model,
                      const std::string& path) {
  CCPRED_CHECK_MSG(model.is_fitted(), "cannot serialize an unfitted model");
  return stream_artifact(path, [&](Writer& out) { write_rf(out, model); });
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
