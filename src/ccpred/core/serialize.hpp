#pragma once

/// \file serialize.hpp
/// Text serialization for the tree-family models, so a trained runtime
/// predictor can be shipped to users without shipping the training data:
/// train once per machine, publish the model file, everyone gets instant
/// STQ/BQ answers.
///
/// Format: line-oriented ASCII, whitespace-separated decimal numbers,
/// doubles at 17 significant digits ("%.17g", so every double round-trips
/// exactly). Versioned header; loaders validate structure and throw
/// ccpred::Error on malformed input. An artifact comes from outside the
/// program, so a loader's message names the record that failed ("GB model
/// file: stage 3: truncated node record 5") and carries no checked
/// expression or source path, and every count read from the file is
/// bounded by the bytes left before anything is sized by it.
///
/// A tree body is a `<nodes> <features>` line, one
/// `<feature> <threshold> <value> <left> <right>` line per node and one
/// line of raw per-feature importances. A GB or RF model keeps its trees
/// only in its CompiledEnsemble, which keeps no internal node's value: the
/// loader compiles each tree as it parses it, ignoring the value field of
/// an internal node, and the writer reads each tree back out of the store
/// in the builder's depth-first pre-order (node i's left child is i + 1),
/// writing every leaf as `-1 0 <value> -1 -1` and every internal node
/// with value 0. A model fitted here is in that form already, so its bytes
/// round-trip exactly. An artifact whose trees are valid but not in that
/// form (internal nodes carrying their mean targets, as writers before
/// this store did, children numbered in another order, or leaves carrying
/// other fields) loads and predicts the same, and re-serializes in the
/// canonical form. A GB or RF model is at most
/// CompiledEnsemble::kMaxFeatures wide; the loader refuses a wider tree.
/// A lone tree (serialize_tree) keeps every node's value.
///
/// The writer formats with std::to_chars and the reader parses with
/// std::from_chars over one buffer, both linear in the artifact size. The
/// format is unchanged from the earlier ostream/istream codec, byte for
/// byte; the reader rejects a leading '+', non-finite values and negative
/// counts.
///
/// serialize_* build the artifact in one string. save_* stream it instead:
/// the same writer flushes into the temp file about every 64 KiB, hashing
/// each chunk as it goes, so a save holds one chunk rather than the whole
/// artifact and returns the file's ArtifactStamp without reading it back.

#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>

#include "ccpred/core/decision_tree.hpp"
#include "ccpred/core/gradient_boosting.hpp"
#include "ccpred/core/random_forest.hpp"

namespace ccpred::ml {

/// Serializes a fitted CART tree.
std::string serialize_tree(const DecisionTreeRegressor& tree);

/// Restores a tree from serialize_tree output.
DecisionTreeRegressor deserialize_tree(std::string_view text);

/// Serializes a fitted gradient-boosting model (all stages + the
/// hyper-parameters needed to predict).
std::string serialize_gb(const GradientBoostingRegressor& model);

/// Restores a GB model from serialize_gb output; the result predicts
/// bit-identically to the original.
GradientBoostingRegressor deserialize_gb(std::string_view text);

/// What a save published: the FNV-1a hash of the file's bytes, equal to
/// fnv1a64(read_artifact(path)), and its mtime, equal to
/// last_write_time(path) until the file is written or touched again.
struct ArtifactStamp {
  std::uint64_t content_hash = 0;
  std::filesystem::file_time_type mtime{};
};

/// Convenience: write/read a GB model file. save_* publishes atomically:
/// it streams the bytes serialize_gb returns into a temp file beside
/// `path` and renames it over `path`, so a concurrent reader never sees a
/// partly written artifact. A failed write removes the temp file and
/// throws ccpred::Error.
ArtifactStamp save_gb(const GradientBoostingRegressor& model,
                      const std::string& path);
GradientBoostingRegressor load_gb(const std::string& path);

/// Serializes a fitted random forest (header "ccpred-rf-v1", then each
/// member tree in serialize_tree body format).
std::string serialize_rf(const RandomForestRegressor& model);

/// Restores a forest from serialize_rf output; the result predicts
/// bit-identically to the original.
RandomForestRegressor deserialize_rf(std::string_view text);

/// Convenience: write an RF model file (streamed and atomic, as save_gb).
/// Readers parse read_artifact's bytes with deserialize_rf.
ArtifactStamp save_rf(const RandomForestRegressor& model,
                      const std::string& path);

/// The whole file at `path` in one read, for callers that both hash and
/// parse an artifact (load_gb is deserialize_gb of this).
std::string read_artifact(const std::string& path);

}  // namespace ccpred::ml
