// Serialization robustness: bit-for-bit round trips for the tree-family
// models (GB and RF) on random inputs, the canonical form the writer emits,
// negative tests proving that corrupted artifacts throw ccpred::Error,
// naming the record, rather than reading uninitialized structure or sizing
// by a count the file cannot hold, and the atomic replace behind
// save_gb/save_rf.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ccpred/common/error.hpp"
#include "ccpred/common/strings.hpp"
#include "ccpred/core/gradient_boosting.hpp"
#include "ccpred/core/random_forest.hpp"
#include "ccpred/core/serialize.hpp"
#include "test_util.hpp"

namespace ccpred::ml {
namespace {

linalg::Matrix random_queries(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  linalg::Matrix x(n, 3);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < 3; ++c) x(i, c) = rng.uniform(-3.0, 3.0);
  }
  return x;
}

/// The message a load throws, or "" when it succeeds.
template <typename Load>
std::string load_error(Load load) {
  try {
    load();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

GradientBoostingRegressor small_gb(std::uint64_t seed = 7) {
  const auto data = test::make_nonlinear(200, 0.05, seed);
  GradientBoostingRegressor model(25);
  model.fit(data.x, data.y);
  return model;
}

TEST(SerializeGbTest, RoundTripPredictsBitForBitOnRandomInputs) {
  // Property: over several models and query batches, deserialize(serialize)
  // is an exact functional identity — doubles compare with ==, not NEAR.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto model = small_gb(seed);
    const auto restored = deserialize_gb(serialize_gb(model));
    const auto x = random_queries(64, seed * 31 + 1);
    const auto expect = model.predict(x);
    const auto got = restored.predict(x);
    ASSERT_EQ(expect.size(), got.size());
    for (std::size_t i = 0; i < expect.size(); ++i) {
      EXPECT_EQ(expect[i], got[i]) << "seed " << seed << " row " << i;
    }
  }
}

TEST(SerializeGbTest, HandMadeTreesReserializeInCanonicalForm) {
  // Valid trees need not be in the builder's form: here the root's right
  // child is numbered first and two leaves carry stray fields. The models
  // load and predict from what the nodes mean, and the writer, reading
  // each tree out of the store, emits the builder's depth-first form
  // (left child i + 1, leaves "-1 0 <value> -1 -1", internal nodes value
  // 0, since the store keeps no internal values), which predicts the same
  // and is a fixed point.
  const std::string body =
      "5 2\n"
      "0 0.5 3 4 1\n"
      "1 2.5 7 2 3\n"
      "-1 0 10 -1 -1\n"
      "-7 9.5 20 3 3\n"
      "-1 1 30 0 0\n"
      "0.25 0.75\n";
  const std::string canonical =
      "5 2\n"
      "0 0.5 0 1 2\n"
      "-1 0 30 -1 -1\n"
      "1 2.5 0 3 4\n"
      "-1 0 10 -1 -1\n"
      "-1 0 20 -1 -1\n"
      "0.25 0.75\n";
  linalg::Matrix x(4, 2);
  const double rows[4][2] = {
      {0.0, 0.0}, {1.0, 2.0}, {1.0, 3.0}, {std::nan(""), 0.0}};
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t c = 0; c < 2; ++c) x(i, c) = rows[i][c];
  }

  const std::string gb_header = "ccpred-gb-v1\n1 0.5 1\n";
  const auto gb = deserialize_gb(gb_header + body);
  EXPECT_EQ(gb.predict(x), (std::vector<double>{16.0, 6.0, 11.0, 6.0}));
  EXPECT_EQ(serialize_gb(gb), gb_header + canonical);
  const auto gb_again = deserialize_gb(gb_header + canonical);
  EXPECT_EQ(gb_again.predict(x), gb.predict(x));
  EXPECT_EQ(serialize_gb(gb_again), gb_header + canonical);

  const std::string rf_header = "ccpred-rf-v1\n1\n";
  const auto rf = deserialize_rf(rf_header + body);
  EXPECT_EQ(rf.predict(x), (std::vector<double>{30.0, 10.0, 20.0, 10.0}));
  EXPECT_EQ(serialize_rf(rf), rf_header + canonical);
}

TEST(SerializeGbTest, SerializationIsAFixedPoint) {
  const auto model = small_gb();
  const auto text = serialize_gb(model);
  EXPECT_EQ(text, serialize_gb(deserialize_gb(text)));
}

TEST(SerializeRfTest, RoundTripPredictsBitForBit) {
  const auto data = test::make_nonlinear(200, 0.05, 11);
  RandomForestRegressor model(15);
  model.fit(data.x, data.y);
  const auto restored = deserialize_rf(serialize_rf(model));
  EXPECT_EQ(restored.tree_count(), model.tree_count());
  const auto x = random_queries(64, 99);
  const auto expect = model.predict(x);
  const auto got = restored.predict(x);
  for (std::size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(expect[i], got[i]);
  }
}

TEST(SerializeRfTest, FixedPointAndHeader) {
  const auto data = test::make_linear(100, 0.0, 3);
  RandomForestRegressor model(5);
  model.fit(data.x, data.y);
  const auto text = serialize_rf(model);
  EXPECT_EQ(text.rfind("ccpred-rf-v1\n", 0), 0u);
  EXPECT_EQ(text, serialize_rf(deserialize_rf(text)));
}

TEST(SerializeNegativeTest, WrongHeaderThrows) {
  const auto text = serialize_gb(small_gb());
  EXPECT_THROW(deserialize_rf(text), Error);   // GB artifact into RF loader
  EXPECT_THROW(deserialize_gb("ccpred-rf-v1\n1\n"), Error);
  EXPECT_THROW(deserialize_gb("not-a-model\n"), Error);
  EXPECT_THROW(deserialize_gb(""), Error);
}

TEST(SerializeNegativeTest, TruncatedNodeRecordsThrow) {
  const auto text = serialize_gb(small_gb());
  // Chop the artifact at several depths: mid-header-line, mid-node-table,
  // mid-final-tree. Every truncation must throw, never return a model.
  for (const double frac : {0.02, 0.3, 0.6, 0.9, 0.99}) {
    const auto cut = text.substr(0, static_cast<std::size_t>(
                                        text.size() * frac));
    EXPECT_THROW(deserialize_gb(cut), Error) << "fraction " << frac;
  }
}

TEST(SerializeNegativeTest, ShortNodeRecordThrows) {
  // A structurally valid prefix whose node table lies about its length.
  std::ostringstream os;
  os << "ccpred-tree-v1\n"
     << "3 2\n"                      // claims 3 nodes...
     << "-1 0 1.5 -1 -1\n";          // ...but provides 1
  EXPECT_THROW(deserialize_tree(os.str()), Error);
}

TEST(SerializeNegativeTest, ImplausibleCountsThrow) {
  EXPECT_THROW(deserialize_tree("ccpred-tree-v1\n999999999 4\n"), Error);
  EXPECT_THROW(deserialize_gb("ccpred-gb-v1\n99999999 0.1 5.0\n"), Error);
  EXPECT_THROW(deserialize_rf("ccpred-rf-v1\n99999999\n"), Error);
  EXPECT_THROW(deserialize_rf("ccpred-rf-v1\n0\n"), Error);
}

TEST(SerializeNegativeTest, TruncatedImportanceThrows) {
  std::ostringstream os;
  os << "ccpred-tree-v1\n"
     << "1 4\n"
     << "-1 0 2.5 -1 -1\n"
     << "0.1 0.2\n";  // 4 importances promised, 2 delivered
  EXPECT_THROW(deserialize_tree(os.str()), Error);
}

TEST(SerializeNegativeTest, UnfittedModelsRefuseToSerialize) {
  EXPECT_THROW(serialize_gb(GradientBoostingRegressor(10)), Error);
  EXPECT_THROW(serialize_rf(RandomForestRegressor(10)), Error);
}

/// A minimal tree file with the given node count, leaf value and first
/// importance; tree_text("1", "1.5", "0.25") is valid.
std::string tree_text(const std::string& count, const std::string& value,
                      const std::string& importance) {
  return "ccpred-tree-v1\n" + count + " 2\n-1 0 " + value + " -1 -1\n" +
         importance + " 0.75\n";
}

TEST(SerializeNegativeTest, ValidMinimalTreeParses) {
  const auto tree = deserialize_tree(tree_text("1", "1.5", "0.25"));
  EXPECT_EQ(tree.nodes().size(), 1u);
  EXPECT_EQ(tree.nodes()[0].value, 1.5);
  EXPECT_EQ(tree.raw_importance(), (std::vector<double>{0.25, 0.75}));
}

TEST(SerializeNegativeTest, LeadingPlusThrows) {
  // The writer never emits a '+' sign, so an artifact carrying one was
  // not written by it.
  const std::string body = tree_text("1", "1.5", "0.25").substr(15);
  EXPECT_NO_THROW(deserialize_gb("ccpred-gb-v1\n1 0.1 5.0\n" + body));
  EXPECT_THROW(deserialize_tree(tree_text("+1", "1.5", "0.25")), Error);
  EXPECT_THROW(deserialize_tree(tree_text("1", "+1.5", "0.25")), Error);
  EXPECT_THROW(deserialize_tree(tree_text("1", "1.5", "+0.25")), Error);
  EXPECT_THROW(deserialize_gb("ccpred-gb-v1\n+1 0.1 5.0\n" + body), Error);
  EXPECT_THROW(deserialize_gb("ccpred-gb-v1\n1 +0.1 5.0\n" + body), Error);
}

TEST(SerializeNegativeTest, NonFiniteValuesThrow) {
  const std::string body = tree_text("1", "1.5", "0.25").substr(15);
  for (const std::string bad : {"nan", "-nan", "NaN", "inf", "-inf",
                                "infinity", "1e999", "-1e999"}) {
    EXPECT_THROW(deserialize_tree(tree_text("1", bad, "0.25")), Error) << bad;
    EXPECT_THROW(deserialize_tree(tree_text("1", "1.5", bad)), Error) << bad;
    EXPECT_THROW(deserialize_gb("ccpred-gb-v1\n1 " + bad + " 5.0\n" + body),
                 Error)
        << bad;
  }
}

TEST(SerializeNegativeTest, NegativeCountsThrow) {
  EXPECT_THROW(deserialize_tree(tree_text("-1", "1.5", "0.25")), Error);
  EXPECT_THROW(deserialize_tree("ccpred-tree-v1\n1 -2\n-1 0 1.5 -1 -1\n"),
               Error);
  EXPECT_THROW(deserialize_gb("ccpred-gb-v1\n-1 0.1 5.0\n"), Error);
  EXPECT_THROW(deserialize_rf("ccpred-rf-v1\n-3\n"), Error);
  // A huge importance count must fail on the missing values, not try to
  // allocate them first.
  EXPECT_THROW(deserialize_tree("ccpred-tree-v1\n1 99999999999\n"
                                "-1 0 1.5 -1 -1\n"),
               Error);
  // So must every other count: a 32-byte artifact may not size 67 million
  // nodes (2 GiB) before finding them missing, nor reserve a million
  // stages or trees. A node record takes at least 10 bytes, a tree body 14.
  EXPECT_EQ(load_error([] {
              deserialize_gb("ccpred-gb-v1\n1 0.1 5\n67108000 0\n");
            }),
            "GB model file: stage count 1 needs at least 14 bytes, 12 left");
  EXPECT_EQ(load_error([] {
              deserialize_gb(
                  "ccpred-gb-v1\n1 0.1 5\n67108000 0\n-1 0 5 -1 -1\n");
            }),
            "GB model file: stage 0: node count 67108000 needs at least "
            "671080000 bytes, 14 left");
  EXPECT_EQ(load_error([] { deserialize_tree("ccpred-tree-v1\n67108000 0\n"); }),
            "tree file: node count 67108000 needs at least 671080000 bytes, "
            "1 left");
  EXPECT_EQ(load_error([] { deserialize_gb("ccpred-gb-v1\n1000000 0.1 5\n"); }),
            "GB model file: stage count 1000000 needs at least 14000000 "
            "bytes, 1 left");
  EXPECT_EQ(load_error([] { deserialize_rf("ccpred-rf-v1\n1000000\n"); }),
            "RF model file: tree count 1000000 needs at least 14000000 bytes, "
            "1 left");
}

TEST(SerializeNegativeTest, MessagesNameTheRecordNotTheSource) {
  // An artifact is input from outside the program: a loader's message
  // names the stage or tree and the node that failed, never a checked
  // expression or a source path.
  const std::string gb_cut =
      "ccpred-gb-v1\n2 0.1 5\n1 0\n-1 0 2 -1 -1\n"
      "3 0\n0 0.5 1 1 2\n-1 0 2 -1 -1\n-1 0 3";
  const std::string rf_loop =
      "ccpred-rf-v1\n1\n3 4\n0 0.5 1 1 2\n1 0.5 2 0 2\n-1 0 3 -1 -1\n"
      "0 0 0 0\n";
  const std::string gb_rate = "ccpred-gb-v1\n1 5 5\n1 0\n-1 0 2 -1 -1\n";
  const std::string gb_orphan =
      "ccpred-gb-v1\n1 0.1 5\n4 4\n0 0.5 1 1 2\n-1 0 2 -1 -1\n"
      "-1 0 3 -1 -1\n-1 0 4 -1 -1\n0 0 0 0\n";
  const std::string tree_orphan =
      "ccpred-tree-v1\n2 1\n-1 0 1 -1 -1\n-1 0 2 -1 -1\n0\n";
  const std::pair<std::string, std::string> cases[] = {
      {load_error([&] { deserialize_gb(gb_cut); }),
       "GB model file: stage 1: truncated node record 2"},
      {load_error([&] { deserialize_rf(rf_loop); }),
       "RF model file: tree 0: node 1 has child 0 before it"},
      {load_error([&] { deserialize_gb(gb_rate); }),
       "GB model file: learning rate 5 is not in (0, 1]"},
      {load_error([&] { deserialize_gb(gb_orphan); }),
       "GB model file: stage 0: node 3 has no parent"},
      {load_error([&] { deserialize_tree(tree_orphan); }),
       "tree file: node 1 has no parent"},
      {load_error([] { deserialize_rf("ccpred-gb-v1\n1\n"); }),
       "not a ccpred RF model file"},
  };
  for (const auto& [got, expect] : cases) EXPECT_EQ(got, expect);
}

TEST(SerializeNegativeTest, ModelsWiderThanTheStoreAreRefused) {
  // A store keeps a split feature in one byte, so a GB or RF model is at
  // most kMaxFeatures wide: the loader refuses a wider tree by its
  // importance record's width, naming the tree, and a fit refuses a wider
  // matrix before it builds anything.
  std::string wide_body = "1 300\n-1 0 2 -1 -1\n0";
  for (int i = 1; i < 300; ++i) wide_body += " 0";
  wide_body += "\n";
  EXPECT_EQ(load_error([&] {
              deserialize_gb("ccpred-gb-v1\n1 0.1 5\n" + wide_body);
            }),
            "GB model file: stage 0: 300 features; a tree model holds at "
            "most 255");
  EXPECT_EQ(load_error([&] {
              deserialize_rf("ccpred-rf-v1\n2\n1 4\n-1 0 2 -1 -1\n"
                             "0 0 0 0\n" +
                             wide_body);
            }),
            "RF model file: tree 1: 300 features; a tree model holds at "
            "most 255");

  Rng rng(5);
  linalg::Matrix x(20, 300);
  std::vector<double> y(20);
  for (std::size_t i = 0; i < 20; ++i) {
    for (std::size_t c = 0; c < 300; ++c) x(i, c) = rng.uniform(-1.0, 1.0);
    y[i] = x(i, 299);
  }
  GradientBoostingRegressor gb(1);
  EXPECT_EQ(load_error([&] { gb.fit(x, y); }),
            "GB fit: 300 features; a tree model holds at most 255");
  EXPECT_FALSE(gb.is_fitted());
  RandomForestRegressor rf(1);
  EXPECT_EQ(load_error([&] { rf.fit(x, y); }),
            "RF fit: 300 features; a tree model holds at most 255");
}

// ------------------------------------------------------ earlier artifacts

std::string fixture(const std::string& name) {
  return read_artifact(std::string(CCPRED_TEST_DATA_DIR) + "/" + name);
}

TEST(LegacyArtifactTest, LoadsWithTheSameBitsAndResavesCanonically) {
  // tests/data holds a 4-stage GB and a 3-tree RF (depth 3, 4 features)
  // written at commit b34d588, whose store still kept every internal
  // node's mean target and wrote it in the node's value field, beside that
  // code's predictions for 12 rows (training rows, fresh rows, and all-NaN,
  // +inf and -inf rows): each line is the row's 4 features, then the GB
  // and the RF prediction, at 17 significant digits. This store loads
  // them, predicts the same bits, and re-saves them with 0 in exactly the
  // internal nodes' value fields.
  const std::string gb_text = fixture("legacy-gb.model");
  const std::string rf_text = fixture("legacy-rf.model");
  const auto gb = deserialize_gb(gb_text);
  const auto rf = deserialize_rf(rf_text);

  const auto rows = split(trim(fixture("legacy-predictions.txt")), '\n');
  ASSERT_EQ(rows.size(), 12u);
  linalg::Matrix x(rows.size(), 4);
  std::vector<double> gb_expect, rf_expect;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto fields = split(rows[i], ' ');
    ASSERT_EQ(fields.size(), 6u) << rows[i];
    for (std::size_t c = 0; c < 4; ++c) x(i, c) = parse_double(fields[c]);
    gb_expect.push_back(parse_double(fields[4]));
    rf_expect.push_back(parse_double(fields[5]));
  }
  const auto gb_got = gb.predict(x);
  const auto rf_got = rf.predict(x);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(gb_got[i]),
              std::bit_cast<std::uint64_t>(gb_expect[i]))
        << "GB row " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(rf_got[i]),
              std::bit_cast<std::uint64_t>(rf_expect[i]))
        << "RF row " << i;
  }

  const std::pair<std::string, std::string> resaved[] = {
      {gb_text, serialize_gb(gb)}, {rf_text, serialize_rf(rf)}};
  for (const auto& [before, after] : resaved) {
    const auto old_lines = split(before, '\n');
    const auto new_lines = split(after, '\n');
    ASSERT_EQ(old_lines.size(), new_lines.size());
    std::size_t internal = 0;
    for (std::size_t i = 0; i < old_lines.size(); ++i) {
      if (old_lines[i] == new_lines[i]) continue;
      SCOPED_TRACE(old_lines[i]);
      auto old_fields = split(old_lines[i], ' ');
      const auto new_fields = split(new_lines[i], ' ');
      ASSERT_EQ(old_fields.size(), 5u);
      ASSERT_NE(old_fields[0], "-1");
      EXPECT_EQ(new_fields[2], "0");
      old_fields[2] = "0";
      EXPECT_EQ(new_fields, old_fields);
      ++internal;
    }
    EXPECT_GT(internal, 0u);
  }
}

// ------------------------------------------------------------ golden bytes

TEST(SerializeGoldenTest, BytesMatchTheStreamCodec) {
  // Sizes and FNV-1a checksums recorded when the writer started emitting
  // 0 for every internal node's value (the store keeps none); the files
  // are otherwise the ostream codec's bytes, which the to_chars writer
  // reproduced exactly. The file format must not move by one byte.
  const auto gb = serialize_gb(small_gb(7));
  EXPECT_EQ(gb.size(), 228382u);
  EXPECT_EQ(fnv1a64(gb), 0x9e9f79ddb6476304ULL);

  const auto data = test::make_nonlinear(200, 0.05, 11);
  RandomForestRegressor rf(15);
  rf.fit(data.x, data.y);
  const auto text = serialize_rf(rf);
  EXPECT_EQ(text.size(), 96266u);
  EXPECT_EQ(fnv1a64(text), 0xca6936d05e76386cULL);
}

TEST(SerializeGoldenTest, DoublesFormatLikePrecision17Streams) {
  // Every finite bit pattern class — normal, subnormal, signed zero,
  // integral, extreme exponents — formats exactly as an ostream at
  // precision 17 does, and parses back to the same bits.
  Rng rng(17);
  std::vector<double> values = {0.0,  -0.0,   1.0,     0.1,    1.0 / 3.0,
                                1e16, 1e17,   1e-5,    1e-4,   123456789.0,
                                5e-324, 2.2250738585072014e-308,
                                1.7976931348623157e308, -2.5e-5};
  while (values.size() < 4000) {
    const auto bits = (static_cast<std::uint64_t>(rng.uniform_int(
                           0, std::numeric_limits<std::int64_t>::max()))
                       << 1) ^
                      static_cast<std::uint64_t>(rng.uniform_int(0, 1));
    const double v = std::bit_cast<double>(bits);
    if (std::isfinite(v)) values.push_back(v);
  }
  std::ostringstream expect;
  expect.precision(17);
  expect << "ccpred-tree-v1\n1 " << values.size() << "\n-1 0 0 -1 -1\n";
  for (std::size_t i = 0; i < values.size(); ++i) {
    expect << (i ? " " : "") << values[i];
  }
  expect << '\n';
  const auto tree =
      DecisionTreeRegressor::from_parts({}, {TreeNode{}}, values);
  const auto text = serialize_tree(tree);
  ASSERT_EQ(text, expect.str());
  const auto restored = deserialize_tree(text).raw_importance();
  ASSERT_EQ(restored.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(restored[i]),
              std::bit_cast<std::uint64_t>(values[i]))
        << values[i];
  }
}

// ------------------------------------------------------------ atomic save

TEST(ArtifactWriteTest, SaveReplacesTheFileUnderAnOpenReader) {
  // A reader that opened the artifact before a republish keeps reading the
  // complete old bytes: save_gb renames a new file over the path instead
  // of truncating the one the reader holds. No temp file is left behind.
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "ccpred_serialize_atomic";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = (dir / "aurora-gb.model").string();
  const auto old_model = small_gb(1);
  const auto new_model = small_gb(2);
  ASSERT_NE(serialize_gb(old_model), serialize_gb(new_model));

  save_gb(old_model, path);
  std::ifstream reader(path, std::ios::binary);
  ASSERT_TRUE(reader.good());
  save_gb(new_model, path);
  const std::string seen((std::istreambuf_iterator<char>(reader)),
                         std::istreambuf_iterator<char>());
  EXPECT_EQ(seen, serialize_gb(old_model));
  EXPECT_EQ(read_artifact(path), serialize_gb(new_model));
  for (const auto& entry : fs::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().filename().string().find(".tmp."),
              std::string::npos)
        << entry.path();
  }
  fs::remove_all(dir);
}

// ------------------------------------------------------------ streamed save

namespace fs = std::filesystem;

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

TEST(ArtifactWriteTest, StreamedSaveWritesSerializedBytesAndStampsThem) {
  // Models big enough that the streaming writer flushes several 64 KiB
  // chunks: each file holds exactly serialize_*'s bytes, and the stamp
  // carries the hash the registry would compute from the file and the
  // file's mtime, so a publisher never needs to read its artifact back.
  const fs::path dir = fresh_dir("ccpred_serialize_stream");
  const auto data = test::make_nonlinear(200, 0.05, 3);
  GradientBoostingRegressor gb(80);
  gb.fit(data.x, data.y);
  RandomForestRegressor rf(120);
  rf.fit(data.x, data.y);
  const std::string gb_path = (dir / "aurora-gb.model").string();
  const std::string rf_path = (dir / "aurora-rf.model").string();
  const struct {
    std::string path;
    ArtifactStamp stamp;
    std::string expect;
  } saved[] = {{gb_path, save_gb(gb, gb_path), serialize_gb(gb)},
               {rf_path, save_rf(rf, rf_path), serialize_rf(rf)}};
  for (const auto& [path, stamp, expect] : saved) {
    SCOPED_TRACE(path);
    const std::string bytes = read_artifact(path);
    EXPECT_GT(bytes.size(), 8u * 64 * 1024);
    EXPECT_EQ(bytes, expect);
    EXPECT_EQ(stamp.content_hash, fnv1a64(bytes));
    EXPECT_EQ(stamp.mtime, fs::last_write_time(path));
  }
  fs::remove_all(dir);
}

TEST(ArtifactWriteTest, SaveIntoAMissingDirectoryThrowsAndLeavesNoTempFile) {
  const fs::path dir = fresh_dir("ccpred_serialize_missing");
  const fs::path missing = dir / "missing";
  const auto data = test::make_nonlinear(200, 0.05, 11);
  RandomForestRegressor rf(5);
  rf.fit(data.x, data.y);
  EXPECT_THROW(save_gb(small_gb(1), (missing / "aurora-gb.model").string()),
               Error);
  EXPECT_THROW(save_rf(rf, (missing / "aurora-rf.model").string()), Error);
  EXPECT_FALSE(fs::exists(missing));
  EXPECT_TRUE(fs::is_empty(dir));
  fs::remove_all(dir);
}

}  // namespace
}  // namespace ccpred::ml
