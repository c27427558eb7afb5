// Unit tests for the dataset layer: container, problem lists, campaign
// generator, splits and scalers, plus the byte-stable model artifacts the
// daemon trains on those campaigns.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>

#include "ccpred/common/strings.hpp"
#include "ccpred/core/serialize.hpp"
#include "ccpred/data/dataset.hpp"
#include "ccpred/data/generator.hpp"
#include "ccpred/data/problems.hpp"
#include "ccpred/data/scaler.hpp"
#include "ccpred/data/split.hpp"
#include "ccpred/serve/model_registry.hpp"

namespace ccpred::data {
namespace {

Dataset tiny_dataset() {
  Dataset d;
  d.add({10, 100, 4, 40}, 50.0);
  d.add({10, 100, 8, 40}, 30.0);
  d.add({20, 200, 4, 50}, 200.0);
  d.add({20, 200, 16, 50}, 80.0);
  return d;
}

// ---------- Dataset ----------

TEST(DatasetTest, AddAndAccess) {
  const auto d = tiny_dataset();
  EXPECT_EQ(d.size(), 4u);
  EXPECT_EQ(d.config(1).nodes, 8);
  EXPECT_DOUBLE_EQ(d.target(2), 200.0);
  EXPECT_THROW(d.config(4), Error);
}

TEST(DatasetTest, RejectsInvalidRows) {
  Dataset d;
  EXPECT_THROW(d.add({10, 100, 4, 40}, 0.0), Error);
  EXPECT_THROW(d.add({10, 100, 4, 40}, -1.0), Error);
  EXPECT_THROW(d.add({0, 100, 4, 40}, 1.0), Error);
}

TEST(DatasetTest, RejectsNonFiniteWallTimes) {
  Dataset d;
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(d.add({10, 100, 4, 40}, inf), Error);
  EXPECT_THROW(d.add({10, 100, 4, 40}, -inf), Error);
  EXPECT_THROW(d.add({10, 100, 4, 40}, std::nan("")), Error);
  EXPECT_TRUE(d.empty());
}

/// The message of the ccpred::Error that loading `csv` as a dataset throws,
/// or "" when it loads.
std::string from_csv_error(const std::string& csv) {
  try {
    Dataset::from_csv(parse_csv(csv));
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(DatasetTest, FromCsvRejectsCellsThatAreNoRunField) {
  // Feature cells are checked before the cast to int, which is undefined
  // for NaN or a value outside int's range.
  const std::string header = "O,V,nodes,tilesize,time_s\n44,260,16,60,1.5\n";
  const std::pair<std::string, std::string> cases[] = {
      {"44,260,16,60,inf", "time_s"},
      {"nan,260,16,60,1.5", "column O:"},
      {"44,1e300,16,60,1.5", "column V:"},
      {"44,260,2.5,60,1.5", "column nodes:"},
  };
  for (const auto& [row, column] : cases) {
    const std::string what = from_csv_error(header + row + "\n");
    EXPECT_NE(what.find(column), std::string::npos)
        << row << " -> \"" << what << "\"";
  }
  EXPECT_EQ(from_csv_error(header), "");
}

TEST(DatasetTest, FeaturesMatrixLayout) {
  const auto d = tiny_dataset();
  const auto x = d.features();
  EXPECT_EQ(x.rows(), 4u);
  EXPECT_EQ(x.cols(), kNumFeatures);
  EXPECT_DOUBLE_EQ(x(0, kFeatO), 10.0);
  EXPECT_DOUBLE_EQ(x(1, kFeatNodes), 8.0);
  EXPECT_DOUBLE_EQ(x(3, kFeatTile), 50.0);
}

TEST(DatasetTest, NodeHours) {
  const auto d = tiny_dataset();
  EXPECT_NEAR(d.node_hours(0), 4.0 * 50.0 / 3600.0, 1e-12);
}

TEST(DatasetTest, SelectPreservesOrder) {
  const auto d = tiny_dataset();
  const auto s = d.select({3, 0});
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(s.config(0).nodes, 16);
  EXPECT_DOUBLE_EQ(s.target(1), 50.0);
}

TEST(DatasetTest, GroupByProblem) {
  const auto groups = tiny_dataset().group_by_problem();
  EXPECT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups.at({10, 100}).size(), 2u);
  EXPECT_EQ(groups.at({20, 200}), (std::vector<std::size_t>{2, 3}));
  const auto problems = tiny_dataset().problems();
  EXPECT_EQ(problems.front(), (std::pair{10, 100}));
}

TEST(DatasetTest, CsvRoundTrip) {
  const auto d = tiny_dataset();
  const auto back = Dataset::from_csv(d.to_csv());
  ASSERT_EQ(back.size(), d.size());
  for (std::size_t i = 0; i < d.size(); ++i) {
    EXPECT_EQ(back.config(i), d.config(i));
    EXPECT_DOUBLE_EQ(back.target(i), d.target(i));
  }
}

// ---------- problems ----------

TEST(ProblemsTest, PaperProblemCounts) {
  EXPECT_EQ(aurora_problems().size(), 22u);    // Table 3 rows
  EXPECT_EQ(frontier_problems().size(), 20u);  // Table 4 rows
}

TEST(ProblemsTest, LookupByMachine) {
  EXPECT_EQ(&problems_for("aurora"), &aurora_problems());
  EXPECT_EQ(&problems_for("frontier"), &frontier_problems());
  EXPECT_THROW(problems_for("summit"), Error);
}

TEST(ProblemsTest, KnownEntries) {
  EXPECT_EQ(aurora_problems().front(), (Problem{44, 260}));
  EXPECT_EQ(aurora_problems().back(), (Problem{345, 791}));
  EXPECT_EQ(frontier_problems().front(), (Problem{49, 663}));
}

// ---------- generator ----------

class GeneratorTest : public ::testing::Test {
 protected:
  sim::CcsdSimulator simulator_{sim::MachineModel::aurora()};
};

TEST_F(GeneratorTest, PaperTotalsMatchTable1) {
  EXPECT_EQ(paper_total_rows("aurora"), 2329u);
  EXPECT_EQ(paper_test_rows("aurora"), 583u);
  EXPECT_EQ(paper_total_rows("frontier"), 2454u);
  EXPECT_EQ(paper_test_rows("frontier"), 614u);
  EXPECT_THROW(paper_total_rows("summit"), Error);
}

TEST_F(GeneratorTest, HitsTargetTotalExactly) {
  GeneratorOptions opt;
  opt.target_total = 333;
  const auto ds = generate_dataset(simulator_, aurora_problems(), opt);
  EXPECT_EQ(ds.size(), 333u);
}

TEST_F(GeneratorTest, CoversAllProblems) {
  GeneratorOptions opt;
  opt.target_total = 440;
  const auto ds = generate_dataset(simulator_, aurora_problems(), opt);
  EXPECT_EQ(ds.problems().size(), aurora_problems().size());
}

TEST_F(GeneratorTest, DeterministicForSameSeed) {
  GeneratorOptions opt;
  opt.target_total = 200;
  const std::vector<Problem> probs = {{85, 698}, {134, 951}};
  const auto a = generate_dataset(simulator_, probs, opt);
  const auto b = generate_dataset(simulator_, probs, opt);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.config(i), b.config(i));
    EXPECT_DOUBLE_EQ(a.target(i), b.target(i));
  }
}

TEST_F(GeneratorTest, DifferentSeedsGiveDifferentNoise) {
  GeneratorOptions a_opt;
  a_opt.target_total = 100;
  GeneratorOptions b_opt = a_opt;
  b_opt.seed = a_opt.seed + 1;
  const std::vector<Problem> probs = {{85, 698}};
  const auto a = generate_dataset(simulator_, probs, a_opt);
  const auto b = generate_dataset(simulator_, probs, b_opt);
  int identical = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    identical += (a.target(i) == b.target(i));
  }
  EXPECT_LT(identical, 5);
}

TEST_F(GeneratorTest, AllRowsFeasible) {
  GeneratorOptions opt;
  opt.target_total = 300;
  const auto ds = generate_dataset(simulator_, aurora_problems(), opt);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    EXPECT_TRUE(simulator_.feasible(ds.config(i)));
  }
}

TEST_F(GeneratorTest, RepeatMeasurementsHaveIndependentNoise) {
  GeneratorOptions opt;
  opt.target_total = 200;  // >> configs of one problem -> repeats
  const std::vector<Problem> probs = {{85, 698}};
  const auto ds = generate_dataset(simulator_, probs, opt);
  std::map<std::tuple<int, int>, std::set<double>> times;
  for (std::size_t i = 0; i < ds.size(); ++i) {
    times[{ds.config(i).nodes, ds.config(i).tile}].insert(ds.target(i));
  }
  // At least one configuration measured more than once, with distinct
  // noisy values.
  bool found_repeat = false;
  for (const auto& [key, vals] : times) {
    if (vals.size() > 1) found_repeat = true;
  }
  EXPECT_TRUE(found_repeat);
}

TEST_F(GeneratorTest, NodeGridRespectsBounds) {
  const auto grid = node_grid(simulator_, {280, 1040});
  EXPECT_FALSE(grid.empty());
  EXPECT_GE(grid.front(), simulator_.min_nodes(280, 1040));
  EXPECT_TRUE(std::is_sorted(grid.begin(), grid.end()));
  // Small problems don't sweep the full machine.
  const auto small = node_grid(simulator_, {44, 260});
  EXPECT_LE(small.back(), 110);
}

TEST_F(GeneratorTest, NodeGridNeverInvertsForExtremeProblems) {
  // Regression: the work floor (flops / 1.2e16) of a huge problem can
  // exceed the sweep cap (clamped at 900); the floor must be clamped to
  // the cap instead of inverting the range into an empty grid.
  for (const Problem p : {Problem{600, 3000}, Problem{800, 4000}}) {
    const auto grid = node_grid(simulator_, p);
    ASSERT_FALSE(grid.empty()) << "O=" << p.o << " V=" << p.v;
    EXPECT_TRUE(std::is_sorted(grid.begin(), grid.end()));
    EXPECT_GE(grid.front(), simulator_.min_nodes(p.o, p.v));
  }
  // Tiny problems keep their small sweep (floor below cap: unaffected).
  const auto tiny = node_grid(simulator_, {44, 260});
  ASSERT_FALSE(tiny.empty());
  EXPECT_GE(tiny.front(), 5);
  EXPECT_LE(tiny.back(), 110);
}

/// FNV-1a over every row of a campaign: its (O, V, nodes, tile) and the
/// bit pattern of its target.
std::uint64_t campaign_checksum(const Dataset& ds) {
  const auto bytes = [](const auto& v) {
    return std::string_view(reinterpret_cast<const char*>(&v), sizeof v);
  };
  std::uint64_t h = fnv1a64("");
  for (std::size_t i = 0; i < ds.size(); ++i) {
    const auto& c = ds.config(i);
    const std::int64_t ints[] = {c.o, c.v, c.nodes, c.tile};
    h = fnv1a64(bytes(ints), h);
    h = fnv1a64(bytes(ds.target(i)), h);
  }
  return h;
}

TEST(GeneratorGoldenTest, DaemonDefaultCampaignsAreBitStable) {
  // The campaigns ccpred_serverd trains on by default (600 rows, seed
  // 2025). The checksums were recorded with the scheduler that rescanned
  // every worker per step; any change to a simulated time shows up here.
  const std::pair<sim::MachineModel, std::uint64_t> cases[] = {
      {sim::MachineModel::aurora(), 0xb7cf681cf3a653beULL},
      {sim::MachineModel::frontier(), 0x4ba105038025d059ULL},
  };
  for (const auto& [machine, expect] : cases) {
    const sim::CcsdSimulator simulator(machine);
    GeneratorOptions opt;
    opt.seed = 2025;
    opt.target_total = 600;
    const auto ds =
        generate_dataset(simulator, problems_for(machine.name), opt);
    ASSERT_EQ(ds.size(), 600u);
    EXPECT_EQ(campaign_checksum(ds), expect) << machine.name;
  }
}

TEST(ModelGoldenTest, DaemonDefaultArtifactsAreByteStable) {
  // The GB artifacts ccpred_serverd trains on a cold start: default
  // RegistryOptions (600 rows, seed 2025, 750 stages). Sizes and FNV-1a
  // checksums were recorded when the writer started emitting 0 for every
  // internal node's value (the files are otherwise the bytes of the exact
  // builder that sorted every feature at every node); any change to a
  // fitted tree shows up here.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "ccpred_data_model_golden";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::tuple<std::string, std::size_t, std::uint64_t> cases[] = {
      {"aurora", 4310649u, 0x31f1d7bc5f80ec76ULL},
      {"frontier", 4323266u, 0xf7c5a38d74224d05ULL},
  };
  serve::ModelRegistry registry(dir.string());
  for (const auto& [machine, size, expect] : cases) {
    const std::string bytes =
        ml::read_artifact(registry.train_artifact(machine, "gb"));
    EXPECT_EQ(bytes.size(), size) << machine;
    EXPECT_EQ(fnv1a64(bytes), expect) << machine;
  }
  std::filesystem::remove_all(dir);
}

TEST_F(GeneratorTest, PaperDatasetSizes) {
  const auto ds = paper_dataset(simulator_);
  EXPECT_EQ(ds.size(), 2329u);
  EXPECT_EQ(ds.problems().size(), 22u);
}

// ---------- split ----------

TEST(SplitTest, ExactTestCount) {
  GeneratorOptions opt;
  opt.target_total = 400;
  sim::CcsdSimulator simulator(sim::MachineModel::aurora());
  const auto ds = generate_dataset(simulator, aurora_problems(), opt);
  Rng rng(5);
  const auto split = stratified_split(ds, 100, rng);
  EXPECT_EQ(split.test.size(), 100u);
  EXPECT_EQ(split.train.size(), 300u);
}

TEST(SplitTest, PartitionIsDisjointAndComplete) {
  GeneratorOptions opt;
  opt.target_total = 300;
  sim::CcsdSimulator simulator(sim::MachineModel::aurora());
  const auto ds = generate_dataset(simulator, aurora_problems(), opt);
  Rng rng(6);
  const auto split = stratified_split(ds, 75, rng);
  std::set<std::size_t> all(split.train.begin(), split.train.end());
  for (auto i : split.test) {
    EXPECT_TRUE(all.insert(i).second) << "row in both sets";
  }
  EXPECT_EQ(all.size(), ds.size());
}

TEST(SplitTest, StratifiedByProblem) {
  GeneratorOptions opt;
  opt.target_total = 400;
  sim::CcsdSimulator simulator(sim::MachineModel::aurora());
  const auto ds = generate_dataset(simulator, aurora_problems(), opt);
  Rng rng(7);
  const auto tt = apply_split(ds, stratified_split(ds, 100, rng));
  // Every problem appears in both sets.
  EXPECT_EQ(tt.train.problems().size(), ds.problems().size());
  EXPECT_EQ(tt.test.problems().size(), ds.problems().size());
}

TEST(SplitTest, FractionHelper) {
  Dataset d;
  for (int i = 0; i < 40; ++i) d.add({10, 100, 4 + i, 40}, 10.0 + i);
  Rng rng(8);
  const auto split = stratified_split_fraction(d, 0.25, rng);
  EXPECT_EQ(split.test.size(), 10u);
}

TEST(SplitTest, InvalidCountsThrow) {
  const auto d = tiny_dataset();
  Rng rng(9);
  EXPECT_THROW(stratified_split(d, 0, rng), Error);
  EXPECT_THROW(stratified_split(d, 4, rng), Error);
  EXPECT_THROW(stratified_split_fraction(d, 1.5, rng), Error);
}

TEST(SplitTest, CoverageGuaranteesTrainCopy) {
  // Dataset where each config appears twice: after coverage, every test
  // config must also exist in train.
  Dataset d;
  for (int c = 0; c < 12; ++c) {
    for (int rep = 0; rep < 2; ++rep) {
      d.add({10, 100, 5 + c, 40}, 10.0 + c + 0.1 * rep);
    }
  }
  Rng rng(10);
  auto split = stratified_split(d, 8, rng);
  ensure_config_coverage(d, split);
  std::set<int> train_nodes;
  for (auto i : split.train) train_nodes.insert(d.config(i).nodes);
  for (auto i : split.test) {
    EXPECT_TRUE(train_nodes.count(d.config(i).nodes))
        << "uncovered config nodes=" << d.config(i).nodes;
  }
  EXPECT_EQ(split.test.size(), 8u);  // sizes preserved
}

// ---------- scalers ----------

TEST(ScalerTest, StandardizesColumns) {
  linalg::Matrix x = {{1, 10}, {2, 20}, {3, 30}};
  StandardScaler scaler;
  const auto z = scaler.fit_transform(x);
  for (std::size_t c = 0; c < 2; ++c) {
    double mean = 0.0;
    for (std::size_t i = 0; i < 3; ++i) mean += z(i, c);
    EXPECT_NEAR(mean / 3.0, 0.0, 1e-12);
    double var = 0.0;
    for (std::size_t i = 0; i < 3; ++i) var += z(i, c) * z(i, c);
    EXPECT_NEAR(var / 3.0, 1.0, 1e-12);
  }
}

TEST(ScalerTest, InverseRecovers) {
  linalg::Matrix x = {{1.5, -4}, {2.5, 8}, {0.5, 2}};
  StandardScaler scaler;
  const auto back = scaler.inverse_transform(scaler.fit_transform(x));
  EXPECT_LT(back.max_abs_diff(x), 1e-12);
}

TEST(ScalerTest, ConstantColumnIsSafe) {
  linalg::Matrix x = {{5, 1}, {5, 2}};
  StandardScaler scaler;
  const auto z = scaler.fit_transform(x);
  EXPECT_DOUBLE_EQ(z(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(z(1, 0), 0.0);
}

TEST(ScalerTest, UsageErrorsThrow) {
  StandardScaler scaler;
  EXPECT_THROW(scaler.transform(linalg::Matrix(1, 1)), Error);
  scaler.fit(linalg::Matrix(2, 2, 1.0));
  EXPECT_THROW(scaler.transform(linalg::Matrix(1, 3)), Error);
  EXPECT_THROW(scaler.fit(linalg::Matrix()), Error);
}

TEST(TargetScalerTest, RoundTripAndMoments) {
  TargetScaler scaler;
  const std::vector<double> y = {2, 4, 6, 8};
  const auto z = scaler.fit_transform(y);
  double mean = 0.0;
  for (double v : z) mean += v;
  EXPECT_NEAR(mean, 0.0, 1e-12);
  const auto back = scaler.inverse_transform(z);
  for (std::size_t i = 0; i < y.size(); ++i) EXPECT_NEAR(back[i], y[i], 1e-12);
  EXPECT_DOUBLE_EQ(scaler.mean(), 5.0);
}

TEST(TargetScalerTest, EmptyThrows) {
  TargetScaler scaler;
  EXPECT_THROW(scaler.fit({}), Error);
  EXPECT_THROW(scaler.transform({1.0}), Error);
}

}  // namespace
}  // namespace ccpred::data
