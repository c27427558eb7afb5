// Unit tests for the common utilities: rng, strings, csv, thread pool,
// table formatting and the check macros.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <numeric>
#include <set>
#include <thread>

#include "ccpred/common/csv.hpp"
#include "ccpred/common/error.hpp"
#include "ccpred/common/rng.hpp"
#include "ccpred/common/stopwatch.hpp"
#include "ccpred/common/strings.hpp"
#include "ccpred/common/table.hpp"
#include "ccpred/common/thread_pool.hpp"

namespace ccpred {
namespace {

// ---------- error macros ----------

TEST(ErrorTest, CheckThrowsWithContext) {
  try {
    CCPRED_CHECK_MSG(1 == 2, "custom detail " << 42);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("custom detail 42"), std::string::npos);
  }
}

TEST(ErrorTest, CheckPassesSilently) {
  EXPECT_NO_THROW(CCPRED_CHECK(2 + 2 == 4));
}

// ---------- rng ----------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(RngTest, UniformMeanCloseToHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, UniformIntCoversFullRangeInclusive) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(3, 7));
  EXPECT_EQ(seen, (std::set<std::int64_t>{3, 4, 5, 6, 7}));
}

TEST(RngTest, UniformIntSingleValue) {
  Rng rng(9);
  EXPECT_EQ(rng.uniform_int(5, 5), 5);
}

TEST(RngTest, UniformIntBadRangeThrows) {
  Rng rng(9);
  EXPECT_THROW(rng.uniform_int(3, 2), Error);
}

TEST(RngTest, NormalMoments) {
  Rng rng(13);
  const int n = 200000;
  double sum = 0.0;
  double sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(RngTest, NormalScaled) {
  Rng rng(13);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(RngTest, NormalNegativeStddevThrows) {
  Rng rng(1);
  EXPECT_THROW(rng.normal(0.0, -1.0), Error);
}

TEST(RngTest, LognormalMedian) {
  Rng rng(17);
  std::vector<double> v(20001);
  for (auto& x : v) x = rng.lognormal_median(5.0, 0.3);
  std::sort(v.begin(), v.end());
  EXPECT_NEAR(v[v.size() / 2], 5.0, 0.15);
  EXPECT_GT(v.front(), 0.0);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(19);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, SplitStreamsIndependent) {
  Rng parent(21);
  Rng child1 = parent.split();
  Rng child2 = parent.split();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (child1.next() == child2.next());
  EXPECT_LT(same, 2);
}

TEST(RngTest, SampleWithoutReplacementUniqueAndInRange) {
  Rng rng(23);
  const auto s = rng.sample_without_replacement(100, 30);
  EXPECT_EQ(s.size(), 30u);
  std::set<std::size_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 30u);
  for (auto i : s) EXPECT_LT(i, 100u);
}

TEST(RngTest, SampleAllIsPermutation) {
  Rng rng(23);
  auto s = rng.sample_without_replacement(10, 10);
  std::sort(s.begin(), s.end());
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(s[i], i);
}

TEST(RngTest, SampleTooManyThrows) {
  Rng rng(23);
  EXPECT_THROW(rng.sample_without_replacement(5, 6), Error);
}

TEST(RngTest, BootstrapIndicesInRange) {
  Rng rng(29);
  const auto b = rng.bootstrap_indices(50);
  EXPECT_EQ(b.size(), 50u);
  for (auto i : b) EXPECT_LT(i, 50u);
}

TEST(RngTest, PermutationIsBijection) {
  Rng rng(31);
  auto p = rng.permutation(64);
  std::sort(p.begin(), p.end());
  for (std::size_t i = 0; i < p.size(); ++i) EXPECT_EQ(p[i], i);
}

TEST(RngTest, ShuffleKeepsMultiset) {
  Rng rng(37);
  std::vector<int> v = {1, 2, 2, 3, 5, 8};
  auto w = v;
  rng.shuffle(w);
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

// ---------- strings ----------

TEST(StringsTest, SplitBasic) {
  const auto f = split("a,b,c", ',');
  ASSERT_EQ(f.size(), 3u);
  EXPECT_EQ(f[0], "a");
  EXPECT_EQ(f[2], "c");
}

TEST(StringsTest, SplitPreservesEmptyFields) {
  EXPECT_EQ(split("a,,b", ',').size(), 3u);
  EXPECT_EQ(split(",", ',').size(), 2u);
  EXPECT_EQ(split("", ',').size(), 1u);
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(trim("  x y  "), "x y");
  EXPECT_EQ(trim("\t\n a \r"), "a");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(StringsTest, ParseDouble) {
  EXPECT_DOUBLE_EQ(parse_double("3.5"), 3.5);
  EXPECT_DOUBLE_EQ(parse_double(" -2e3 "), -2000.0);
  EXPECT_THROW(parse_double("abc"), Error);
  EXPECT_THROW(parse_double("1.5x"), Error);
  EXPECT_THROW(parse_double(""), Error);
}

TEST(StringsTest, ParseInt) {
  EXPECT_EQ(parse_int("42"), 42);
  EXPECT_EQ(parse_int("-7"), -7);
  EXPECT_THROW(parse_int("4.2"), Error);
  EXPECT_THROW(parse_int(""), Error);
}

TEST(StringsTest, FormatDouble) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(1.0, 0), "1");
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(starts_with("hello", "he"));
  EXPECT_FALSE(starts_with("hello", "lo"));
  EXPECT_TRUE(starts_with("x", ""));
}

// ---------- csv ----------

TEST(CsvTest, ParseAndAccess) {
  const auto t = parse_csv("a,b\n1,2\n3,4\n");
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.num_cols(), 2u);
  EXPECT_EQ(t.column("b"), 1u);
  EXPECT_DOUBLE_EQ(t.rows[1][0], 3.0);
}

TEST(CsvTest, MissingColumnThrows) {
  const auto t = parse_csv("a,b\n1,2\n");
  EXPECT_THROW(t.column("c"), Error);
}

TEST(CsvTest, RaggedRowThrows) {
  EXPECT_THROW(parse_csv("a,b\n1\n"), Error);
}

TEST(CsvTest, NonNumericThrows) {
  EXPECT_THROW(parse_csv("a\nxyz\n"), Error);
}

TEST(CsvTest, EmptyTextThrows) { EXPECT_THROW(parse_csv(""), Error); }

TEST(CsvTest, SkipsBlankLinesAndCr) {
  const auto t = parse_csv("a,b\r\n\r\n1,2\r\n");
  EXPECT_EQ(t.num_rows(), 1u);
}

TEST(CsvTest, RoundTrip) {
  CsvTable t;
  t.header = {"x", "y"};
  t.rows = {{1.5, -2.25}, {3.0, 4.125}};
  const auto back = parse_csv(to_csv(t));
  ASSERT_EQ(back.num_rows(), 2u);
  EXPECT_DOUBLE_EQ(back.rows[0][1], -2.25);
  EXPECT_DOUBLE_EQ(back.rows[1][0], 3.0);
}

TEST(CsvTest, FileRoundTrip) {
  CsvTable t;
  t.header = {"v"};
  t.rows = {{42.0}};
  const std::string path = ::testing::TempDir() + "/ccpred_csv_test.csv";
  write_csv(t, path);
  const auto back = read_csv(path);
  EXPECT_DOUBLE_EQ(back.rows[0][0], 42.0);
}

TEST(CsvTest, UnreadableFileThrows) {
  EXPECT_THROW(read_csv("/nonexistent/dir/file.csv"), Error);
}

// ---------- thread pool ----------

TEST(ThreadPoolTest, GlobalPoolIsSingleton) {
  EXPECT_EQ(&ThreadPool::global(), &ThreadPool::global());
}

TEST(ThreadPoolTest, PostRunsFireAndForgetTask) {
  ThreadPool pool(2);
  std::promise<int> done;
  pool.post([&] { done.set_value(7); });
  EXPECT_EQ(done.get_future().get(), 7);
}

TEST(ThreadPoolTest, TryPostBoundsTheQueue) {
  ThreadPool pool(1);
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  std::promise<void> started;
  pool.post([&] {
    started.set_value();
    gate.wait();
  });
  started.get_future().wait();  // the lone worker is now parked on the gate

  // With the worker busy, a limit of 2 admits two queued tasks and
  // rejects the third without blocking.
  std::atomic<int> ran{0};
  EXPECT_TRUE(pool.try_post([&] { ran++; }, 2));
  EXPECT_TRUE(pool.try_post([&] { ran++; }, 2));
  EXPECT_EQ(pool.queue_size(), 2u);
  EXPECT_FALSE(pool.try_post([&] { ran++; }, 2));
  EXPECT_EQ(pool.queue_size(), 2u);

  release.set_value();
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (ran.load() != 2 && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(ran.load(), 2);  // the rejected task never runs
  EXPECT_EQ(pool.queue_size(), 0u);
}

TEST(ThreadPoolTest, TryPostAdmitsWhenIdle) {
  ThreadPool pool(2);
  std::promise<int> done;
  EXPECT_TRUE(pool.try_post([&] { done.set_value(9); }, 1));
  EXPECT_EQ(done.get_future().get(), 9);
}

TEST(TaskGroupTest, WaitBlocksUntilAllTasksFinish) {
  ThreadPool pool(4);
  TaskGroup group(pool);
  std::atomic<int> counter{0};
  for (int i = 0; i < 64; ++i) {
    group.run([&] { counter++; });
  }
  group.wait();
  EXPECT_EQ(counter, 64);
}

TEST(TaskGroupTest, WaitRethrowsTaskException) {
  ThreadPool pool(2);
  TaskGroup group(pool);
  for (int i = 0; i < 8; ++i) {
    group.run([i] {
      if (i == 3) throw Error("task failure");
    });
  }
  EXPECT_THROW(group.wait(), Error);
}

TEST(TaskGroupTest, RemainingTasksStillRunAfterOneThrows) {
  ThreadPool pool(2);
  TaskGroup group(pool);
  std::atomic<int> ran{0};
  for (int i = 0; i < 16; ++i) {
    group.run([&ran, i] {
      ran++;
      if (i == 0) throw Error("early failure");
    });
  }
  EXPECT_THROW(group.wait(), Error);
  EXPECT_EQ(ran, 16);
}

TEST(TaskGroupTest, ReusableAfterWait) {
  ThreadPool pool(2);
  TaskGroup group(pool);
  std::atomic<int> counter{0};
  group.run([&] { counter++; });
  group.wait();
  group.run([&] { counter++; });
  group.wait();
  EXPECT_EQ(counter, 2);
}

TEST(TaskGroupTest, WaitWithNoTasksReturnsImmediately) {
  ThreadPool pool(1);
  TaskGroup group(pool);
  group.wait();  // must not hang or throw
}

// ---------- stopwatch & table ----------

TEST(StopwatchTest, MeasuresNonNegativeMonotonicTime) {
  Stopwatch w;
  const double t1 = w.elapsed_s();
  const double t2 = w.elapsed_s();
  EXPECT_GE(t1, 0.0);
  EXPECT_GE(t2, t1);
  w.reset();
  EXPECT_LT(w.elapsed_ms(), 1000.0);
}

TEST(TableTest, FormatsAlignedRows) {
  TextTable t({"name", "value"}, "demo");
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  const auto s = t.str();
  EXPECT_NE(s.find("== demo =="), std::string::npos);
  EXPECT_NE(s.find("| alpha | 1     |"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TableTest, RowWidthMismatchThrows) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(TableTest, CellHelpers) {
  EXPECT_EQ(TextTable::cell(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::cell(static_cast<long long>(7)), "7");
}

}  // namespace
}  // namespace ccpred
