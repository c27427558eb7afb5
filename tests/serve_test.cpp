// Tests for the serving subsystem: LRU cache + latency histogram
// utilities, the line protocol, the artifact registry (fallback training
// and hot reload), and the server itself — including the concurrent-
// correctness property that any interleaving of requests produces the
// same recommendations as serial execution.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <future>
#include <latch>
#include <list>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ccpred/common/error.hpp"
#include "ccpred/common/latency_histogram.hpp"
#include "ccpred/common/lru_cache.hpp"
#include "ccpred/common/rng.hpp"
#include "ccpred/common/strings.hpp"
#include "ccpred/core/gradient_boosting.hpp"
#include "ccpred/core/serialize.hpp"
#include "ccpred/data/dataset.hpp"
#include "ccpred/guidance/advisor.hpp"
#include "ccpred/serve/event_loop.hpp"
#include "ccpred/serve/model_registry.hpp"
#include "ccpred/serve/server.hpp"
#include "ccpred/serve/wire.hpp"
#include "ccpred/sim/solver.hpp"
#include "test_util.hpp"

namespace ccpred::serve {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch directory per test.
std::string scratch_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("ccpred_serve_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

/// A small fitted GB on real campaign features (4 columns), fast to train.
ml::GradientBoostingRegressor campaign_gb(int stages = 15) {
  static const auto split = test::small_campaign(250);
  ml::GradientBoostingRegressor model(stages);
  model.fit(split.train.features(), split.train.targets());
  return model;
}

// ---------------------------------------------------------------- LruCache

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  LruCache<int, int> cache(2);
  cache.put(1, 10);
  cache.put(2, 20);
  EXPECT_EQ(cache.get(1).value(), 10);  // 1 is now most recent
  cache.put(3, 30);                     // evicts 2
  EXPECT_FALSE(cache.get(2).has_value());
  EXPECT_EQ(cache.get(1).value(), 10);
  EXPECT_EQ(cache.get(3).value(), 30);
  EXPECT_EQ(cache.counters().evictions, 1u);
}

TEST(LruCacheTest, CountersTrackHitsAndMisses) {
  LruCache<int, int> cache(4);
  EXPECT_FALSE(cache.get(7).has_value());
  cache.put(7, 70);
  EXPECT_TRUE(cache.get(7).has_value());
  EXPECT_TRUE(cache.get(7).has_value());
  EXPECT_EQ(cache.counters().hits, 2u);
  EXPECT_EQ(cache.counters().misses, 1u);
  EXPECT_DOUBLE_EQ(cache.counters().hit_rate(), 2.0 / 3.0);
}

TEST(LruCacheTest, PutOverwritesAndRefreshes) {
  LruCache<int, int> cache(2);
  cache.put(1, 10);
  cache.put(2, 20);
  cache.put(1, 11);  // overwrite refreshes recency, no eviction
  EXPECT_EQ(cache.size(), 2u);
  cache.put(3, 30);  // evicts 2, not 1
  EXPECT_EQ(cache.get(1).value(), 11);
  EXPECT_FALSE(cache.get(2).has_value());
}

TEST(LruCacheTest, ZeroCapacityRejected) {
  EXPECT_THROW((LruCache<int, int>(0)), Error);
}

// ------------------------------------------------------- LatencyHistogram

TEST(LatencyHistogramTest, QuantilesAreOrderedAndBracketed) {
  LatencyHistogram h;
  for (int i = 1; i <= 1000; ++i) h.record(i * 1e-4);  // 0.1 ms .. 100 ms
  EXPECT_EQ(h.count(), 1000u);
  const double p50 = h.quantile(0.50);
  const double p95 = h.quantile(0.95);
  const double p99 = h.quantile(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  // Geometric buckets grow by 1.5x: quantiles are right within that factor.
  EXPECT_NEAR(p50, 0.050, 0.050 * 0.6);
  EXPECT_NEAR(p95, 0.095, 0.095 * 0.6);
  EXPECT_NEAR(h.mean(), 0.05005, 0.002);
}

TEST(LatencyHistogramTest, EmptyAndReset) {
  LatencyHistogram h;
  EXPECT_EQ(h.quantile(0.5), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
  h.record(0.01);
  EXPECT_EQ(h.count(), 1u);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0.0);
}

TEST(LatencyHistogramTest, ConcurrentRecordsAllCounted) {
  LatencyHistogram h;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < 1000; ++i) h.record(1e-3);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.count(), 4000u);
}

// ---------------------------------------------------------------- Protocol

TEST(ProtocolTest, ParsesFlatRecords) {
  const auto rec = parse_record(
      R"({"op":"stq","o":134,"v":951,"machine":"aurora","flag":true})");
  EXPECT_EQ(rec.at("op"), "stq");
  EXPECT_EQ(rec.at("o"), "134");
  EXPECT_EQ(rec.at("machine"), "aurora");
  EXPECT_EQ(rec.at("flag"), "true");
}

TEST(ProtocolTest, ParseRequestFillsTypedFields) {
  const auto req = parse_request(
      R"({"op":"budget","o":99,"v":718,"max_node_hours":2.5,"id":"q1"})");
  EXPECT_EQ(req.op, Op::kBudget);
  EXPECT_EQ(req.o, 99);
  EXPECT_EQ(req.v, 718);
  EXPECT_DOUBLE_EQ(req.max_node_hours, 2.5);
  EXPECT_EQ(req.id, "q1");
  EXPECT_TRUE(req.machine.empty());
}

TEST(ProtocolTest, MalformedInputsThrow) {
  EXPECT_THROW(parse_record("not json"), Error);
  EXPECT_THROW(parse_record(R"({"a":1)"), Error);          // unterminated
  EXPECT_THROW(parse_record(R"({"a":{"b":1}})"), Error);   // nested
  EXPECT_THROW(parse_record(R"({"a":1,"a":2})"), Error);   // duplicate
  EXPECT_THROW(parse_record(R"({"a":1} trailing)"), Error);
  EXPECT_THROW(parse_request(R"({"op":"warp","o":1,"v":2})"), Error);
  EXPECT_THROW(parse_request(R"({"op":"stq","o":1})"), Error);  // missing v
  EXPECT_THROW(parse_request(R"({"o":1,"v":2})"), Error);       // missing op
  EXPECT_THROW(parse_request(R"({"op":"stq","o":"x","v":2})"), Error);
  // Integers beyond int must not wrap into a different question.
  EXPECT_THROW(parse_request(R"({"op":"stq","o":4294967340,"v":260})"), Error);
  EXPECT_THROW(parse_request(R"({"op":"stq","o":44,"v":4294967556})"), Error);
  EXPECT_THROW(parse_request(
                   R"({"op":"job","o":44,"v":260,"nodes":4294967312,"tile":60})"),
               Error);
  EXPECT_THROW(parse_request(
                   R"({"op":"stq","o":44,"v":260,"deadline_ms":4294967296})"),
               Error);
  // Sizes and budgets that name no real question are refused here too.
  EXPECT_THROW(parse_request(R"({"op":"stq","o":-3,"v":260})"), Error);
  EXPECT_THROW(parse_request(R"({"op":"bq","o":44,"v":0})"), Error);
  EXPECT_THROW(
      parse_request(R"({"op":"budget","o":44,"v":260,"max_node_hours":0})"),
      Error);
  // The message goes back to the client: no checked expression, no path.
  try {
    parse_request(R"({"op":"budget","o":44,"v":260})");
    ADD_FAILURE() << "a budget without max_node_hours was accepted";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), R"(request: missing field "max_node_hours")");
  }
}

TEST(ProtocolTest, ResponseRoundTripsThroughParseRecord) {
  Response r;
  r.ok = true;
  r.op = "stq";
  r.id = "a\"b";  // embedded quote must survive escaping
  r.has_recommendation = true;
  r.nodes = 110;
  r.tile = 90;
  r.time_s = 123.456;
  r.node_hours = 3.7718;
  r.model_version = 42;
  r.sweep_size = 480;
  const auto rec = parse_record(format_response(r));
  EXPECT_EQ(rec.at("ok"), "true");
  EXPECT_EQ(rec.at("id"), "a\"b");
  EXPECT_EQ(rec.at("nodes"), "110");
  EXPECT_DOUBLE_EQ(parse_double(rec.at("time_s")), 123.456);
  EXPECT_EQ(rec.at("model_version"), "42");
}

TEST(ProtocolTest, StatsRequestNeedsNoProblemSize) {
  const auto req = parse_request(R"({"op":"stats"})");
  EXPECT_EQ(req.op, Op::kStats);
}

TEST(ProtocolTest, ALineErrorEchoesOpAndIdWhenTheLineIsARecord) {
  // The record parses but fails validation: its op and id come back as
  // sent, so a pipelining client can match the error to its request.
  const std::string bad_size = R"({"op":"stq","o":-3,"v":260,"id":"q1"})";
  const Response sized = line_error(bad_size, "rejected");
  EXPECT_FALSE(sized.ok);
  EXPECT_EQ(sized.code, "bad_request");
  EXPECT_EQ(sized.error, "rejected");
  EXPECT_EQ(sized.op, "stq");
  EXPECT_EQ(sized.id, "q1");
  // An op the server does not know is echoed as sent too.
  const Response unknown = line_error(R"({"op":"warp","id":"w"})", "rejected");
  EXPECT_EQ(unknown.op, "warp");
  EXPECT_EQ(unknown.id, "w");
  // A line that is no record is answered without either.
  const Response garbage = line_error("this is not json", "rejected");
  EXPECT_FALSE(garbage.ok);
  EXPECT_EQ(garbage.code, "bad_request");
  EXPECT_EQ(garbage.error, "rejected");
  EXPECT_TRUE(garbage.op.empty());
  EXPECT_TRUE(garbage.id.empty());
  EXPECT_EQ(format_response(garbage),
            format_response(error_response("rejected")));
}

// -------------------------------------------------------------- SweepCache

TEST(SweepCacheTest, StoresAndEvictsAcrossShards) {
  SweepCache cache(4, 2);
  const auto rec = std::make_shared<const guide::Recommendation>();
  for (int o = 1; o <= 8; ++o) {
    cache.put(SweepKey{"aurora", "gb", 1, o, o * 10}, rec);
  }
  EXPECT_LE(cache.size(), 4u);
  const auto counters = cache.counters();
  EXPECT_GE(counters.evictions, 4u);
  // Most recent key should still be resident.
  EXPECT_NE(cache.get(SweepKey{"aurora", "gb", 1, 8, 80}), nullptr);
}

TEST(SweepCacheTest, VersionIsPartOfTheKey) {
  SweepCache cache(8);
  const auto rec = std::make_shared<const guide::Recommendation>();
  cache.put(SweepKey{"aurora", "gb", 1, 134, 951}, rec);
  EXPECT_NE(cache.get(SweepKey{"aurora", "gb", 1, 134, 951}), nullptr);
  EXPECT_EQ(cache.get(SweepKey{"aurora", "gb", 2, 134, 951}), nullptr);
  EXPECT_EQ(cache.get(SweepKey{"aurora", "rf", 1, 134, 951}), nullptr);
}

// ----------------------------------------------------------- ModelRegistry

TEST(ModelRegistryTest, LoadsPublishedArtifact) {
  const auto dir = scratch_dir("registry_load");
  const auto model = campaign_gb();
  ModelRegistry registry(dir);
  ml::save_gb(model, registry.artifact_path("aurora", "gb"));

  const auto handle = registry.get("aurora", "gb");
  ASSERT_NE(handle.model, nullptr);
  EXPECT_EQ(handle.version, 1u);
  EXPECT_EQ(registry.trainings(), 0u);
  EXPECT_EQ(registry.loads(), 1u);
  // Bit-identical predictions to the published model.
  const auto split = test::small_campaign(250);
  const auto expect = model.predict(split.test.features());
  const auto got = handle.model->predict(split.test.features());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    ASSERT_EQ(expect[i], got[i]);
  }
  // Unchanged artifact: same version, no reload.
  EXPECT_EQ(registry.get("aurora", "gb").version, 1u);
  EXPECT_EQ(registry.loads(), 1u);
}

TEST(ModelRegistryTest, HotReloadsOnArtifactChange) {
  const auto dir = scratch_dir("registry_reload");
  ModelRegistry registry(dir);
  const auto path = registry.artifact_path("aurora", "gb");
  ml::save_gb(campaign_gb(10), path);
  const auto first = registry.get("aurora", "gb");
  EXPECT_EQ(first.version, 1u);

  // Publish a different model and force a visible mtime step (filesystem
  // clocks can be coarse).
  ml::save_gb(campaign_gb(20), path);
  fs::last_write_time(path,
                      fs::last_write_time(path) + std::chrono::seconds(2));
  const auto second = registry.get("aurora", "gb");
  EXPECT_EQ(second.version, 2u);
  EXPECT_NE(first.model, second.model);
  // The old handle still works (shared ownership).
  EXPECT_TRUE(first.model->is_fitted());
}

TEST(ModelRegistryTest, TrainsAndCachesWhenArtifactMissing) {
  const auto dir = scratch_dir("registry_train");
  RegistryOptions opt;
  opt.fallback_rows = 150;  // clipped up to one row per config — still small
  opt.gb_estimators = 6;
  ModelRegistry registry(dir, opt);
  const auto handle = registry.get("aurora", "gb");
  ASSERT_NE(handle.model, nullptr);
  EXPECT_TRUE(handle.model->is_fitted());
  EXPECT_EQ(registry.trainings(), 1u);
  EXPECT_TRUE(fs::exists(registry.artifact_path("aurora", "gb")));
  // Second get serves the cached artifact without retraining.
  registry.get("aurora", "gb");
  EXPECT_EQ(registry.trainings(), 1u);
  // A fresh registry over the same directory loads instead of training.
  ModelRegistry again(dir, opt);
  again.get("aurora", "gb");
  EXPECT_EQ(again.trainings(), 0u);
}

TEST(ModelRegistryTest, ConcurrentFirstGetsTrainOnce) {
  // Four first get()s of one missing artifact coalesce on one training and
  // one load; none reads a half-written artifact, so none fails or goes
  // stale, and all serve the same version.
  const auto dir = scratch_dir("registry_train_once");
  RegistryOptions opt;
  opt.fallback_rows = 200;
  opt.gb_estimators = 20;
  ModelRegistry registry(dir, opt);
  constexpr int kThreads = 4;
  std::latch start(kThreads);
  std::vector<ModelHandle> handles(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      handles[t] = registry.get("aurora", "gb");
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(registry.trainings(), 1u);
  EXPECT_EQ(registry.loads(), 1u);
  EXPECT_EQ(registry.reload_failures(), 0u);
  for (const ModelHandle& h : handles) {
    ASSERT_NE(h.model, nullptr);
    EXPECT_EQ(h.version, handles.front().version);
    EXPECT_FALSE(h.stale);
  }
}

TEST(ModelRegistryTest, TrainedModelIsServedWithoutReadingItBack) {
  // A model the registry fits itself is streamed to its artifact once and
  // served as the fitted object: with every artifact read armed to fail,
  // train-and-cache still answers, and it never reaches kArtifactRead.
  const auto dir = scratch_dir("registry_publish");
  RegistryOptions opt;
  opt.fallback_rows = 150;
  opt.gb_estimators = 6;
  ModelRegistry registry(dir, opt);
  FaultOptions fopt;
  fopt.artifact_read_failure = 1.0;
  FaultInjector fault(fopt);
  registry.set_fault_injector(&fault);

  const ModelHandle handle = registry.get("aurora", "gb");
  ASSERT_NE(handle.model, nullptr);
  EXPECT_FALSE(handle.stale);
  EXPECT_EQ(registry.trainings(), 1u);
  EXPECT_EQ(registry.loads(), 1u);
  EXPECT_EQ(registry.reload_failures(), 0u);
  // The entry's mtime is the file's, so the next get() does not read it.
  EXPECT_EQ(registry.get("aurora", "gb").version, handle.version);
  EXPECT_EQ(fault.arrivals(FaultPoint::kArtifactRead), 0u);
  registry.set_fault_injector(nullptr);

  // The served object predicts bitwise as its artifact parsed from disk.
  const std::string path = registry.artifact_path("aurora", "gb");
  linalg::Matrix grid(81, data::kNumFeatures);
  std::size_t row = 0;
  for (const double o : {44.0, 99.0, 134.0}) {
    for (const double v : {260.0, 718.0, 951.0}) {
      for (const double nodes : {16.0, 64.0, 256.0}) {
        for (const double tile : {40.0, 80.0, 120.0}) {
          grid(row, data::kFeatO) = o;
          grid(row, data::kFeatV) = v;
          grid(row, data::kFeatNodes) = nodes;
          grid(row, data::kFeatTile) = tile;
          ++row;
        }
      }
    }
  }
  const auto served = handle.model->predict(grid);
  const auto on_disk = ml::load_gb(path).predict(grid);
  ASSERT_EQ(served.size(), on_disk.size());
  for (std::size_t i = 0; i < served.size(); ++i) {
    ASSERT_EQ(served[i], on_disk[i]) << "row " << i;
  }

  // The entry's content hash is the hash of the file's bytes: a later
  // mtime over the same bytes is absorbed without a reload.
  fs::last_write_time(path,
                      fs::last_write_time(path) + std::chrono::seconds(2));
  EXPECT_EQ(registry.get("aurora", "gb").version, handle.version);
  EXPECT_EQ(registry.hash_skips(), 1u);
  EXPECT_EQ(registry.loads(), 1u);
}

TEST(ModelRegistryTest, RejectsUnknownMachineAndKind) {
  ModelRegistry registry(scratch_dir("registry_bad"));
  EXPECT_THROW(registry.get("summit", "gb"), Error);
  EXPECT_THROW(registry.get("aurora", "xgboost"), Error);
}

// ------------------------------------------------------------------ Server

/// Registry + server over one pre-published small GB artifact. Extra
/// ServeOptions (fault injector, max_queue_depth, ...) ride in via `base`;
/// tests that need their own scratch directory pass a distinct `name`.
struct ServerFixture {
  explicit ServerFixture(std::size_t cache_capacity = 32,
                         std::size_t threads = 4, ServeOptions base = {},
                         const std::string& name = "server")
      : dir(scratch_dir(name)), registry(dir) {
    ml::save_gb(campaign_gb(), registry.artifact_path("aurora", "gb"));
    base.threads = threads;
    base.cache_capacity = cache_capacity;
    server = std::make_unique<Server>(registry, base);
  }

  Request stq(int o, int v) {
    Request r;
    r.op = Op::kStq;
    r.o = o;
    r.v = v;
    return r;
  }

  std::string dir;
  ModelRegistry registry;
  std::unique_ptr<Server> server;
};

TEST(ServerTest, MatchesInProcessAdvisorExactly) {
  ServerFixture f;
  const auto handle = f.registry.get("aurora", "gb");
  const sim::CcsdSimulator simulator(sim::MachineModel::aurora());
  const guide::Advisor advisor(*handle.model, simulator);

  for (const auto& [o, v] : std::vector<std::pair<int, int>>{
           {44, 260}, {85, 698}, {134, 951}}) {
    Request req = f.stq(o, v);
    const auto stq = f.server->handle(req);
    ASSERT_TRUE(stq.ok) << stq.error;
    const auto expect_stq = advisor.shortest_time(o, v);
    EXPECT_EQ(stq.nodes, expect_stq.config.nodes);
    EXPECT_EQ(stq.tile, expect_stq.config.tile);
    EXPECT_EQ(stq.time_s, expect_stq.predicted_time_s);
    EXPECT_EQ(stq.node_hours, expect_stq.predicted_node_hours);
    EXPECT_EQ(stq.sweep_size, expect_stq.sweep.size());

    req.op = Op::kBq;
    const auto bq = f.server->handle(req);
    const auto expect_bq = advisor.cheapest_run(o, v);
    EXPECT_EQ(bq.nodes, expect_bq.config.nodes);
    EXPECT_EQ(bq.time_s, expect_bq.predicted_time_s);

    req.op = Op::kBudget;
    req.max_node_hours = expect_stq.predicted_node_hours * 0.75;
    const auto budget = f.server->handle(req);
    if (budget.ok) {
      const auto expect_budget =
          advisor.fastest_within_budget(o, v, req.max_node_hours);
      EXPECT_EQ(budget.nodes, expect_budget.config.nodes);
      EXPECT_EQ(budget.time_s, expect_budget.predicted_time_s);
      EXPECT_LE(budget.node_hours, req.max_node_hours);
    } else {
      EXPECT_THROW(advisor.fastest_within_budget(o, v, req.max_node_hours),
                   Error);
    }
  }
}

TEST(ServerTest, RepeatQuestionsHitTheSweepCache) {
  ServerFixture f;
  Request req = f.stq(134, 951);
  const auto first = f.server->handle(req);
  ASSERT_TRUE(first.ok);
  EXPECT_FALSE(first.cache_hit);
  req.op = Op::kBq;
  const auto second = f.server->handle(req);
  EXPECT_TRUE(second.cache_hit);  // BQ reuses the STQ sweep
  req.op = Op::kStq;
  const auto third = f.server->handle(req);
  EXPECT_TRUE(third.cache_hit);
  const auto stats = f.server->stats();
  EXPECT_EQ(stats.sweeps_computed, 1u);
  EXPECT_EQ(stats.cache_hits, 2u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.requests, 3u);
}

TEST(ServerTest, ErrorsComeBackAsResponsesAndAreCounted) {
  ServerFixture f;
  Request req = f.stq(-3, 100);  // invalid orbital count
  const auto r = f.server->handle(req);
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.error.empty());
  Request bad_machine = f.stq(44, 260);
  bad_machine.machine = "summit";
  EXPECT_FALSE(f.server->handle(bad_machine).ok);
  EXPECT_EQ(f.server->stats().errors, 2u);
}

TEST(ServerTest, CorruptArtifactIsAnsweredNamingTheModelAndRecord) {
  // A truncated artifact and no last-good model to fall back on: the
  // answer is an internal error that names the model and the record that
  // failed, with no checked expression and no source path.
  const auto dir = scratch_dir("corrupt_artifact");
  ModelRegistry registry(dir);
  {
    std::ofstream out(registry.artifact_path("aurora", "gb"));
    out << "ccpred-gb-v1\n1 0.1 5\n3 4\n0 0.5 1 1 2\n-1 0 2 -1 -1\n-1 0 3";
  }
  Server server(registry, ServeOptions{});
  Request req;
  req.op = Op::kStq;
  req.o = 44;
  req.v = 260;
  const auto r = server.handle(req);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.code, "internal");
  EXPECT_EQ(r.error,
            "cannot load model aurora/gb: GB model file: stage 0: truncated "
            "node record 2");
  EXPECT_EQ(registry.reload_failures(), 1u);

  // A well-formed model wider than the rows loads, and the sweep is
  // refused the same way.
  {
    std::ofstream out(registry.artifact_path("frontier", "gb"));
    out << "ccpred-gb-v1\n1 0.1 5\n3 10\n9 0.5 1 1 2\n-1 0 2 -1 -1\n"
           "-1 0 3 -1 -1\n0 0 0 0 0 0 0 0 0 0\n";
  }
  req.machine = "frontier";
  const auto wide = server.handle(req);
  EXPECT_FALSE(wide.ok);
  EXPECT_EQ(wide.code, "internal");
  EXPECT_EQ(wide.error,
            "batch rows have 4 columns; the model splits on feature 9");
}

TEST(ServerTest, JobEstimatesMatchTheSimulator) {
  ServerFixture f;
  Request req;
  req.op = Op::kJob;
  req.o = 134;
  req.v = 951;
  req.nodes = 110;
  req.tile = 90;
  const auto r = f.server->handle(req);
  ASSERT_TRUE(r.ok) << r.error;
  const sim::CcsdSimulator simulator(sim::MachineModel::aurora());
  const auto job = sim::estimate_job(
      simulator, sim::RunConfig{.o = 134, .v = 951, .nodes = 110, .tile = 90});
  EXPECT_EQ(r.total_s, job.total_s);
  EXPECT_EQ(r.iterations, job.iterations);
  EXPECT_EQ(r.node_hours, job.node_hours);
}

TEST(ServerTest, SubmitRunsThroughTheWorkerPool) {
  ServerFixture f;
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 8; ++i) futures.push_back(f.server->submit(f.stq(85, 698)));
  for (auto& fut : futures) {
    const auto r = fut.get();
    EXPECT_TRUE(r.ok) << r.error;
  }
  const auto stats = f.server->stats();
  EXPECT_EQ(stats.requests, 8u);
  // One sweep total: the rest were cache hits or coalesced onto the leader.
  EXPECT_EQ(stats.sweeps_computed, 1u);
  EXPECT_EQ(stats.cache_hits + stats.coalesced, 7u);
}

TEST(ServerConcurrencyTest, ParallelRequestsMatchSerialExecution) {
  // The acceptance property: N threads issuing overlapping STQ/BQ/budget
  // requests produce exactly the answers serial execution produces.
  const std::vector<std::pair<int, int>> problems = {
      {44, 260}, {85, 698}, {116, 575}, {134, 951}};

  // Serial reference on its own server instance (fresh cache).
  ServerFixture serial_f(32, 1);
  ServerFixture parallel_f(32, 4);

  const auto make_request = [&](int step) {
    const auto& [o, v] = problems[step % problems.size()];
    Request r;
    r.o = o;
    r.v = v;
    switch (step % 3) {
      case 0: r.op = Op::kStq; break;
      case 1: r.op = Op::kBq; break;
      default:
        r.op = Op::kBudget;
        r.max_node_hours = 100.0;
    }
    return r;
  };

  constexpr int kThreads = 8;
  constexpr int kPerThread = 24;
  std::vector<Response> serial(kThreads * kPerThread);
  for (int i = 0; i < kThreads * kPerThread; ++i) {
    serial[i] = serial_f.server->handle(make_request(i));
  }

  std::vector<Response> parallel(kThreads * kPerThread);
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const int idx = t * kPerThread + i;
        parallel[idx] = parallel_f.server->handle(make_request(idx));
        if (!parallel[idx].ok) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);

  for (int i = 0; i < kThreads * kPerThread; ++i) {
    ASSERT_TRUE(serial[i].ok) << serial[i].error;
    EXPECT_EQ(parallel[i].nodes, serial[i].nodes) << "request " << i;
    EXPECT_EQ(parallel[i].tile, serial[i].tile) << "request " << i;
    EXPECT_EQ(parallel[i].time_s, serial[i].time_s) << "request " << i;
    EXPECT_EQ(parallel[i].node_hours, serial[i].node_hours)
        << "request " << i;
  }

  // Sweep work must not scale with request count: one sweep per problem
  // size (model version is fixed), everything else cache/coalesce.
  const auto stats = parallel_f.server->stats();
  EXPECT_EQ(stats.sweeps_computed, problems.size());
  EXPECT_EQ(stats.errors, 0u);
}

TEST(ServerTest, CacheEvictionKeepsServing) {
  ServerFixture f(/*cache_capacity=*/1, /*threads=*/1);
  const auto a = f.server->handle(f.stq(44, 260));
  const auto b = f.server->handle(f.stq(85, 698));   // evicts (44,260)
  const auto a2 = f.server->handle(f.stq(44, 260));  // recomputed, same answer
  ASSERT_TRUE(a.ok && b.ok && a2.ok);
  EXPECT_EQ(a.nodes, a2.nodes);
  EXPECT_EQ(a.time_s, a2.time_s);
  EXPECT_GE(f.server->stats().cache_evictions, 1u);
  EXPECT_EQ(f.server->stats().sweeps_computed, 3u);
}

// ------------------------------------------------- Advisor sweep reuse

TEST(AdvisorSweepReuseTest, BudgetOverloadMatchesFullSweep) {
  const auto handle_model = campaign_gb();
  const sim::CcsdSimulator simulator(sim::MachineModel::aurora());
  const guide::Advisor advisor(handle_model, simulator);
  const auto base = advisor.shortest_time(134, 951);

  const auto direct = advisor.fastest_within_budget(134, 951, 2.0);
  const auto reused = guide::Advisor::fastest_within_budget(base, 2.0);
  EXPECT_EQ(direct.config.nodes, reused.config.nodes);
  EXPECT_EQ(direct.config.tile, reused.config.tile);
  EXPECT_EQ(direct.predicted_time_s, reused.predicted_time_s);

  const auto bq = guide::Advisor::from_sweep(base.sweep,
                                             guide::Objective::kNodeHours);
  const auto expect_bq = advisor.cheapest_run(134, 951);
  EXPECT_EQ(bq.config.nodes, expect_bq.config.nodes);
  EXPECT_EQ(bq.predicted_node_hours, expect_bq.predicted_node_hours);

  EXPECT_THROW(guide::Advisor::fastest_within_budget(base, 1e-9), Error);
  EXPECT_THROW(guide::Advisor::from_sweep({}, guide::Objective::kNodeHours),
               Error);
}

// ----------------------------------------------------------- FaultInjector

TEST(FaultInjectorTest, DisabledInjectorNeverFires) {
  FaultInjector off;  // all probabilities zero
  EXPECT_FALSE(off.enabled());
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(off.fire(FaultPoint::kArtifactRead));
    EXPECT_EQ(off.maybe_delay(FaultPoint::kSweepCompute), 0.0);
  }
  EXPECT_EQ(off.injected(FaultPoint::kArtifactRead), 0u);
  EXPECT_EQ(off.injected(FaultPoint::kSweepCompute), 0u);
}

TEST(FaultInjectorTest, SameSeedGivesBitIdenticalSchedule) {
  FaultOptions opt;
  opt.seed = 42;
  opt.artifact_read_failure = 0.3;
  opt.sweep_delay = 0.5;
  opt.worker_stall = 0.25;
  opt.cache_shard_hold = 0.7;
  // Tiny base delays: maybe_delay sleeps for real, keep the test fast.
  opt.sweep_delay_ms = 0.01;
  opt.worker_stall_ms = 0.01;
  opt.cache_shard_hold_ms = 0.01;

  FaultInjector a(opt);
  FaultInjector b(opt);
  const FaultPoint points[] = {FaultPoint::kArtifactRead,
                               FaultPoint::kSweepCompute,
                               FaultPoint::kWorkerStall,
                               FaultPoint::kCacheShard};
  for (const FaultPoint p : points) {
    bool fired_any = false;
    bool spared_any = false;
    for (std::uint64_t n = 0; n < 200; ++n) {
      // The Nth arrival draws the same verdict in both injectors, and the
      // static schedule oracle predicts it without consuming arrivals.
      const bool fa = a.fire(p);
      EXPECT_EQ(fa, b.fire(p)) << fault_point_name(p) << " arrival " << n;
      EXPECT_EQ(fa, FaultInjector::unit_draw(opt.seed, p, n) <
                        a.probability(p))
          << fault_point_name(p) << " arrival " << n;
      fired_any |= fa;
      spared_any |= !fa;
    }
    EXPECT_TRUE(fired_any) << fault_point_name(p);
    EXPECT_TRUE(spared_any) << fault_point_name(p);
    EXPECT_EQ(a.arrivals(p), 200u);
    EXPECT_EQ(a.injected(p), b.injected(p));
  }

  // maybe_delay's actual sleep matches the pure schedule function.
  FaultInjector c(opt);
  for (std::uint64_t n = 0; n < 32; ++n) {
    const double expect =
        FaultInjector::delay_for(opt, FaultPoint::kSweepCompute, n);
    EXPECT_EQ(c.maybe_delay(FaultPoint::kSweepCompute), expect);
  }

  // A different seed produces a different schedule somewhere.
  FaultOptions other = opt;
  other.seed = 43;
  int diffs = 0;
  for (std::uint64_t n = 0; n < 200; ++n) {
    diffs += FaultInjector::delay_for(opt, FaultPoint::kSweepCompute, n) !=
             FaultInjector::delay_for(other, FaultPoint::kSweepCompute, n);
  }
  EXPECT_GT(diffs, 0);
}

TEST(FaultInjectorTest, ProtocolCarriesDeadlineCodeAndStale) {
  const auto req = parse_request(
      R"({"op":"stq","o":44,"v":260,"deadline_ms":250})");
  EXPECT_EQ(req.deadline_ms, 250);
  EXPECT_THROW(
      parse_request(R"({"op":"stq","o":1,"v":2,"deadline_ms":-5})"), Error);

  const Response err = error_response("too slow", "stq", "q9", "deadline");
  const auto rec = parse_record(format_response(err));
  EXPECT_EQ(rec.at("ok"), "false");
  EXPECT_EQ(rec.at("code"), "deadline");
  EXPECT_EQ(rec.at("error"), "too slow");

  Response stale;
  stale.ok = true;
  stale.stale = true;
  EXPECT_EQ(parse_record(format_response(stale)).at("stale"), "true");
}

// ------------------------------------------------- cache property tests

/// Randomised op sequences against an exact reference model: the LruCache
/// must track a textbook LRU list (size, presence, values, counters).
TEST(LruCachePropertyTest, RandomOpsMatchReferenceModel) {
  constexpr std::size_t kCapacity = 5;
  LruCache<int, int> cache(kCapacity);
  std::list<std::pair<int, int>> model;  // front = most recently used
  CacheCounters expect;

  Rng rng(99);
  for (int step = 0; step < 5000; ++step) {
    const int key = static_cast<int>(rng.uniform_int(0, 15));
    const auto it = std::find_if(model.begin(), model.end(),
                                 [&](const auto& e) { return e.first == key; });
    if (rng.bernoulli(0.5)) {
      const auto got = cache.get(key);
      if (it == model.end()) {
        ++expect.misses;
        EXPECT_FALSE(got.has_value()) << "step " << step;
      } else {
        ++expect.hits;
        model.splice(model.begin(), model, it);
        ASSERT_TRUE(got.has_value()) << "step " << step;
        EXPECT_EQ(*got, model.front().second) << "step " << step;
      }
    } else {
      cache.put(key, step);
      if (it == model.end()) {
        model.emplace_front(key, step);
        if (model.size() > kCapacity) {
          model.pop_back();
          ++expect.evictions;
        }
      } else {
        it->second = step;
        model.splice(model.begin(), model, it);
      }
    }
    ASSERT_EQ(cache.size(), model.size()) << "step " << step;
  }
  EXPECT_EQ(cache.counters().hits, expect.hits);
  EXPECT_EQ(cache.counters().misses, expect.misses);
  EXPECT_EQ(cache.counters().evictions, expect.evictions);
  // Every resident key maps to the model's value (gets mirror recency).
  const auto resident = model;  // snapshot: gets below reorder both equally
  for (const auto& [key, value] : resident) {
    const auto got = cache.get(key);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, value);
  }
}

/// Same property one level up: the sharded SweepCache must behave as
/// independent per-shard LRUs with hash-distributed keys.
TEST(SweepCachePropertyTest, RandomOpsMatchShardedReferenceModel) {
  constexpr std::size_t kCapacity = 12;
  constexpr std::size_t kShards = 4;
  SweepCache cache(kCapacity, kShards);
  const std::size_t per_shard = (kCapacity + kShards - 1) / kShards;

  struct RefShard {
    std::list<std::pair<SweepKey, SweepPtr>> items;  // front = MRU
    CacheCounters counters;
  };
  std::vector<RefShard> ref(kShards);
  // Shard assignment mirrors exec::ShardedMemoCache: the bucket hash is
  // re-mixed so shard choice and bucket choice stay uncorrelated.
  const auto shard_of = [&](const SweepKey& k) {
    return exec::splitmix64(SweepKeyHash()(k) + exec::kGoldenGamma) % kShards;
  };

  Rng rng(123);
  const auto random_key = [&] {
    SweepKey k;
    k.machine = rng.bernoulli(0.5) ? "aurora" : "frontier";
    k.kind = "gb";
    k.model_version = static_cast<std::uint64_t>(rng.uniform_int(1, 2));
    k.o = static_cast<int>(rng.uniform_int(1, 6)) * 10;
    k.v = k.o * 5;
    return k;
  };

  for (int step = 0; step < 3000; ++step) {
    const SweepKey key = random_key();
    RefShard& shard = ref[shard_of(key)];
    const auto it =
        std::find_if(shard.items.begin(), shard.items.end(),
                     [&](const auto& e) { return e.first == key; });
    if (rng.bernoulli(0.5)) {
      const SweepPtr got = cache.get(key);
      if (it == shard.items.end()) {
        ++shard.counters.misses;
        EXPECT_EQ(got, nullptr) << "step " << step;
      } else {
        ++shard.counters.hits;
        shard.items.splice(shard.items.begin(), shard.items, it);
        EXPECT_EQ(got, shard.items.front().second) << "step " << step;
      }
    } else {
      const auto value = std::make_shared<const guide::Recommendation>();
      cache.put(key, value);
      if (it == shard.items.end()) {
        shard.items.emplace_front(key, value);
        if (shard.items.size() > per_shard) {
          shard.items.pop_back();
          ++shard.counters.evictions;
        }
      } else {
        it->second = value;
        shard.items.splice(shard.items.begin(), shard.items, it);
      }
    }
  }

  CacheCounters expect;
  std::size_t expect_size = 0;
  for (const RefShard& shard : ref) {
    expect += shard.counters;
    expect_size += shard.items.size();
  }
  EXPECT_EQ(cache.size(), expect_size);
  EXPECT_EQ(cache.counters().hits, expect.hits);
  EXPECT_EQ(cache.counters().misses, expect.misses);
  EXPECT_EQ(cache.counters().evictions, expect.evictions);
  for (const RefShard& shard : ref) {
    for (const auto& [key, value] : shard.items) {
      EXPECT_EQ(cache.get(key), value);  // exact pointer identity
    }
  }
}

// ------------------------------------------------- robustness: deadlines

TEST(ServerRobustnessTest, DeadlineReturnsStructuredErrorAndWarmsCache) {
  FaultOptions fopt;
  fopt.seed = 7;
  fopt.sweep_delay = 1.0;  // every sweep sleeps 150..450 ms
  fopt.sweep_delay_ms = 300.0;
  FaultInjector fault(fopt);
  ServeOptions base;
  base.fault_injector = &fault;
  ServerFixture f(32, 2, base, "deadline");

  Request req = f.stq(44, 260);
  req.deadline_ms = 20;
  const auto timed_out = f.server->handle(req);
  EXPECT_FALSE(timed_out.ok);
  EXPECT_EQ(timed_out.code, "deadline");
  EXPECT_NE(timed_out.error.find("deadline"), std::string::npos);

  // The abandoned sweep still completes on the sweep pool and warms the
  // cache: asking again (no deadline) coalesces or hits, never recomputes.
  req.deadline_ms = 0;
  const auto answered = f.server->handle(req);
  ASSERT_TRUE(answered.ok) << answered.error;
  const auto stats = f.server->stats();
  EXPECT_EQ(stats.sweeps_computed, 1u);
  EXPECT_EQ(stats.deadline_exceeded, 1u);
  EXPECT_EQ(stats.errors, 1u);
  EXPECT_EQ(fault.injected(FaultPoint::kSweepCompute), 1u);

  // Fault delays never change answers, only timing.
  ServerFixture clean(32, 1, ServeOptions{}, "deadline_clean");
  const auto expect = clean.server->handle(clean.stq(44, 260));
  ASSERT_TRUE(expect.ok);
  EXPECT_EQ(answered.nodes, expect.nodes);
  EXPECT_EQ(answered.tile, expect.tile);
  EXPECT_EQ(answered.time_s, expect.time_s);
  EXPECT_EQ(answered.node_hours, expect.node_hours);
}

// -------------------------------------------- robustness: load shedding

TEST(ServerRobustnessTest, ShedsLoadBeyondMaxQueueDepth) {
  FaultOptions fopt;
  fopt.seed = 3;
  fopt.worker_stall = 1.0;  // the lone worker stalls 100..300 ms per task
  fopt.worker_stall_ms = 200.0;
  FaultInjector fault(fopt);
  ServeOptions base;
  base.fault_injector = &fault;
  base.max_queue_depth = 2;
  ServerFixture f(32, 1, base, "shed");

  Request req;
  req.op = Op::kStats;
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 10; ++i) futures.push_back(f.server->submit(req));

  int shed = 0;
  int answered = 0;
  for (auto& fut : futures) {
    const auto r = fut.get();
    if (r.ok) {
      ++answered;
    } else {
      EXPECT_EQ(r.code, "overloaded");
      EXPECT_NE(r.error.find("overloaded"), std::string::npos);
      ++shed;
    }
  }
  // The worker is stalled on the first task while the burst arrives, so
  // at most 1 running + 2 queued are admitted; the rest shed immediately.
  EXPECT_GE(shed, 7);
  EXPECT_EQ(shed + answered, 10);
  const auto stats = f.server->stats();
  EXPECT_EQ(stats.shed, static_cast<std::uint64_t>(shed));
  EXPECT_EQ(stats.requests, static_cast<std::uint64_t>(answered));
  EXPECT_GE(fault.injected(FaultPoint::kWorkerStall), 1u);
}

// -------------------------------------- robustness: stale-while-revalidate

TEST(ServerRobustnessTest, FailedReloadServesStaleAnswers) {
  ServerFixture f(32, 1, ServeOptions{}, "stale");
  const auto fresh = f.server->handle(f.stq(85, 698));
  ASSERT_TRUE(fresh.ok) << fresh.error;
  EXPECT_FALSE(fresh.stale);

  // Corrupt the artifact and bump its mtime: the reload fails, and the
  // server degrades to the last-good model instead of erroring.
  const auto path = f.registry.artifact_path("aurora", "gb");
  {
    std::ofstream out(path, std::ios::trunc);
    out << "garbage, not a model\n";
  }
  fs::last_write_time(path,
                      fs::last_write_time(path) + std::chrono::seconds(2));
  const auto stale = f.server->handle(f.stq(85, 698));
  ASSERT_TRUE(stale.ok) << stale.error;
  EXPECT_TRUE(stale.stale);
  EXPECT_EQ(stale.model_version, fresh.model_version);
  EXPECT_EQ(stale.nodes, fresh.nodes);
  EXPECT_EQ(stale.time_s, fresh.time_s);
  EXPECT_EQ(stale.node_hours, fresh.node_hours);

  // The failed mtime is memoised: further requests serve stale without
  // re-attempting the load on every call.
  EXPECT_TRUE(f.server->handle(f.stq(85, 698)).stale);
  auto stats = f.server->stats();
  EXPECT_EQ(stats.reload_failures, 1u);
  EXPECT_EQ(stats.stale_served, 2u);

  // Republishing a good artifact recovers to a fresh (non-stale) version.
  ml::save_gb(campaign_gb(20), path);
  fs::last_write_time(path,
                      fs::last_write_time(path) + std::chrono::seconds(4));
  const auto recovered = f.server->handle(f.stq(85, 698));
  ASSERT_TRUE(recovered.ok) << recovered.error;
  EXPECT_FALSE(recovered.stale);
  EXPECT_EQ(recovered.model_version, fresh.model_version + 1);

  // The degraded-mode counters surface through the stats protocol verb.
  Request sreq;
  sreq.op = Op::kStats;
  const auto sresp = f.server->handle(sreq);
  ASSERT_TRUE(sresp.has_stats);
  const auto rec = parse_record(format_response(sresp));
  EXPECT_EQ(rec.at("reload_failures"), "1");
  EXPECT_EQ(rec.at("stale_served"), "2");
  EXPECT_EQ(rec.at("deadline_exceeded"), "0");
  EXPECT_EQ(rec.at("shed"), "0");
}

// -------------------------------------- robustness: queue depth accounting

TEST(ServerRobustnessTest, QueueDepthReturnsToZeroAfterMixedBurst) {
  FaultOptions fopt;
  fopt.seed = 11;
  fopt.worker_stall = 0.4;
  fopt.worker_stall_ms = 5.0;
  fopt.sweep_delay = 0.4;
  fopt.sweep_delay_ms = 10.0;
  fopt.cache_shard_hold = 0.4;
  fopt.cache_shard_hold_ms = 1.0;
  FaultInjector fault(fopt);
  ServeOptions base;
  base.fault_injector = &fault;
  base.max_queue_depth = 4;
  ServerFixture f(8, 2, base, "depth");

  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 30; ++i) {
    Request r;
    switch (i % 4) {
      case 0: r = f.stq(44, 260); break;
      case 1: r = f.stq(-3, 100); break;  // invalid: fails inside the sweep
      case 2:
        r = f.stq(85, 698);
        r.deadline_ms = 1;  // expires in the queue or mid-sweep
        break;
      default: r.op = Op::kStats;
    }
    futures.push_back(f.server->submit(std::move(r)));
  }
  int answered = 0;
  int shed = 0;
  for (auto& fut : futures) {
    const auto r = fut.get();  // every request resolves exactly once
    ++answered;
    if (!r.ok && r.code == "overloaded") ++shed;
  }
  EXPECT_EQ(answered, 30);

  // The gauge must return to zero even though the burst mixed faulted,
  // deadline-exceeded and shed requests (exception-safe decrement). The
  // decrement runs just after the future resolves, so poll briefly.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (f.server->stats().queue_depth != 0 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto stats = f.server->stats();
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.requests + stats.shed, 30u);
  EXPECT_EQ(stats.shed, static_cast<std::uint64_t>(shed));
}

TEST(ServerRobustnessTest, RequestStillQueuedAtTeardownGetsItsSweep) {
  // Destroying a Server drains its request pool, and a request answered
  // during that drain may still need a cold sweep. The sweep pool must
  // outlive the request pool, or the sweep is posted to a joined pool,
  // never runs, and a request without a deadline waits forever (a server
  // destroyed under load hits exactly this).
  FaultOptions fopt;
  fopt.seed = 5;
  fopt.worker_stall = 1.0;  // the lone worker stalls 25..75 ms first
  fopt.worker_stall_ms = 50.0;
  FaultInjector fault(fopt);
  ServeOptions base;
  base.fault_injector = &fault;
  ServerFixture f(32, 1, base, "teardown");

  Request req = f.stq(85, 698);
  req.deadline_ms = 10000;  // bounds the wait if the sweep were lost
  auto answer = f.server->submit(req);
  f.server.reset();  // the request is still stalled on its worker
  const Response r = answer.get();
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_FALSE(r.cache_hit);
}

// ------------------------------------------------- dynamic batching: lane

TEST(BatchLaneTest, IdenticalColdKeysRunOneSweepSingleFlight) {
  // The dedup regression: N identical cold requests inside one batch must
  // run exactly ONE sweep compute and fan the answer out to every member.
  ServerFixture f(32, 2, ServeOptions{}, "batch_dedup");
  const std::vector<Request> batch(8, f.stq(85, 698));
  const auto out = f.server->dispatch_batch(batch);
  ASSERT_EQ(out.size(), batch.size());
  for (const auto& r : out) {
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.nodes, out[0].nodes);
    EXPECT_EQ(r.tile, out[0].tile);
    EXPECT_EQ(r.time_s, out[0].time_s);
    EXPECT_EQ(r.node_hours, out[0].node_hours);
    EXPECT_EQ(r.sweep_size, out[0].sweep_size);
  }
  const auto stats = f.server->stats();
  EXPECT_EQ(stats.requests, 8u);
  EXPECT_EQ(stats.sweeps_computed, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);  // one probe per unique key, not 8
  EXPECT_EQ(stats.coalesced, 7u);     // the other members rode the leader
  EXPECT_EQ(stats.errors, 0u);
}

TEST(BatchLaneTest, DispatchBatchMatchesSerialBitIdentical) {
  // Mixed verbs, problems, errors and job estimates through the grouped
  // batch lane must answer byte-for-byte like serial handle() calls.
  ServerFixture serial_f(32, 1, ServeOptions{}, "batch_serial_ref");
  ServerFixture batch_f(32, 2, ServeOptions{}, "batch_lane");
  const std::vector<std::pair<int, int>> problems = {
      {44, 260}, {85, 698}, {116, 575}, {134, 951}};

  std::vector<Request> all;
  for (int i = 0; i < 40; ++i) {
    const auto& [o, v] = problems[i % problems.size()];
    Request r;
    r.o = o;
    r.v = v;
    switch (i % 5) {
      case 0: r.op = Op::kStq; break;
      case 1: r.op = Op::kBq; break;
      case 2:
        r.op = Op::kBudget;
        r.max_node_hours = 100.0;
        break;
      case 3:
        r.op = Op::kJob;
        r.nodes = 64;
        r.tile = 80;
        break;
      default:
        r.op = Op::kStq;
        r.o = -3;  // invalid: must error identically, not poison the group
    }
    all.push_back(std::move(r));
  }

  std::vector<Response> serial;
  serial.reserve(all.size());
  for (const auto& r : all) serial.push_back(serial_f.server->handle(r));
  const auto batched = batch_f.server->dispatch_batch(all);
  ASSERT_EQ(batched.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    // cache_hit is observability metadata, not part of the answer: inside
    // one batch a repeated key coalesces onto its leader (cache_hit=false)
    // where a sequential replay would hit the just-warmed cache. Normalize
    // it, then demand byte-identical rendering of everything else.
    Response a = batched[i];
    Response b = serial[i];
    a.cache_hit = b.cache_hit = false;
    EXPECT_EQ(format_response(a), format_response(b)) << "request " << i;
  }

  // Sweep work must not scale with batch size: one sweep per problem.
  EXPECT_EQ(batch_f.server->stats().sweeps_computed, problems.size());
}

// -------------------------------------------- dynamic batching: scheduler

TEST(BatchSchedulerTest, LoneRequestBypassesWithoutHold) {
  ServeOptions base;
  base.batch.enabled = true;
  base.batch.max_batch = 16;
  base.batch.max_hold_us = 50000;  // 50 ms: a held request would be visible
  ServerFixture f(32, 2, base, "batch_bypass");
  ASSERT_TRUE(f.server->handle(f.stq(44, 260)).ok);  // warm the sweep cache

  const auto t0 = std::chrono::steady_clock::now();
  const auto r = f.server->submit(f.stq(44, 260)).get();
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.cache_hit);
  // Far below the hold window: the empty-queue bypass dispatched at once.
  EXPECT_LT(ms, 25.0);
  const auto stats = f.server->stats();
  EXPECT_EQ(stats.batch_bypass, 1u);
  EXPECT_EQ(stats.batched_requests, 0u);
  EXPECT_EQ(stats.batch_flushes, 0u);
}

TEST(BatchSchedulerTest, MaxBatchMustFitTheStatsRecord) {
  // The wire's stats record indexes dispatch sizes with a u16.
  ServeOptions base;
  base.batch.enabled = true;
  base.batch.max_batch = 65536;
  EXPECT_THROW(ServerFixture(8, 1, base, "batch_cap"), Error);
  base.batch.max_batch = 65535;
  ServerFixture f(8, 1, base, "batch_cap");
  EXPECT_TRUE(f.server->handle(f.stq(44, 260)).ok);
}

TEST(BatchSchedulerTest, BurstCoalescesAndStaysBitIdentical) {
  // A burst through the scheduler must coalesce into multi-request flushes
  // (max_inflight=1 keeps the slot busy so arrivals pile up) while every
  // answer stays bit-identical to serial execution.
  ServerFixture serial_f(32, 1, ServeOptions{}, "batch_burst_ref");
  ServeOptions base;
  base.batch.enabled = true;
  base.batch.max_batch = 64;
  base.batch.max_hold_us = 2000;
  base.batch.max_inflight = 1;
  ServerFixture f(32, 2, base, "batch_burst");

  const std::vector<std::pair<int, int>> problems = {
      {44, 260}, {85, 698}, {116, 575}, {134, 951}};
  const auto make_request = [&](int step) {
    const auto& [o, v] = problems[step % problems.size()];
    Request r;
    r.o = o;
    r.v = v;
    switch (step % 3) {
      case 0: r.op = Op::kStq; break;
      case 1: r.op = Op::kBq; break;
      default:
        r.op = Op::kBudget;
        r.max_node_hours = 100.0;
    }
    return r;
  };

  constexpr int kRequests = 48;
  std::vector<Response> serial(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    serial[i] = serial_f.server->handle(make_request(i));
  }

  std::vector<std::future<Response>> futures;
  futures.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    futures.push_back(f.server->submit(make_request(i)));
  }
  for (int i = 0; i < kRequests; ++i) {
    const auto r = futures[i].get();
    ASSERT_TRUE(r.ok) << "request " << i << ": " << r.error;
    EXPECT_EQ(r.nodes, serial[i].nodes) << "request " << i;
    EXPECT_EQ(r.tile, serial[i].tile) << "request " << i;
    EXPECT_EQ(r.time_s, serial[i].time_s) << "request " << i;
    EXPECT_EQ(r.node_hours, serial[i].node_hours) << "request " << i;
  }

  const auto stats = f.server->stats();
  // Every dispatched request is either in a >=2 flush or a bypass.
  EXPECT_EQ(stats.batched_requests + stats.batch_bypass,
            static_cast<std::uint64_t>(kRequests));
  EXPECT_GE(stats.batch_flushes, 1u);
  EXPECT_GE(stats.batched_requests, 2u);
  EXPECT_GE(stats.batch_size_quantile(0.95), stats.batch_size_quantile(0.50));
  EXPECT_GE(stats.batch_size_quantile(0.50), 1.0);
  EXPECT_EQ(stats.sweeps_computed, problems.size());
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_EQ(stats.requests, static_cast<std::uint64_t>(kRequests));
}

TEST(BatchSchedulerTest, DeadlineAwareFlushBeatsHold) {
  // The EDF rule: a queued request carrying a deadline is force-flushed at
  // deadline - hold even while every dispatch slot is busy — it must never
  // burn its deadline waiting out the hold window behind a slow batch.
  FaultOptions fopt;
  fopt.seed = 7;
  fopt.sweep_delay = 1.0;  // every sweep sleeps 150..450 ms
  fopt.sweep_delay_ms = 300.0;
  FaultInjector fault(fopt);
  ServeOptions base;
  base.fault_injector = &fault;
  base.batch.enabled = true;
  base.batch.max_batch = 8;
  base.batch.max_hold_us = 200000;  // 200 ms: FIFO hold would burn B
  base.batch.max_inflight = 1;      // A occupies the only dispatch slot
  ServerFixture f(32, 4, base, "batch_edf");

  // Warm (44,260) through the serial path (pays one stalled sweep).
  ASSERT_TRUE(f.server->handle(f.stq(44, 260)).ok);

  // A: cold key; bypasses into the single slot and stalls >= 150 ms.
  auto slow = f.server->submit(f.stq(134, 951));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  // B: warm key, 100 ms deadline. Its EDF trigger (deadline - hold) is
  // already in the past, so the flusher dispatches it immediately even
  // though A holds the slot; the pool runs it on a free worker.
  Request b = f.stq(44, 260);
  b.deadline_ms = 100;
  const auto t0 = std::chrono::steady_clock::now();
  const auto rb = f.server->submit(b).get();
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  ASSERT_TRUE(rb.ok) << rb.error;
  EXPECT_TRUE(rb.cache_hit);
  EXPECT_LT(ms, 100.0);

  const auto ra = slow.get();
  ASSERT_TRUE(ra.ok) << ra.error;
  EXPECT_EQ(f.server->stats().deadline_exceeded, 0u);
}

TEST(BatchSchedulerTest, ShedsBeyondMaxQueueDepthWhenSlotsBusy) {
  FaultOptions fopt;
  fopt.seed = 3;
  fopt.sweep_delay = 1.0;  // park the slot on a slow sweep
  fopt.sweep_delay_ms = 200.0;
  FaultInjector fault(fopt);
  ServeOptions base;
  base.fault_injector = &fault;
  base.max_queue_depth = 2;
  base.batch.enabled = true;
  base.batch.max_batch = 8;
  base.batch.max_hold_us = 100000;  // long hold so the queue fills first
  base.batch.max_inflight = 1;
  ServerFixture f(32, 2, base, "batch_shed");

  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 10; ++i) {
    futures.push_back(f.server->submit(f.stq(134, 951)));
  }
  int shed = 0;
  int answered = 0;
  for (auto& fut : futures) {
    const auto r = fut.get();
    if (r.ok) {
      ++answered;
    } else {
      EXPECT_EQ(r.code, "overloaded");
      ++shed;
    }
  }
  EXPECT_EQ(shed + answered, 10);
  EXPECT_GE(shed, 1);
  EXPECT_EQ(f.server->stats().shed, static_cast<std::uint64_t>(shed));
}

// ---------------------------------------------- stats: tails + overflow

TEST(ServerStatsTest, VerbTailLatencySurfacesInStatsAndJson) {
  ServeOptions base;
  base.batch.enabled = true;
  ServerFixture f(32, 2, base, "stats_tail");
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(f.server->submit(f.stq(85, 698)).get().ok);
  }
  const auto stats = f.server->stats();
  const auto& stq = stats.verb_latency[static_cast<int>(Op::kStq)];
  EXPECT_EQ(stq.count, 6u);
  // Interpolated quantiles may exceed the exact max, so assert ordering
  // among quantiles and positivity of the exact max only.
  EXPECT_GE(stq.quantile(0.99), stq.quantile(0.95));
  EXPECT_GE(stq.quantile(0.95), stq.quantile(0.50));
  EXPECT_GT(stq.max(), 0.0);
  EXPECT_GE(stats.batch_bypass + stats.batch_flushes, 1u);

  Request sr;
  sr.op = Op::kStats;
  const auto resp = f.server->handle(sr);
  ASSERT_TRUE(resp.has_stats);
  const std::string json = format_response(resp);
  for (const char* field :
       {"lat_stq_p99_ms", "lat_stq_max_ms", "batched_requests",
        "batch_flushes", "batch_bypass", "batch_size_p50", "batch_size_p95",
        "overflow_closed"}) {
    EXPECT_NE(json.find(field), std::string::npos) << field;
  }
}

TEST(ServerStatsTest, OverflowSourceFeedsStats) {
  ServerFixture f(8, 1, ServeOptions{}, "overflow_src");
  EXPECT_EQ(f.server->stats().overflow_closed, 0u);
  f.server->set_overflow_source([] { return std::uint64_t{7}; });
  EXPECT_EQ(f.server->stats().overflow_closed, 7u);
}

TEST(ServerStatsTest, OneServerRendersTheSameValuesFromHistograms) {
  // Fixed inputs: counters, per-verb samples, dispatch sizes, online on.
  LatencyHistogram verb[kNumOps];
  const auto record = [&](Op op, double seconds, std::uint64_t n) {
    verb[static_cast<std::size_t>(op)].record_n(seconds, n);
  };
  for (int i = 0; i < 300; ++i) record(Op::kStq, 0.0004 + i * 1e-6, 1);
  record(Op::kStq, 0.085, 1);
  record(Op::kBq, 0.0021, 10);
  record(Op::kBq, 0.0035, 40);
  record(Op::kBq, 0.0123, 1);
  for (int i = 0; i < 20; ++i) record(Op::kBudget, 0.001 + i * 5e-5, 1);
  record(Op::kJob, 0.00002, 3);
  record(Op::kJob, 0.0007, 2);
  record(Op::kStats, 0.000015, 1);
  record(Op::kStats, 0.00003, 2);

  Response r;
  r.ok = true;
  r.op = "stats";
  r.id = "golden";
  r.has_stats = true;
  ServerStats& s = r.stats;
  s.requests = 1234;
  s.errors = 7;
  s.sweeps_computed = 42;
  s.coalesced = 5;
  s.cache_hits = 900;
  s.cache_misses = 300;
  s.cache_evictions = 11;
  s.cache_size = 256;
  s.queue_depth = 3;
  s.deadline_exceeded = 2;
  s.shed = 4;
  s.stale_served = 6;
  s.reload_failures = 1;
  s.models_loaded = 2;
  s.models_trained = 1;
  s.batched_requests = 953;
  s.batch_flushes = 300;
  s.batch_bypass = 200;
  s.overflow_closed = 9;
  for (std::size_t i = 0; i < kNumOps; ++i) {
    s.verb_latency[i] = verb[i].snapshot();
  }
  s.batch_sizes.assign(65, 0);
  s.batch_sizes[1] = 200;
  s.batch_sizes[2] = 160;
  s.batch_sizes[3] = 90;
  s.batch_sizes[5] = 40;
  s.batch_sizes[8] = 6;
  s.batch_sizes[17] = 3;
  s.batch_sizes[64] = 1;
  s.online_enabled = true;
  s.online = {.reports = 12, .measurements = 40, .duplicates = 3,
              .rejected = 1, .buffered = 33, .rolling_mape = 0.123456789,
              .drift_events = 2, .refits = 1, .shadow_evals = 1,
              .promotions = 1, .promotions_rejected = 0,
              .cache_invalidated = 17};

  // The line these inputs rendered when the snapshot stored quantiles:
  // overall ones from a histogram fed every sample, each clamped to its
  // exact max, and batch sizes ranked over the scheduler's size slots.
  const auto want = parse_record(
      R"({"ok":true,"op":"stats","id":"golden","requests":1234,"errors":7)"
      R"(,"sweeps_computed":42,"coalesced":5,"cache_hits":900)"
      R"(,"cache_misses":300,"cache_evictions":11,"cache_hit_rate":0.75)"
      R"(,"cache_size":256,"queue_depth":3,"deadline_exceeded":2,"shed":4)"
      R"(,"stale_served":6,"reload_failures":1,"retries":0)"
      R"(,"models_loaded":2,"models_trained":1)"
      R"(,"latency_p50_ms":0.5838585205,"latency_p95_ms":4.28126804)"
      R"(,"latency_mean_ms":1.195223671,"batched_requests":953)"
      R"(,"batch_flushes":300,"batch_bypass":200,"batch_size_p50":2)"
      R"(,"batch_size_p95":5,"overflow_closed":9,"lat_stq_count":301)"
      R"(,"lat_stq_p50_ms":0.5508665151,"lat_stq_p95_ms":0.8783336755)"
      R"(,"lat_stq_p99_ms":0.9699858851,"lat_stq_max_ms":85)"
      R"(,"lat_bq_count":51,"lat_bq_p50_ms":3.990308076)"
      R"(,"lat_bq_p95_ms":4.946319386,"lat_bq_p99_ms":12.3)"
      R"(,"lat_bq_max_ms":12.3,"lat_budget_count":20)"
      R"(,"lat_budget_p50_ms":1.47789188,"lat_budget_p95_ms":1.95)"
      R"(,"lat_budget_p99_ms":1.95,"lat_budget_max_ms":1.95)"
      R"(,"lat_job_count":5,"lat_job_p50_ms":0.02562890625)"
      R"(,"lat_job_p95_ms":0.7,"lat_job_p99_ms":0.7,"lat_job_max_ms":0.7)"
      R"(,"lat_stats_count":3,"lat_stats_p50_ms":0.03)"
      R"(,"lat_stats_p95_ms":0.03,"lat_stats_p99_ms":0.03)"
      R"(,"lat_stats_max_ms":0.03,"online_reports":12)"
      R"(,"online_measurements":40,"online_duplicates":3)"
      R"(,"online_rejected":1,"online_buffered":33)"
      R"(,"online_rolling_mape":0.123456789,"online_drift_events":2)"
      R"(,"online_incremental_updates":7,"online_refits":1)"
      R"(,"online_shadow_evals":1,"online_promotions":1)"
      R"(,"online_promotions_rejected":0,"online_cache_invalidated":17})");
  const auto got = parse_record(format_response(r));
  for (const auto& [key, value] : want) {
    // These counters are gone.
    if (key == "retries" || key == "online_incremental_updates") continue;
    ASSERT_EQ(got.count(key), 1u) << key;
    EXPECT_EQ(got.at(key), value) << key;
  }
  EXPECT_EQ(got.size(), want.size() - 2);
}

TEST(ServerStatsTest, BatchAndTailFieldsSurviveTheWire) {
  Response r;
  r.ok = true;
  r.op = "stats";
  r.has_stats = true;
  r.stats.batched_requests = 123;
  r.stats.batch_flushes = 17;
  r.stats.batch_bypass = 9;
  r.stats.batch_sizes = {0, 9, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 13};
  r.stats.overflow_closed = 4;
  LatencyHistogram stq;
  stq.record_n(0.0005, 7);
  stq.record(0.002);
  stq.record(0.003);
  stq.record(0.00375);
  stq.record(8.125);
  r.stats.verb_latency[static_cast<int>(Op::kStq)] = stq.snapshot();

  const std::string frame = wire::encode_response_frame({r});
  wire::FrameHeader header;
  std::string error;
  ASSERT_EQ(wire::probe_frame(
                reinterpret_cast<const unsigned char*>(frame.data()),
                frame.size(), &header, &error),
            wire::FrameStatus::kHeader)
      << error;
  const auto decoded = wire::decode_response_frame(
      header,
      reinterpret_cast<const unsigned char*>(frame.data()) + wire::kHeaderBytes);
  ASSERT_EQ(decoded.size(), 1u);
  const auto& d = decoded[0].stats;
  EXPECT_EQ(d.batched_requests, 123u);
  EXPECT_EQ(d.batch_flushes, 17u);
  EXPECT_EQ(d.batch_bypass, 9u);
  EXPECT_EQ(d.batch_sizes, r.stats.batch_sizes);
  EXPECT_EQ(d.batch_size_quantile(0.50), 2.0);
  EXPECT_EQ(d.batch_size_quantile(0.95), 12.0);
  EXPECT_EQ(d.overflow_closed, 4u);
  const auto& dv = d.verb_latency[static_cast<int>(Op::kStq)];
  EXPECT_EQ(dv.buckets, r.stats.verb_latency[static_cast<int>(Op::kStq)].buckets);
  EXPECT_EQ(dv.count, 11u);
  EXPECT_EQ(dv.max(), 8.125);
  EXPECT_EQ(d, r.stats);
}

TEST(EventLoopOptionsTest, EffectiveInbufResolvesZeroToDerivedDefault) {
  EventLoopOptions opt;
  opt.max_line_bytes = 100;
  EXPECT_EQ(opt.effective_inbuf_bytes(), 100 + wire::kMaxFramePayload * 2);
  opt.max_inbuf_bytes = 4096;
  EXPECT_EQ(opt.effective_inbuf_bytes(), 4096u);
}

TEST(LatencyHistogramTest, TracksExactMax) {
  LatencyHistogram h;
  EXPECT_EQ(h.max(), 0.0);
  h.record(0.002);
  h.record(0.125);
  h.record(0.0004);
  EXPECT_EQ(h.max(), 0.125);
  h.reset();
  EXPECT_EQ(h.max(), 0.0);
}

}  // namespace
}  // namespace ccpred::serve
