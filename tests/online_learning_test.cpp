// Tests for the closed-loop online learning subsystem: the feedback
// buffer, drift detector and shadow evaluator in isolation; the model
// registry's content-aware republish detection (same-mtime republish,
// identical-bytes absorption); the per-verb latency surfacing; and the
// end-to-end loop — serve, report a shifted regime, drift, refit, shadow
// eval, atomic promotion, recovery — which must be fully deterministic.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ccpred/common/error.hpp"
#include "ccpred/common/strings.hpp"
#include "ccpred/core/gradient_boosting.hpp"
#include "ccpred/core/serialize.hpp"
#include "ccpred/data/generator.hpp"
#include "ccpred/data/problems.hpp"
#include "ccpred/serve/model_registry.hpp"
#include "ccpred/serve/online/drift_detector.hpp"
#include "ccpred/serve/online/feedback_buffer.hpp"
#include "ccpred/serve/online/shadow_evaluator.hpp"
#include "ccpred/serve/server.hpp"
#include "test_util.hpp"

namespace ccpred::serve {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch directory per test.
std::string scratch_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("ccpred_online_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

/// A small fitted GB on real campaign features, fast to train.
ml::GradientBoostingRegressor campaign_gb(int stages = 15) {
  static const auto split = test::small_campaign(250);
  ml::GradientBoostingRegressor model(stages);
  model.fit(split.train.features(), split.train.targets());
  return model;
}

// ---------------------------------------------------------- FeedbackBuffer

online::MeasuredRun run_of(int o, int v, int nodes, int tile, double wall) {
  online::MeasuredRun r;
  r.o = o;
  r.v = v;
  r.nodes = nodes;
  r.tile = tile;
  r.wall_time_s = wall;
  return r;
}

TEST(FeedbackBufferTest, AcceptsDedupsAndRejects) {
  online::FeedbackBuffer buf(8);
  EXPECT_EQ(buf.add(run_of(44, 260, 16, 60, 12.5)),
            online::AddResult::kAccepted);
  // Byte-identical measurement: a client retry, not new information.
  EXPECT_EQ(buf.add(run_of(44, 260, 16, 60, 12.5)),
            online::AddResult::kDuplicate);
  // Same configuration, different noise draw: both are real measurements.
  EXPECT_EQ(buf.add(run_of(44, 260, 16, 60, 12.5000001)),
            online::AddResult::kAccepted);
  EXPECT_EQ(buf.add(run_of(44, 260, 16, 60, 0.0)),
            online::AddResult::kRejected);
  EXPECT_EQ(buf.add(run_of(44, 260, 16, 60, -3.0)),
            online::AddResult::kRejected);
  EXPECT_EQ(buf.add(run_of(44, 260, 16, 60,
                           std::numeric_limits<double>::quiet_NaN())),
            online::AddResult::kRejected);
  EXPECT_EQ(buf.add(run_of(44, 260, 16, 60,
                           std::numeric_limits<double>::infinity())),
            online::AddResult::kRejected);
  EXPECT_EQ(buf.size(), 2u);
  EXPECT_EQ(buf.accepted(), 2u);
}

TEST(FeedbackBufferTest, EvictionFreesTheDedupKey) {
  online::FeedbackBuffer buf(2);
  buf.add(run_of(1, 2, 3, 4, 1.0));
  buf.add(run_of(1, 2, 3, 4, 2.0));
  buf.add(run_of(1, 2, 3, 4, 3.0));  // evicts the 1.0 row
  EXPECT_EQ(buf.size(), 2u);
  // The evicted row's key must be gone too: re-adding it is a fresh
  // measurement, and it in turn evicts the 2.0 row.
  EXPECT_EQ(buf.add(run_of(1, 2, 3, 4, 1.0)), online::AddResult::kAccepted);
  const auto rows = buf.snapshot();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_DOUBLE_EQ(rows[0].wall_time_s, 3.0);
  EXPECT_DOUBLE_EQ(rows[1].wall_time_s, 1.0);
  // But a still-resident row stays a duplicate.
  EXPECT_EQ(buf.add(run_of(1, 2, 3, 4, 3.0)), online::AddResult::kDuplicate);
  EXPECT_EQ(buf.accepted(), 4u);  // monotonic across evictions
}

TEST(FeedbackBufferTest, SnapshotIsChronological) {
  online::FeedbackBuffer buf(16);
  for (int i = 1; i <= 5; ++i) buf.add(run_of(1, 2, 3, 4, i));
  const auto all = buf.snapshot();
  ASSERT_EQ(all.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_DOUBLE_EQ(all[i].wall_time_s, i + 1.0);
}

// ----------------------------------------------------------- DriftDetector

TEST(DriftDetectorTest, ColdWindowNeverTrips) {
  online::DriftOptions opt;
  opt.window = 8;
  opt.min_samples = 4;
  opt.mape_threshold = 0.25;
  online::DriftDetector d(opt);
  EXPECT_FALSE(d.drifting());
  EXPECT_DOUBLE_EQ(d.rolling_mape(), 0.0);
  // Three wildly wrong pairs: MAPE is huge but the window is not warm.
  for (int i = 0; i < 3; ++i) d.observe(10.0, 100.0);
  EXPECT_FALSE(d.drifting());
  EXPECT_EQ(d.samples(), 3u);
}

TEST(DriftDetectorTest, TripsRecoversAndResets) {
  online::DriftOptions opt;
  opt.window = 8;
  opt.min_samples = 4;
  opt.mape_threshold = 0.25;
  online::DriftDetector d(opt);
  // |10 - 16| / 16 = 0.375 per pair.
  for (int i = 0; i < 4; ++i) d.observe(10.0, 16.0);
  EXPECT_TRUE(d.drifting());
  EXPECT_NEAR(d.rolling_mape(), 0.375, 1e-12);

  // Accurate pairs roll the bad ones out of the window.
  for (int i = 0; i < 8; ++i) d.observe(16.0, 16.0);
  EXPECT_FALSE(d.drifting());
  EXPECT_DOUBLE_EQ(d.rolling_mape(), 0.0);
  EXPECT_EQ(d.samples(), 8u);  // capped at the window

  d.reset();
  EXPECT_EQ(d.samples(), 0u);
  EXPECT_FALSE(d.drifting());
}

TEST(DriftDetectorTest, IgnoresUnusablePairs) {
  online::DriftDetector d(online::DriftOptions{});
  d.observe(std::numeric_limits<double>::quiet_NaN(), 10.0);
  d.observe(10.0, std::numeric_limits<double>::infinity());
  d.observe(10.0, 0.0);
  d.observe(10.0, -1.0);
  EXPECT_EQ(d.samples(), 0u);
}

// --------------------------------------------------------- ShadowEvaluator

/// Fixed-output model: predicts `value` everywhere.
class ConstantModel : public ml::Regressor {
 public:
  explicit ConstantModel(double value) : value_(value) {}
  void fit(const linalg::Matrix&, const std::vector<double>&) override {}
  std::vector<double> predict(const linalg::Matrix& x) const override {
    return std::vector<double>(x.rows(), value_);
  }
  std::unique_ptr<Regressor> clone() const override {
    return std::make_unique<ConstantModel>(value_);
  }
  const std::string& name() const override {
    static const std::string n = "CONST";
    return n;
  }
  void set_params(const ml::ParamMap&) override {}
  bool is_fitted() const override { return true; }

 private:
  double value_;
};

TEST(ShadowEvaluatorTest, BetterCandidatePromotesWorseDoesNot) {
  std::vector<online::MeasuredRun> holdout;
  for (int i = 0; i < 4; ++i) holdout.push_back(run_of(44, 260, 16, 60, 20.0));
  const ConstantModel truth(20.0);
  const ConstantModel off_by_half(10.0);

  EXPECT_DOUBLE_EQ(online::ShadowEvaluator::mape(truth, holdout), 0.0);
  EXPECT_DOUBLE_EQ(online::ShadowEvaluator::mape(off_by_half, holdout), 0.5);

  const auto win = online::ShadowEvaluator::judge(truth, off_by_half, holdout,
                                                  /*min_improvement=*/0.0);
  EXPECT_TRUE(win.promote);
  EXPECT_DOUBLE_EQ(win.candidate_mape, 0.0);
  EXPECT_DOUBLE_EQ(win.incumbent_mape, 0.5);
  EXPECT_EQ(win.holdout_size, 4u);

  const auto lose = online::ShadowEvaluator::judge(off_by_half, truth, holdout,
                                                   /*min_improvement=*/0.0);
  EXPECT_FALSE(lose.promote);

  // A tie is not a win: promotion churn needs strict improvement.
  const auto tie = online::ShadowEvaluator::judge(
      off_by_half, ConstantModel(30.0), holdout, /*min_improvement=*/0.0);
  EXPECT_DOUBLE_EQ(tie.candidate_mape, tie.incumbent_mape);
  EXPECT_FALSE(tie.promote);
}

TEST(ShadowEvaluatorTest, MinImprovementDemandsAMargin) {
  std::vector<online::MeasuredRun> holdout;
  for (int i = 0; i < 4; ++i) holdout.push_back(run_of(44, 260, 16, 60, 20.0));
  const ConstantModel candidate(18.0);  // MAPE 0.10
  const ConstantModel incumbent(17.6);  // MAPE 0.12
  // A ~17% relative improvement: enough for a 10% bar, not for 30%.
  EXPECT_TRUE(online::ShadowEvaluator::judge(candidate, incumbent, holdout, 0.1)
                  .promote);
  EXPECT_FALSE(
      online::ShadowEvaluator::judge(candidate, incumbent, holdout, 0.3)
          .promote);
}

TEST(ShadowEvaluatorTest, EmptyHoldoutNeverPromotes) {
  const ConstantModel a(1.0), b(2.0);
  const auto verdict = online::ShadowEvaluator::judge(a, b, {}, 0.0);
  EXPECT_FALSE(verdict.promote);
  EXPECT_EQ(verdict.holdout_size, 0u);
}

// --------------------------------------- ModelRegistry republish detection

TEST(ModelRegistryOnlineTest, NotePublishedCatchesSameMtimeRepublish) {
  const auto dir = scratch_dir("registry_same_mtime");
  ModelRegistry registry(dir);
  const auto path = registry.artifact_path("aurora", "gb");
  ml::save_gb(campaign_gb(10), path);
  const auto first = registry.get("aurora", "gb");
  EXPECT_EQ(first.version, 1u);

  // Republish DIFFERENT bytes but pin the mtime back to the first
  // publish's: a second promotion landing within the filesystem's mtime
  // granularity. mtime-only change detection misses it...
  const auto stamp = fs::last_write_time(path);
  ml::save_gb(campaign_gb(20), path);
  fs::last_write_time(path, stamp);
  EXPECT_EQ(registry.get("aurora", "gb").version, 1u);

  // ...until the publisher says so: note_published() forces a content-hash
  // recheck on the next get(), which sees the new bytes and reloads.
  registry.note_published("aurora", "gb");
  const auto second = registry.get("aurora", "gb");
  EXPECT_EQ(second.version, 2u);
  EXPECT_NE(second.model, first.model);
  EXPECT_FALSE(second.stale);
  EXPECT_EQ(registry.loads(), 2u);
}

TEST(ModelRegistryOnlineTest, IdenticalBytesAbsorbedWithoutVersionBump) {
  const auto dir = scratch_dir("registry_same_bytes");
  ModelRegistry registry(dir);
  const auto path = registry.artifact_path("aurora", "gb");
  ml::save_gb(campaign_gb(10), path);
  EXPECT_EQ(registry.get("aurora", "gb").version, 1u);

  // Touch: new mtime, same bytes. A version bump here would invalidate
  // every cached sweep for nothing; the hash says nothing changed.
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    bytes = ss.str();
  }
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  fs::last_write_time(path,
                      fs::last_write_time(path) + std::chrono::seconds(2));
  EXPECT_EQ(registry.get("aurora", "gb").version, 1u);
  EXPECT_EQ(registry.hash_skips(), 1u);
  EXPECT_EQ(registry.loads(), 1u);  // absorbed: hashed but not re-parsed

  // Identical-bytes republish flagged via note_published: same outcome.
  registry.note_published("aurora", "gb");
  EXPECT_EQ(registry.get("aurora", "gb").version, 1u);
  EXPECT_EQ(registry.hash_skips(), 2u);

  // And the registry still reloads when bytes DO change afterwards.
  ml::save_gb(campaign_gb(20), path);
  fs::last_write_time(path,
                      fs::last_write_time(path) + std::chrono::seconds(4));
  EXPECT_EQ(registry.get("aurora", "gb").version, 2u);
}

TEST(ModelRegistryOnlineTest, SameMtimeABARepublishesServeTheFileOnDisk) {
  // Models A and B alternate at one pinned mtime, each swapped in by
  // rename and announced with note_published(). After every step the
  // served model must be the one on disk: a content hash recorded against
  // the wrong model would absorb the second A as "same bytes" and keep
  // serving B.
  const auto dir = scratch_dir("registry_aba");
  ModelRegistry registry(dir);
  const auto path = registry.artifact_path("aurora", "gb");
  const std::string a = ml::serialize_gb(campaign_gb(10));
  const std::string b = ml::serialize_gb(campaign_gb(20));
  const auto stamp = std::chrono::floor<std::chrono::seconds>(
      fs::file_time_type::clock::now() - std::chrono::hours(1));
  const auto publish = [&](const std::string& bytes) {
    const std::string tmp = path + ".tmp";
    {
      std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
      out << bytes;
    }
    fs::last_write_time(tmp, stamp);
    fs::rename(tmp, path);
    registry.note_published("aurora", "gb");
  };
  const auto x = test::small_campaign(250).test.features();
  int step = 0;
  for (const std::string* bytes : {&a, &b, &a, &b, &a}) {
    publish(*bytes);
    const auto served = registry.get("aurora", "gb").model->predict(x);
    const auto on_disk = ml::load_gb(path).predict(x);
    ASSERT_EQ(served.size(), on_disk.size());
    for (std::size_t i = 0; i < served.size(); ++i) {
      ASSERT_EQ(served[i], on_disk[i]) << "step " << step << " row " << i;
    }
    ++step;
  }
  EXPECT_EQ(registry.loads(), 5u);
  EXPECT_EQ(registry.reload_failures(), 0u);
}

// ----------------------------------------------------- per-verb latencies

TEST(ServerStatsTest, PerVerbLatencyHistogramsSurfaceThroughStats) {
  const auto dir = scratch_dir("verb_latency");
  ModelRegistry registry(dir);
  ml::save_gb(campaign_gb(), registry.artifact_path("aurora", "gb"));
  ServeOptions base;
  base.threads = 1;
  base.online.enabled = true;
  Server server(registry, base);

  Request stq;
  stq.op = Op::kStq;
  stq.o = 44;
  stq.v = 260;
  ASSERT_TRUE(server.handle(stq).ok);
  ASSERT_TRUE(server.handle(stq).ok);
  Request job = stq;
  job.op = Op::kJob;
  job.nodes = 16;
  job.tile = 60;
  ASSERT_TRUE(server.handle(job).ok);
  Request report = job;
  report.op = Op::kReport;
  report.wall_times = {12.5};
  ASSERT_TRUE(server.handle(report).ok);
  Request stats_req;
  stats_req.op = Op::kStats;
  ASSERT_TRUE(server.handle(stats_req).ok);  // records its own latency

  const auto s = server.stats();
  EXPECT_EQ(s.verb_latency[static_cast<std::size_t>(Op::kStq)].count, 2u);
  EXPECT_EQ(s.verb_latency[static_cast<std::size_t>(Op::kJob)].count, 1u);
  EXPECT_EQ(s.verb_latency[static_cast<std::size_t>(Op::kReport)].count, 1u);
  EXPECT_EQ(s.verb_latency[static_cast<std::size_t>(Op::kStats)].count, 1u);
  EXPECT_EQ(s.verb_latency[static_cast<std::size_t>(Op::kBq)].count, 0u);
  const auto& stq_lat = s.verb_latency[static_cast<std::size_t>(Op::kStq)];
  EXPECT_GT(stq_lat.quantile(0.50), 0.0);
  EXPECT_LE(stq_lat.quantile(0.50), stq_lat.quantile(0.95));

  // The formatted stats verb carries the same numbers; verbs never served
  // are omitted entirely.
  const auto second = server.handle(stats_req);
  ASSERT_TRUE(second.has_stats);
  const auto rec = parse_record(format_response(second));
  EXPECT_EQ(rec.at("lat_stq_count"), "2");
  EXPECT_EQ(rec.at("lat_job_count"), "1");
  EXPECT_EQ(rec.at("lat_report_count"), "1");
  EXPECT_EQ(rec.at("lat_stats_count"), "1");
  EXPECT_EQ(rec.count("lat_bq_count"), 0u);
  EXPECT_EQ(rec.count("lat_budget_count"), 0u);
  EXPECT_GT(parse_double(rec.at("lat_stq_p95_ms")), 0.0);
  // Online counters ride in the same record.
  EXPECT_EQ(rec.at("online_reports"), "1");
  EXPECT_EQ(rec.at("online_measurements"), "1");
  EXPECT_EQ(rec.at("online_buffered"), "1");
}

TEST(ServerStatsTest, OnlineFieldsAbsentWhenDisabled) {
  const auto dir = scratch_dir("online_disabled");
  ModelRegistry registry(dir);
  ml::save_gb(campaign_gb(), registry.artifact_path("aurora", "gb"));
  Server server(registry, ServeOptions{});

  Request report;
  report.op = Op::kReport;
  report.o = 44;
  report.v = 260;
  report.nodes = 16;
  report.tile = 60;
  report.wall_times = {12.5};
  const auto r = server.handle(report);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.code, "bad_request");
  EXPECT_NE(r.error.find("disabled"), std::string::npos);

  Request stats_req;
  stats_req.op = Op::kStats;
  const auto s = server.handle(stats_req);
  ASSERT_TRUE(s.has_stats);
  const auto rec = parse_record(format_response(s));
  EXPECT_EQ(rec.count("online_reports"), 0u);
  EXPECT_EQ(rec.count("online_promotions"), 0u);
}

// ------------------------------------------------- end-to-end closed loop

/// Everything observable about one closed-loop run, for the determinism
/// comparison below. All fields are exact (no tolerances).
struct LoopResult {
  std::uint64_t version_before = 0;
  std::uint64_t version_after = 0;
  std::uint64_t promotions = 0;
  std::uint64_t refits = 0;
  std::uint64_t shadow_evals = 0;
  std::uint64_t drift_events = 0;
  std::uint64_t cache_invalidated = 0;
  std::size_t reports_to_promotion = 0;
  double peak_mape = 0.0;
  double post_mape = 0.0;
  int nodes = 0;
  int tile = 0;
  double time_s = 0.0;
};

/// Serve, report a 1.6x-slower regime until promotion, then report fresh
/// measurements of the same regime and read the recovered rolling MAPE.
LoopResult run_closed_loop(const std::string& name) {
  const auto dir = scratch_dir(name);
  RegistryOptions ropt;
  ropt.fallback_rows = 160;
  // Enough boosting stages that shrinkage converges: with 0.1 learning
  // rate a short ensemble leaves a bias of a few percent of the GLOBAL
  // mean, which on these orders-of-magnitude-spanning targets would dwarf
  // the regime shift the test injects.
  ropt.gb_estimators = 200;
  ModelRegistry registry(dir, ropt);

  ServeOptions base;
  base.threads = 2;
  base.online.enabled = true;
  base.online.drift.window = 16;
  base.online.drift.min_samples = 8;
  base.online.drift.mape_threshold = 0.25;
  base.online.min_refit_rows = 24;
  base.online.holdout = 8;
  base.online.feedback_weight = 12;
  base.online.min_improvement = 0.0;
  Server server(registry, base);

  // Warm a sweep so the promotion has version-v1 shards to invalidate.
  Request warm;
  warm.op = Op::kStq;
  warm.o = 44;
  warm.v = 260;
  const auto before = server.handle(warm);
  EXPECT_TRUE(before.ok) << before.error;

  LoopResult out;
  out.version_before = before.model_version;

  // The reported "truth": the exact configurations the incumbent trained
  // on (the registry's fallback campaign), but 1.6x slower — an
  // unambiguous regime change, far beyond run-to-run noise.
  const sim::CcsdSimulator simulator(sim::MachineModel::aurora());
  data::GeneratorOptions gen;
  gen.seed = ropt.fallback_seed;
  gen.target_total = ropt.fallback_rows;
  const auto campaign = data::generate_dataset(
      simulator, data::problems_for(simulator.machine().name), gen);
  const auto& x = campaign.features();

  const auto report = [&](std::size_t i, int rep) {
    Request r;
    r.op = Op::kReport;
    r.o = static_cast<int>(x(i, data::kFeatO));
    r.v = static_cast<int>(x(i, data::kFeatV));
    r.nodes = static_cast<int>(x(i, data::kFeatNodes));
    r.tile = static_cast<int>(x(i, data::kFeatTile));
    // A tiny per-repeat perturbation keeps repeat measurements byte-
    // distinct (the dedup key hashes the wall-time bits).
    r.wall_times = {campaign.targets()[i] * 1.6 * (1.0 + 1e-3 * rep)};
    Response resp = server.handle(r);
    // A refit this report scheduled finishes (and promotes) before the next
    // report: every run takes the same path.
    server.online()->wait_idle();
    return resp;
  };

  // Phase 1: report the shifted regime until the loop promotes.
  std::size_t sent = 0;
  while (server.online()->counters().promotions == 0 && sent < 80) {
    const auto resp = report(sent % campaign.size(), 0);
    EXPECT_TRUE(resp.ok) << resp.error;
    EXPECT_TRUE(resp.has_report);
    EXPECT_EQ(resp.accepted, 1u);
    out.peak_mape = std::max(out.peak_mape, resp.rolling_mape);
    ++sent;
  }
  out.reports_to_promotion = sent;

  // Phase 2: fresh (jittered) measurements of the same shifted regime,
  // scored by whatever is serving now.
  for (std::size_t j = 0; j < 12; ++j) {
    const auto resp = report(j % campaign.size(), 1);
    EXPECT_TRUE(resp.ok) << resp.error;
    out.post_mape = resp.rolling_mape;
  }

  const auto c = server.online()->counters();
  out.promotions = c.promotions;
  out.refits = c.refits;
  out.shadow_evals = c.shadow_evals;
  out.drift_events = c.drift_events;
  out.cache_invalidated = c.cache_invalidated;

  const auto after = server.handle(warm);
  EXPECT_TRUE(after.ok) << after.error;
  out.version_after = after.model_version;
  out.nodes = after.nodes;
  out.tile = after.tile;
  out.time_s = after.time_s;
  return out;
}

TEST(OnlineLoopTest, DriftRefitShadowEvalPromoteRecover) {
  const LoopResult r = run_closed_loop("e2e");

  // The loop closed: drift tripped, a candidate trained, shadow eval ran,
  // and the candidate won promotion.
  EXPECT_GE(r.drift_events, 1u);
  EXPECT_GE(r.refits, 1u);
  EXPECT_GE(r.shadow_evals, 1u);
  EXPECT_GE(r.promotions, 1u);
  EXPECT_LT(r.reports_to_promotion, 80u);  // did not exhaust the budget

  // The promotion republished atomically through the registry (version
  // bump, not stale) and dropped the warmed v1 sweep shard.
  EXPECT_GT(r.version_after, r.version_before);
  EXPECT_GE(r.cache_invalidated, 1u);

  // Recovery: before promotion the model under-predicted the 1.6x-slower
  // machine by ~37%; after, fresh reports of the same regime score below
  // the drift threshold again.
  EXPECT_GT(r.peak_mape, 0.25);
  EXPECT_LT(r.post_mape, 0.25);
  EXPECT_LT(r.post_mape, r.peak_mape);
}

TEST(OnlineLoopTest, ClosedLoopIsDeterministic) {
  const LoopResult a = run_closed_loop("det_a");
  const LoopResult b = run_closed_loop("det_b");
  EXPECT_EQ(a.version_before, b.version_before);
  EXPECT_EQ(a.version_after, b.version_after);
  EXPECT_EQ(a.promotions, b.promotions);
  EXPECT_EQ(a.refits, b.refits);
  EXPECT_EQ(a.shadow_evals, b.shadow_evals);
  EXPECT_EQ(a.drift_events, b.drift_events);
  EXPECT_EQ(a.cache_invalidated, b.cache_invalidated);
  EXPECT_EQ(a.reports_to_promotion, b.reports_to_promotion);
  EXPECT_EQ(a.peak_mape, b.peak_mape);  // bit-exact
  EXPECT_EQ(a.post_mape, b.post_mape);
  EXPECT_EQ(a.nodes, b.nodes);
  EXPECT_EQ(a.tile, b.tile);
  EXPECT_EQ(a.time_s, b.time_s);
}

TEST(OnlineLoopTest, StreamThatIsNotDriftingNeverRefits) {
  // Far more accepted rows than min_refit_rows, but the rolling MAPE can
  // never cross the threshold: only drift schedules a refit.
  const auto dir = scratch_dir("no_drift");
  ModelRegistry registry(dir);
  ml::save_gb(campaign_gb(), registry.artifact_path("aurora", "gb"));
  ServeOptions base;
  base.online.enabled = true;
  base.online.drift.mape_threshold = 1e9;
  base.online.min_refit_rows = 8;
  Server server(registry, base);

  Request r;
  r.op = Op::kReport;
  r.o = 44;
  r.v = 260;
  r.nodes = 16;
  r.tile = 60;
  for (int i = 0; i < 64; ++i) {
    r.wall_times = {12.5 + i};  // byte-distinct: every report is accepted
    const auto resp = server.handle(r);
    ASSERT_TRUE(resp.ok) << resp.error;
    EXPECT_EQ(resp.accepted, 1u) << "report " << i;
    EXPECT_FALSE(resp.refit_scheduled) << "report " << i;
  }

  const auto c = server.online()->counters();
  EXPECT_EQ(c.buffered, 64u);
  EXPECT_EQ(c.drift_events, 0u);
  EXPECT_EQ(c.refits, 0u);
}

TEST(OnlineLoopTest, InvalidDriftThresholdFailsAtConstruction) {
  // A threshold the drift detector rejects must fail when the server is
  // built, not on the first report of every stream.
  const auto dir = scratch_dir("bad_drift");
  ModelRegistry registry(dir);
  for (const double threshold :
       {-1.0, 0.0, std::numeric_limits<double>::quiet_NaN()}) {
    ServeOptions base;
    base.online.enabled = true;
    base.online.drift.mape_threshold = threshold;
    EXPECT_THROW({ Server server(registry, base); }, Error) << threshold;
  }
}

TEST(OnlineLoopTest, DuplicateReportsAreCountedNotLearned) {
  const auto dir = scratch_dir("dup_reports");
  ModelRegistry registry(dir);
  ml::save_gb(campaign_gb(), registry.artifact_path("aurora", "gb"));
  ServeOptions base;
  base.online.enabled = true;
  Server server(registry, base);

  Request r;
  r.op = Op::kReport;
  r.o = 44;
  r.v = 260;
  r.nodes = 16;
  r.tile = 60;
  r.wall_times = {12.5, 12.5, 13.0};  // one in-batch retry
  const auto first = server.handle(r);
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_EQ(first.accepted, 2u);
  EXPECT_EQ(first.duplicates, 1u);
  EXPECT_EQ(first.buffered, 2u);

  const auto again = server.handle(r);  // full redelivery
  ASSERT_TRUE(again.ok);
  EXPECT_EQ(again.accepted, 0u);
  EXPECT_EQ(again.duplicates, 3u);
  EXPECT_EQ(again.buffered, 2u);

  const auto c = server.online()->counters();
  EXPECT_EQ(c.measurements, 6u);
  EXPECT_EQ(c.duplicates, 4u);
  EXPECT_EQ(c.buffered, 2u);
}

}  // namespace
}  // namespace ccpred::serve
