#include "replay.hpp"

#include <filesystem>
#include <map>
#include <memory>

#include "ccpred/active/pool.hpp"
#include "ccpred/active/uncertainty_sampling.hpp"
#include "ccpred/core/gaussian_process.hpp"
#include "ccpred/core/gradient_boosting.hpp"
#include "ccpred/core/serialize.hpp"
#include "ccpred/data/generator.hpp"
#include "ccpred/data/problems.hpp"
#include "ccpred/serve/model_registry.hpp"
#include "ccpred/serve/online/online_trainer.hpp"
#include "ccpred/serve/sweep_cache.hpp"
#include "ccpred/sim/solver.hpp"
#include "traced_server.hpp"

namespace ccpred::ledger {
namespace {

namespace fs = std::filesystem;

volatile std::size_t g_sink = 0;

/// Keeps a timed result observable, so the call is not optimised away.
template <typename T>
void keep(T value) {
  g_sink = g_sink + static_cast<std::size_t>(value);
}

/// ns per operation: `f` performs `ops` operations; it is repeated until
/// `min_s` has passed, and the median of five such repetitions is taken.
template <typename F>
double ns_per_op(F&& f, std::size_t ops, double min_s) {
  std::vector<double> reps;
  for (int r = 0; r < 5; ++r) {
    std::size_t calls = 0;
    const std::int64_t t0 = now_ns();
    std::int64_t t1 = t0;
    do {
      f();
      ++calls;
      t1 = now_ns();
    } while (static_cast<double>(t1 - t0) < min_s * 1e9);
    reps.push_back(static_cast<double>(t1 - t0) /
                   static_cast<double>(calls * ops));
  }
  return median(reps);
}

/// Milliseconds taken by one call of `f`.
template <typename F>
double time_ms(F&& f) {
  const std::int64_t t0 = now_ns();
  f();
  return static_cast<double>(now_ns() - t0) / 1e6;
}

/// Median of `reps` calls of `f`, in ms.
template <typename F>
double median_ms(int reps, F&& f) {
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) ms.push_back(time_ms(f));
  return median(ms);
}

/// The feasible (nodes, tile) candidate rows of a sweep, as Advisor
/// enumerates them.
linalg::Matrix candidate_rows(const sim::CcsdSimulator& sim, int o, int v) {
  std::vector<sim::RunConfig> cfgs;
  for (const int n : sim.machine().node_menu()) {
    for (const int t : sim.machine().tile_menu()) {
      const sim::RunConfig cfg{.o = o, .v = v, .nodes = n, .tile = t};
      if (sim.feasible(cfg)) cfgs.push_back(cfg);
    }
  }
  linalg::Matrix x(cfgs.size(), data::kNumFeatures);
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    x(i, data::kFeatO) = cfgs[i].o;
    x(i, data::kFeatV) = cfgs[i].v;
    x(i, data::kFeatNodes) = cfgs[i].nodes;
    x(i, data::kFeatTile) = cfgs[i].tile;
  }
  return x;
}

void replay_protocol(const ReplayInput& in,
                     const std::vector<serve::Request>& reqs, double min_s,
                     Report* out) {
  std::vector<std::string> lines;
  std::vector<serve::Response> responses;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    lines.push_back(serve::format_request(reqs[i]));
    if (reqs[i].op == serve::Op::kReport) {
      serve::Response r;
      r.ok = true;
      r.op = serve::op_name(serve::Op::kReport);
      r.has_report = true;
      r.accepted = reqs[i].wall_times.size();
      responses.push_back(r);
    } else {
      responses.push_back(in.reference->response(*in.traffic, in.classes[i]));
    }
    responses.back().id = reqs[i].id;
  }
  const double parse_ns = ns_per_op(
      [&] {
        for (const std::string& line : lines) keep(serve::parse_request(line).o);
      },
      lines.size(), min_s);
  const double render_ns = ns_per_op(
      [&] {
        for (const serve::Response& r : responses) {
          keep(serve::format_response(r).size());
        }
      },
      responses.size(), min_s);
  out->push_back({"protocol.parse_ns", parse_ns, "ns", lines.size()});
  out->push_back({"protocol.render_ns", render_ns, "ns", responses.size()});
}

void replay_registry(const ReplayInput& in,
                     const std::vector<serve::Request>& reqs, double min_s,
                     Report* out) {
  serve::ModelRegistry registry(in.artifact_dir,
                                daemon_registry_options(in.smoke));
  registry.get("aurora", "gb");
  registry.get("frontier", "gb");
  const double get_ns = ns_per_op(
      [&] {
        for (const serve::Request& r : reqs) {
          keep(registry.get(r.machine, "gb").version);
        }
      },
      reqs.size(), min_s);
  out->push_back({"registry.get_ns", get_ns, "ns", reqs.size()});

  // A republish with other bytes (the frontier model) makes the next get()
  // hash and load the artifact again; timed alternating with the original.
  const std::string path = registry.artifact_path("aurora", "gb");
  const std::string bytes[2] = {
      read_file(registry.artifact_path("frontier", "gb")), read_file(path)};
  std::vector<double> ms;
  for (int r = 0; r < (in.smoke ? 2 : 6); ++r) {
    publish_atomically(path, bytes[r % 2]);
    registry.note_published("aurora", "gb");
    ms.push_back(time_ms([&] { keep(registry.get("aurora", "gb").version); }));
  }
  const std::size_t reloads = ms.size();
  out->push_back({"registry.reload_ms", median(ms), "ms", reloads});
}

void replay_cache_and_derive(const ReplayInput& in,
                             const std::vector<serve::Request>& reqs,
                             double min_s, Report* out) {
  std::map<std::uint32_t, serve::SweepPtr> sweeps;
  std::vector<serve::SweepKey> keys;
  std::vector<serve::SweepPtr> values;
  // Pre-resolved, so the derive timings hold nothing but the scans.
  std::vector<const guide::Recommendation*> bq;
  std::vector<std::pair<const guide::Recommendation*, double>> budget;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const serve::Op op = reqs[i].op;
    if (op == serve::Op::kReport) continue;
    const std::uint32_t key = in.classes[i] / kSlots;
    serve::SweepPtr& ptr = sweeps[key];
    if (ptr == nullptr) {
      ptr = std::make_shared<const guide::Recommendation>(
          in.reference->sweep(key));
    }
    keys.push_back({reqs[i].machine, "gb", 1, reqs[i].o, reqs[i].v});
    values.push_back(ptr);
    if (op == serve::Op::kBq) bq.push_back(ptr.get());
    if (op == serve::Op::kBudget) {
      budget.emplace_back(ptr.get(), reqs[i].max_node_hours);
    }
  }

  // The daemon's cache size, filled by the stream itself (misses insert).
  serve::SweepCache cache(256);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (cache.get(keys[i]) == nullptr) cache.put(keys[i], values[i]);
  }
  const double probe_ns = ns_per_op(
      [&] {
        for (const serve::SweepKey& k : keys) keep(cache.get(k) != nullptr);
      },
      keys.size(), min_s);
  const double bq_ns = ns_per_op(
      [&] {
        for (const guide::Recommendation* sweep : bq) {
          keep(guide::Advisor::pick_best(sweep->sweep,
                                         guide::Objective::kNodeHours)
                   .config.nodes);
        }
      },
      bq.size(), min_s);
  const double budget_ns = ns_per_op(
      [&] {
        for (const auto& [sweep, max_node_hours] : budget) {
          keep(guide::Advisor::pick_within_budget(*sweep, max_node_hours)
                   .config.nodes);
        }
      },
      budget.size(), min_s);
  out->push_back({"cache.probe_ns", probe_ns, "ns", keys.size()});
  out->push_back({"advisor.derive_ns.bq", bq_ns, "ns", bq.size()});
  out->push_back({"advisor.derive_ns.budget", budget_ns, "ns", budget.size()});
}

void replay_sweeps(const ReplayInput& in,
                   const std::vector<serve::Request>& reqs, Report* out) {
  // Cold sweeps in stream order (repeats included: every miss of a real
  // cache recomputes), as the sweep pool runs them.
  const std::size_t calls = in.smoke ? 40 : 1000;
  std::vector<double> ms;
  double predict_ns = 0.0;
  std::size_t rows = 0;
  for (std::size_t i = 0; ms.size() < calls; i = (i + 1) % reqs.size()) {
    const serve::Request& r = reqs[i];
    if (r.op == serve::Op::kReport) continue;
    const ml::Regressor& model = in.reference->model(r.machine);
    const sim::CcsdSimulator& sim = in.reference->simulator(r.machine);
    ms.push_back(time_ms([&] {
      const guide::Advisor advisor(model, sim);
      keep(advisor.recommend(r.o, r.v, guide::Objective::kShortestTime)
               .sweep.size());
    }));
    if (ms.size() <= 200) {
      const linalg::Matrix x = candidate_rows(sim, r.o, r.v);
      predict_ns += 1e6 * time_ms([&] { keep(model.predict(x).size()); });
      rows += x.rows();
    }
  }
  std::vector<double> sorted = ms;
  out->push_back({"advisor.sweep_ms.p50", quantile(sorted, 0.50), "ms", calls});
  out->push_back({"advisor.sweep_ms.p99", quantile(sorted, 0.99), "ms", calls});
  out->push_back({"model.predict_ns_per_row",
                  predict_ns / static_cast<double>(rows), "ns", rows});

  // The configurations users run, on their own machine's simulator.
  std::vector<std::pair<const sim::CcsdSimulator*, sim::RunConfig>> jobs;
  for (std::size_t i = 0; jobs.size() < (in.smoke ? 50u : 400u); ++i) {
    const Key& key = in.traffic->key_of(in.classes[i % in.classes.size()]);
    jobs.emplace_back(&in.reference->simulator(key.machine),
                      key.jobs[i % kJobs]);
  }
  const double job_ns = ns_per_op(
      [&] {
        for (const auto& [sim, cfg] : jobs) {
          keep(sim::estimate_job(*sim, cfg).iterations);
        }
      },
      jobs.size(), in.smoke ? 0.002 : 0.02);
  out->push_back({"sim.job_us", job_ns / 1e3, "us", jobs.size()});
}

void replay_online(const ReplayInput& in, Report* out) {
  // A fresh learner fed churn_open-style reports on this workload's keys:
  // the GP surrogate grows on the way, as it does in a fresh daemon.
  serve::ModelRegistry registry(in.artifact_dir,
                                daemon_registry_options(in.smoke));
  serve::online::OnlineTrainer trainer(registry, nullptr,
                                       daemon_serve_options(true).online);
  Rng rng(0x0a11e);
  std::vector<double> us;
  for (std::size_t i = 0; i < (in.smoke ? 50u : 600u); ++i) {
    const std::uint32_t key = in.classes[i % in.classes.size()] / kSlots;
    const auto size = static_cast<std::uint32_t>(i % kReportSizes);
    const serve::Request r =
        in.traffic->request(key * kSlots + kSlotReport + size, i, rng);
    const sim::RunConfig cfg{
        .o = r.o, .v = r.v, .nodes = r.nodes, .tile = r.tile};
    us.push_back(1e3 * time_ms([&] {
      keep(trainer.ingest(r.machine, "gb", cfg, r.wall_times).accepted);
    }));
  }
  const std::size_t n = us.size();
  out->push_back({"online.ingest_us.p50", quantile(us, 0.50), "us", n});
  out->push_back({"online.ingest_us.p99", quantile(us, 0.99), "us", n});
}

void replay_offline(const ReplayInput& in, Report* out) {
  // The daemon's train-and-cache: campaign, 750-stage GB fit, artifact I/O.
  const serve::RegistryOptions reg = daemon_registry_options(in.smoke);
  const sim::CcsdSimulator aurora = serve::simulator_for("aurora");
  data::GeneratorOptions gen;
  gen.seed = reg.fallback_seed;
  gen.target_total = reg.fallback_rows;
  data::Dataset campaign;
  const double campaign_ms = time_ms([&] {
    campaign = data::generate_dataset(aurora, data::aurora_problems(), gen);
  });
  ml::GradientBoostingRegressor gb(reg.gb_estimators);
  const linalg::Matrix x = campaign.features();
  const double fit_ms = time_ms([&] { gb.fit(x, campaign.targets()); });
  const std::string path =
      (fs::path(in.scratch_dir) / "replay-gb.model").string();
  const double save_ms = median_ms(3, [&] { ml::save_gb(gb, path); });
  const double load_ms =
      median_ms(3, [&] { keep(ml::load_gb(path).is_fitted()); });
  out->push_back({"data.campaign_s", campaign_ms / 1e3, "s", campaign.size()});
  out->push_back({"core.gb_fit_s", fit_ms / 1e3, "s", x.rows()});
  out->push_back({"core.artifact_save_ms", save_ms, "ms", 3});
  out->push_back({"core.artifact_load_ms", load_ms, "ms", 3});

  // Algorithm 1's GP at a mid-loop labeled count (50 initial + 10 rounds
  // of 50 on the paper-size aurora campaign): full fit with the
  // hyper-parameter grid, one incremental 50-row update, one US query.
  gen.target_total = in.smoke ? 300 : data::paper_total_rows("aurora");
  const data::Dataset universe =
      data::generate_dataset(aurora, data::aurora_problems(), gen);
  Rng rng(11);
  const al::Pool pool(universe, in.smoke ? 100 : 550, rng);
  const linalg::Matrix lx = pool.labeled_features();
  const std::vector<double> ly = pool.labeled_targets();
  const std::vector<std::size_t> batch(pool.unlabeled().begin(),
                                       pool.unlabeled().begin() + 50);
  const data::Dataset added = universe.select(batch);
  const linalg::Matrix ax = added.features();
  al::UncertaintySampling us;
  std::vector<double> fit, update, query;
  for (int r = 0; r < 3; ++r) {
    ml::GaussianProcessRegression gp(0.5, 1e-4, /*optimize=*/true,
                                     /*log_target=*/true);
    fit.push_back(time_ms([&] { gp.fit(lx, ly); }));
    update.push_back(time_ms([&] { gp.update(ax, added.targets()); }));
    query.push_back(time_ms([&] { keep(us.select(pool, gp, 50, rng).size()); }));
  }
  out->push_back({"al.gp_fit_ms", median(fit), "ms", 3});
  out->push_back({"al.gp_update_ms", median(update), "ms", 3});
  out->push_back({"al.query_ms", median(query), "ms", 3});
}

}  // namespace

void replay_layers(const ReplayInput& in, Report* out) {
  const double min_s = in.smoke ? 0.002 : 0.02;
  Rng rng(0x5eed);
  std::vector<serve::Request> reqs;
  for (std::size_t i = 0; i < in.classes.size(); ++i) {
    reqs.push_back(in.traffic->request(in.classes[i], i, rng));
  }
  replay_protocol(in, reqs, min_s, out);
  replay_registry(in, reqs, min_s, out);
  replay_cache_and_derive(in, reqs, min_s, out);
  replay_sweeps(in, reqs, out);
  replay_online(in, out);
  replay_offline(in, out);
}

}  // namespace ccpred::ledger
