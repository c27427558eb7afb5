/// ccpred_cli — command-line front end for the library.
///
/// Subcommands:
///   generate --machine aurora|frontier [--rows N] [--seed S] --out FILE
///       Run a simulated trace-collection campaign and write it as CSV
///       (columns O,V,nodes,tilesize,time_s).
///   evaluate --data FILE [--test-frac F] [--seed S]
///       Train the paper's GB model on a CSV campaign and report held-out
///       R^2 / MAE / MAPE plus permutation feature importances.
///   advise --data FILE --machine M --o O --v V [--budget NH]
///       Train on the campaign and answer STQ, BQ and (optionally) the
///       budget-constrained question for a problem size.
///   job --machine M --o O --v V --nodes N --tile T
///       Whole-job estimate (setup + converged CCSD iterations) straight
///       from the simulator.
///
/// A subcommand accepts only the flags listed for it above: any other flag
/// fails with `unknown flag --X` before any work starts.

#include <cstdio>
#include <set>
#include <string>

#include "ccpred/common/csv.hpp"
#include "ccpred/common/error.hpp"
#include "ccpred/core/importance.hpp"
#include "ccpred/core/metrics.hpp"
#include "ccpred/core/model_zoo.hpp"
#include "ccpred/data/generator.hpp"
#include "ccpred/data/split.hpp"
#include "ccpred/guidance/advisor.hpp"
#include "ccpred/sim/solver.hpp"
#include "flags.hpp"

namespace {

using namespace ccpred;
using namespace ccpred::tools;

sim::CcsdSimulator make_simulator(const std::string& machine) {
  if (machine == "aurora") return sim::CcsdSimulator(sim::MachineModel::aurora());
  if (machine == "frontier") {
    return sim::CcsdSimulator(sim::MachineModel::frontier());
  }
  throw Error("unknown machine: " + machine + " (use aurora|frontier)");
}

int cmd_generate(const Flags& flags) {
  const auto simulator = make_simulator(need(flags, "machine"));
  data::GeneratorOptions opt;
  opt.seed = int_flag<std::uint64_t>(flags, "seed", "2025");
  opt.target_total = int_flag<std::size_t>(flags, "rows", "0");
  if (opt.target_total == 0) {
    opt.target_total = data::paper_total_rows(simulator.machine().name);
  }
  const auto dataset = data::generate_dataset(
      simulator, data::problems_for(simulator.machine().name), opt);
  const std::string out = need(flags, "out");
  write_csv(dataset.to_csv(), out);
  std::printf("wrote %zu rows (%zu problem sizes) to %s\n", dataset.size(),
              dataset.problems().size(), out.c_str());
  return 0;
}

/// Loads a campaign CSV, splits it, trains the paper's GB model.
struct TrainedModel {
  data::TrainTest split;
  std::unique_ptr<ml::Regressor> model;
};

TrainedModel train_from_csv(const std::string& path, double test_frac,
                            std::uint64_t seed) {
  const auto dataset = data::Dataset::from_csv(read_csv(path));
  Rng rng(seed);
  auto split = data::stratified_split_fraction(dataset, test_frac, rng);
  data::ensure_config_coverage(dataset, split);
  TrainedModel out{.split = data::apply_split(dataset, split),
                   .model = ml::make_paper_gb()};
  out.model->fit(out.split.train.features(), out.split.train.targets());
  return out;
}

int cmd_evaluate(const Flags& flags) {
  const double frac = double_flag(flags, "test-frac", "0.25");
  const auto seed = int_flag<std::uint64_t>(flags, "seed", "1");
  const auto trained = train_from_csv(need(flags, "data"), frac, seed);
  const auto scores =
      ml::score_all(trained.split.test.targets(),
                    trained.model->predict(trained.split.test.features()));
  std::printf("train %zu rows, test %zu rows\n", trained.split.train.size(),
              trained.split.test.size());
  std::printf("GB(750x10): R^2=%.4f MAE=%.2fs MAPE=%.4f RMSE=%.2fs\n",
              scores.r2, scores.mae, scores.mape, scores.rmse);
  const auto importance = ml::permutation_importance(
      *trained.model, trained.split.test.features(),
      trained.split.test.targets());
  std::printf("permutation importance (R^2 drop):");
  for (std::size_t c = 0; c < importance.size(); ++c) {
    std::printf(" %s=%.3f", data::Dataset::feature_names()[c].c_str(),
                importance[c]);
  }
  std::printf("\n");
  return 0;
}

int cmd_advise(const Flags& flags) {
  const auto simulator = make_simulator(need(flags, "machine"));
  const auto trained = train_from_csv(need(flags, "data"), 0.25, 1);
  const int o = int_flag<int>(flags, "o");
  const int v = int_flag<int>(flags, "v");
  const guide::Advisor advisor(*trained.model, simulator);

  const auto stq = advisor.shortest_time(o, v);
  const auto bq = advisor.cheapest_run(o, v);
  std::printf("O=%d V=%d on %s\n", o, v, simulator.machine().name.c_str());
  std::printf("  fastest : %4d nodes, tile %3d  (pred %.1fs, %.2f NH)\n",
              stq.config.nodes, stq.config.tile, stq.predicted_time_s,
              stq.predicted_node_hours);
  std::printf("  cheapest: %4d nodes, tile %3d  (pred %.1fs, %.2f NH)\n",
              bq.config.nodes, bq.config.tile, bq.predicted_time_s,
              bq.predicted_node_hours);
  if (flags.count("budget")) {
    const double budget = double_flag(flags, "budget");
    const auto rec = advisor.fastest_within_budget(o, v, budget);
    std::printf("  within %.2f NH: %4d nodes, tile %3d  (pred %.1fs, "
                "%.2f NH)\n",
                budget, rec.config.nodes, rec.config.tile,
                rec.predicted_time_s, rec.predicted_node_hours);
  }
  const auto front = guide::pareto_front(stq.sweep);
  std::printf("  pareto frontier: %zu of %zu swept configurations\n",
              front.size(), stq.sweep.size());
  return 0;
}

int cmd_job(const Flags& flags) {
  const auto simulator = make_simulator(need(flags, "machine"));
  const sim::RunConfig cfg{.o = int_flag<int>(flags, "o"),
                           .v = int_flag<int>(flags, "v"),
                           .nodes = int_flag<int>(flags, "nodes"),
                           .tile = int_flag<int>(flags, "tile")};
  const auto job = sim::estimate_job(simulator, cfg);
  std::printf(
      "CCSD job O=%d V=%d on %d nodes (tile %d):\n"
      "  setup %.1fs + %d iterations x %.1fs = %.1fs total (%.2f "
      "node-hours)\n"
      "  per-node memory: %.1f GB\n",
      cfg.o, cfg.v, cfg.nodes, cfg.tile, job.setup_s, job.iterations,
      job.iteration_s, job.total_s, job.node_hours,
      simulator.memory_per_node_gb(cfg));
  return 0;
}

/// A subcommand and the flags it reads; any other flag is rejected before
/// it runs.
struct Subcommand {
  const char* name;
  std::set<std::string> flags;
  int (*run)(const Flags&);
};

const Subcommand kSubcommands[] = {
    {"generate", {"machine", "rows", "seed", "out"}, cmd_generate},
    {"evaluate", {"data", "test-frac", "seed"}, cmd_evaluate},
    {"advise", {"data", "machine", "o", "v", "budget"}, cmd_advise},
    {"job", {"machine", "o", "v", "nodes", "tile"}, cmd_job},
};

int usage() {
  std::fprintf(stderr,
               "usage: ccpred_cli <generate|evaluate|advise|job> "
               "[--flag value ...]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    for (const Subcommand& sub : kSubcommands) {
      if (cmd == sub.name) {
        return sub.run(parse_flags(argc, argv, 2, sub.flags));
      }
    }
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
