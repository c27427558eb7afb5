/// Online-learning overhead: report ingestion must not tax the hot path.
///
/// The closed-loop subsystem rides on the serving layer's request threads:
/// every `report` scores the reported configuration with the serving
/// model, feeds the drift detector and buffers the measurement. The
/// number that matters is what that costs everyone else — so this
/// bench measures warm STQ/BQ/budget throughput twice, once on a plain
/// server and once with online learning enabled and one report
/// interleaved per 100 questions (report handling time lands in the
/// elapsed clock; only questions count toward QPS), and gates on the
/// ratio: with reports flowing, warm QPS must stay >= 90% of the
/// baseline (best of 3 passes each, to shave scheduler noise).
/// Interleaving on the measuring thread keeps the number deterministic
/// and independent of core count — a free-running reporter thread on a
/// small box measures CPU time-slicing, not ingestion cost. Report
/// ingestion throughput is measured alongside. Emits BENCH_online.json.

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "ccpred/common/stopwatch.hpp"
#include "ccpred/common/table.hpp"
#include "ccpred/data/problems.hpp"
#include "ccpred/serve/model_registry.hpp"
#include "ccpred/serve/server.hpp"

namespace {

using namespace ccpred;

serve::Request question(const std::vector<data::Problem>& problems,
                        std::size_t step) {
  serve::Request req;
  const auto& p = problems[step % problems.size()];
  req.o = p.o;
  req.v = p.v;
  switch (step % 3) {
    case 0: req.op = serve::Op::kStq; break;
    case 1: req.op = serve::Op::kBq; break;
    default:
      req.op = serve::Op::kBudget;
      req.max_node_hours = 100.0;
  }
  return req;
}

serve::Request report(std::size_t j) {
  serve::Request r;
  r.op = serve::Op::kReport;
  r.o = 44;
  r.v = 260;
  r.nodes = (j % 2 == 0) ? 5 : 15;
  r.tile = 40 + 10 * (j % 8);
  // Every wall time is byte-distinct: nothing dedups, every report runs
  // the full ingest path (predict + drift + buffer + GP absorb).
  r.wall_times = {12.0 + 1e-6 * static_cast<double>(j)};
  return r;
}

/// One `report` interleaved per this many questions when enabled.
constexpr std::size_t kReportEvery = 100;

/// Warm question QPS over `rounds` passes of the question mix; best of
/// `passes`. With `with_reports`, a report is handled inline every
/// kReportEvery questions — its cost stays in the elapsed time while only
/// questions are counted, so the ratio to the baseline is exactly the
/// ingestion tax on the hot path.
double measure_warm_qps(serve::Server& server,
                        const std::vector<data::Problem>& problems,
                        int rounds, int passes, bool with_reports,
                        std::size_t* reports_sent = nullptr) {
  double best = 0.0;
  std::size_t j = 0;
  for (int p = 0; p < passes; ++p) {
    Stopwatch watch;
    std::size_t n = 0;
    for (int round = 0; round < rounds; ++round) {
      for (std::size_t i = 0; i < problems.size(); ++i, ++n) {
        if (with_reports && n % kReportEvery == 0) {
          const auto rr = server.handle(report(j++));
          if (!rr.ok) {
            std::printf("report failed: %s\n", rr.error.c_str());
            std::exit(1);
          }
        }
        const auto r = server.handle(question(problems, n));
        if (!r.ok) {
          std::printf("warm request failed: %s\n", r.error.c_str());
          std::exit(1);
        }
      }
    }
    best = std::max(best, static_cast<double>(n) / watch.elapsed_s());
  }
  if (reports_sent != nullptr) *reports_sent = j;
  return best;
}

}  // namespace

int main() {
  namespace fs = std::filesystem;

  const bool fast = bench::fast_mode();
  const std::string machine = "aurora";
  const auto& problems = data::problems_for(machine);
  const int warm_rounds = fast ? 20 : 150;
  const int passes = 3;

  const fs::path dir = fs::temp_directory_path() / "ccpred_bench_online";
  fs::remove_all(dir);

  serve::RegistryOptions ropt;
  ropt.fallback_rows = fast ? 300 : 600;
  ropt.gb_estimators = fast ? 40 : 120;
  serve::ModelRegistry registry(dir.string(), ropt);
  registry.train_artifact(machine, "gb");

  // Phase A: plain server, no online subsystem at all.
  double qps_baseline = 0.0;
  {
    serve::ServeOptions sopt;
    sopt.cache_capacity = 64;
    serve::Server server(registry, sopt);
    server.handle(question(problems, 0));  // warm the sweep cache
    for (std::size_t i = 0; i < problems.size(); ++i) {
      serve::Request req;
      req.op = serve::Op::kStq;
      req.o = problems[i].o;
      req.v = problems[i].v;
      server.handle(req);
    }
    qps_baseline =
        measure_warm_qps(server, problems, warm_rounds, passes, false);
  }

  // Phase B: online enabled, promotions out of reach (the serving model
  // must not change mid-measurement), one report interleaved per
  // kReportEvery questions.
  double qps_with_reports = 0.0;
  double reports_per_s = 0.0;
  std::size_t reports_sent = 0;
  {
    serve::ServeOptions sopt;
    sopt.cache_capacity = 64;
    sopt.online.enabled = true;
    sopt.online.min_refit_rows = 1u << 30;
    serve::Server server(registry, sopt);
    for (std::size_t i = 0; i < problems.size(); ++i) {
      serve::Request req;
      req.op = serve::Op::kStq;
      req.o = problems[i].o;
      req.v = problems[i].v;
      server.handle(req);
    }

    qps_with_reports = measure_warm_qps(server, problems, warm_rounds, passes,
                                        true, &reports_sent);

    // Standalone ingestion throughput, no competing queries.
    const int ingest_n = fast ? 200 : 1000;
    Stopwatch watch;
    for (int j = 0; j < ingest_n; ++j) {
      const auto r = server.handle(report(1000000 + j));
      if (!r.ok) {
        std::printf("report failed: %s\n", r.error.c_str());
        return 1;
      }
    }
    reports_per_s = ingest_n / watch.elapsed_s();
  }

  const double ratio = qps_with_reports / qps_baseline;
  const bool pass = ratio >= 0.9;

  std::printf("== Online-learning hot-path overhead (%s, gb) ==\n\n",
              machine.c_str());
  TextTable table({"phase", "warm req/s"},
                  "Warm STQ/BQ/budget QPS, best of 3 passes");
  table.add_row({"baseline (online off)", TextTable::cell(qps_baseline, 1)});
  table.add_row({"with interleaved reports",
                 TextTable::cell(qps_with_reports, 1)});
  table.print();

  std::printf(
      "\nreports interleaved during measurement (1 per %zu questions): %zu\n"
      "standalone report ingestion: %.1f reports/s\n"
      "QPS ratio with/without: %.3f (gate >= 0.9): %s\n",
      kReportEvery, reports_sent, reports_per_s, ratio,
      pass ? "PASS" : "FAIL");

  std::FILE* json = std::fopen("BENCH_online.json", "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\"qps_baseline\": %.1f, \"qps_with_reports\": %.1f, "
                 "\"ratio\": %.4f, \"reports_per_s\": %.1f, "
                 "\"interleaved_reports\": %zu, \"fast\": %d, "
                 "\"provenance\": %s}\n",
                 qps_baseline, qps_with_reports, ratio, reports_per_s,
                 reports_sent, fast ? 1 : 0,
                 bench::provenance_json().c_str());
    std::fclose(json);
    std::printf("wrote BENCH_online.json\n");
  }

  fs::remove_all(dir);
  return pass ? 0 : 1;
}
