#include "bench_util.hpp"

#include <algorithm>
#include <cstdlib>

#include "ccpred/simd/simd.hpp"

#ifndef CCPRED_GIT_REV
#define CCPRED_GIT_REV "unknown"
#endif

namespace ccpred::bench {

std::string provenance_json() {
  const simd::CpuFeatures cpu = simd::detect_cpu();
  std::string out = "{\"git_rev\": \"";
  out += CCPRED_GIT_REV;
  out += "\", \"cpu_avx2\": ";
  out += cpu.avx2 ? "true" : "false";
  out += ", \"cpu_fma\": ";
  out += cpu.fma ? "true" : "false";
  out += ", \"simd_mode\": \"";
  out += simd::mode_name(simd::active_mode());
  out += "\"}";
  return out;
}

bool fast_mode() {
  const char* v = std::getenv("CCPRED_BENCH_FAST");
  return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}

sim::CcsdSimulator make_simulator(const std::string& machine) {
  return sim::CcsdSimulator(machine == "aurora"
                                ? sim::MachineModel::aurora()
                                : sim::MachineModel::frontier());
}

PaperData load_paper_data(const std::string& machine, std::uint64_t seed,
                          bool full_rows) {
  PaperData out{.simulator = make_simulator(machine), .full = {}, .split = {}};
  std::size_t total = data::paper_total_rows(machine);
  std::size_t test = data::paper_test_rows(machine);
  if (fast_mode() && !full_rows) {
    total /= 4;
    test /= 4;
  }
  data::GeneratorOptions opt;
  opt.seed = seed;
  opt.target_total = total;
  out.full = data::generate_dataset(
      out.simulator, data::problems_for(out.simulator.machine().name), opt);
  Rng rng(seed ^ 0x51ULL);
  auto split = data::stratified_split(out.full, test, rng);
  data::ensure_config_coverage(out.full, split);
  out.split = data::apply_split(out.full, split);
  return out;
}

std::vector<data::Problem> smallest_problems(std::vector<data::Problem> all,
                                             std::size_t k) {
  std::sort(all.begin(), all.end(),
            [](const data::Problem& a, const data::Problem& b) {
              return static_cast<double>(a.o) * a.v <
                     static_cast<double>(b.o) * b.v;
            });
  all.resize(std::min(k, all.size()));
  return all;
}

bool campaign_matches(const data::Dataset& campaign, const data::Dataset& rows,
                      const std::vector<double>& labels) {
  if (campaign.size() != rows.size() || labels.size() != rows.size()) {
    return false;
  }
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (!(campaign.config(i) == rows.config(i))) return false;
    if (campaign.target(i) != labels[i]) return false;
  }
  return true;
}

std::vector<double> reference_times(
    const sim::CcsdSimulator& simulator,
    const std::vector<guide::TrueOptimaSweep>& sweeps) {
  std::vector<double> times;
  for (const auto& sweep : sweeps) {
    for (const auto& pt : sweep.points) {
      times.push_back(simulator.iteration_time(pt.config));
    }
  }
  return times;
}

bool sweeps_match(const std::vector<guide::TrueOptimaSweep>& sweeps,
                  const std::vector<double>& times,
                  guide::Objective objective) {
  std::size_t k = 0;
  for (const auto& sweep : sweeps) {
    for (const auto& pt : sweep.points) {
      if (k == times.size() || pt.time_s != times[k]) return false;
      const double value =
          objective == guide::Objective::kShortestTime
              ? times[k]
              : sim::CcsdSimulator::node_hours(pt.config, times[k]);
      if (pt.value != value || sweep.best.value > value) return false;
      ++k;
    }
  }
  return k == times.size();
}

}  // namespace ccpred::bench
