#include "workload.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <set>
#include <thread>

#include "ccpred/common/error.hpp"
#include "ccpred/core/gradient_boosting.hpp"
#include "ccpred/core/serialize.hpp"
#include "ccpred/data/problems.hpp"
#include "ccpred/serve/model_registry.hpp"

namespace ccpred::ledger {
namespace {

const char* const kMachines[] = {"aurora", "frontier"};

/// Budgets of the paper problems, as multiples of each key's cheapest
/// answer; and of the cold problems, in node-hours, far above any cold
/// problem's cheapest answer (so every budget question is answerable).
constexpr std::array<double, kBudgets> kBudgetFactors = {1.05, 1.25, 1.6, 2.5};
constexpr std::array<double, kBudgets> kColdBudgets = {1e4, 3e4, 1e5, 1e6};

/// cold_open's problem population (README.md: why these ranges). With
/// Zipf exponent 0.9 the daemon's 256-sweep cache hits about 30% of
/// requests: the median answer is a miss, clear of the hit/miss boundary
/// (at s = 1 the hit ratio sits near 0.45 and the median flips between a
/// hit and a miss from seed to seed).
constexpr std::size_t kColdPairs = 8000;
constexpr std::uint64_t kPopulationSeed = 2025;
constexpr double kColdZipfS = 0.9;
constexpr int kColdOMin = 40, kColdOMax = 350;
constexpr int kColdVMin = 250, kColdVMax = 1600;

/// Largest node menu entry: a problem needing more nodes has no sweep.
int max_nodes() { return sim::MachineModel::aurora().node_menu().back(); }

/// Placeholder jobs of a cold key (only the per-layer replays submit or
/// report them): the kJobs smallest feasible node counts at tile 100.
std::array<sim::RunConfig, kJobs> cold_jobs(const sim::CcsdSimulator& sim,
                                            int o, int v) {
  std::array<sim::RunConfig, kJobs> out{};
  std::size_t j = 0;
  for (const int n : sim.machine().node_menu()) {
    const sim::RunConfig cfg{.o = o, .v = v, .nodes = n, .tile = 100};
    if (j < kJobs && sim.feasible(cfg)) out[j++] = cfg;
  }
  CCPRED_CHECK_MSG(j == kJobs,
                   "too few feasible node counts for O=" << o << " V=" << v);
  return out;
}

}  // namespace

const std::vector<WorkloadSpec>& workloads() {
  // Rates, SLOs and ladder starts were calibrated on the seed commit; hi
  // sits below the latency knee, where this host's noise dominates
  // (README.md).
  static const std::vector<WorkloadSpec> specs = {
      {.name = "warm_open", .lo_rps = 4000, .hi_rps = 40000, .slo_ms = 5,
       .ladder_rps = 120000, .step_s = 1.5, .window_s = 0.25, .cold = false,
       .churn = false},
      {.name = "cold_open", .lo_rps = 150, .hi_rps = 600, .slo_ms = 100,
       .ladder_rps = 1500, .step_s = 2.0, .window_s = 1.0, .cold = true,
       .churn = false},
      {.name = "churn_open", .lo_rps = 4000, .hi_rps = 40000, .slo_ms = 250,
       .ladder_rps = 120000, .step_s = 1.5, .window_s = 1.5, .cold = false,
       .churn = true},
  };
  return specs;
}

const WorkloadSpec& workload(const std::string& name) {
  for (const WorkloadSpec& spec : workloads()) {
    if (spec.name == name) return spec;
  }
  CCPRED_CHECK_MSG(false, "unknown workload '" << name << "'");
  return workloads().front();  // unreachable
}

Traffic::Traffic(const WorkloadSpec& spec)
    : spec_(&spec),
      sims_{serve::simulator_for(kMachines[0]),
            serve::simulator_for(kMachines[1])} {
  // The population is part of the workload, not of a run: a run's seed
  // draws its request stream from it, so every seed costs the same.
  Rng rng(kPopulationSeed);
  if (!spec.cold) {
    for (int m = 0; m < 2; ++m) {
      for (const data::Problem& p : data::problems_for(kMachines[m])) {
        keys_.push_back({kMachines[m], p.o, p.v, {}});
      }
    }
  } else {
    // Distinct pairs with a sweep on both machines; rank = draw order.
    std::set<std::pair<int, int>> seen;
    while (seen.size() < kColdPairs) {
      const int o = static_cast<int>(rng.uniform_int(kColdOMin, kColdOMax));
      const int v = static_cast<int>(rng.uniform_int(kColdVMin, kColdVMax));
      const int needed =
          std::max(sims_[0].min_nodes(o, v), sims_[1].min_nodes(o, v));
      if (needed > max_nodes() || !seen.insert({o, v}).second) {
        continue;
      }
      for (int m = 0; m < 2; ++m) {
        keys_.push_back({kMachines[m], o, v, cold_jobs(sims_[m], o, v)});
      }
    }
    // Zipf popularity over the pairs.
    pair_cdf_.resize(kColdPairs);
    double total = 0.0;
    for (std::size_t r = 0; r < kColdPairs; ++r) {
      total += std::pow(static_cast<double>(r + 1), -kColdZipfS);
      pair_cdf_[r] = total;
    }
    for (double& c : pair_cdf_) c /= total;
    budgets_.assign(keys_.size(), kColdBudgets);
  }
}

void Traffic::set_answers(const Reference& reference,
                          const Reference* alternate) {
  budgets_.resize(keys_.size());
  for (std::uint32_t k = 0; k < keys_.size(); ++k) {
    const guide::Recommendation& sweep = reference.sweep(k);
    const guide::Recommendation cheapest =
        guide::Advisor::from_sweep(sweep.sweep, guide::Objective::kNodeHours);
    double min_node_hours = cheapest.predicted_node_hours;
    if (alternate != nullptr) {
      const guide::Recommendation other = guide::Advisor::from_sweep(
          alternate->sweep(k).sweep, guide::Objective::kNodeHours);
      min_node_hours = std::max(min_node_hours, other.predicted_node_hours);
    }
    for (std::uint32_t b = 0; b < kBudgets; ++b) {
      budgets_[k][b] = min_node_hours * kBudgetFactors[b];
    }
    const guide::Recommendation budgeted =
        guide::Advisor::fastest_within_budget(sweep, budgets_[k][2]);
    keys_[k].jobs = {sweep.config, cheapest.config, budgeted.config};
  }
}

double Traffic::budget(std::uint32_t cls) const {
  return budgets_.at(cls / kSlots)[cls % kSlots - kSlotBudget];
}

std::uint32_t Traffic::draw(Rng& rng) const {
  std::uint32_t key = 0;
  if (spec_->cold) {
    const auto pair = static_cast<std::uint32_t>(
        std::lower_bound(pair_cdf_.begin(), pair_cdf_.end(), rng.uniform()) -
        pair_cdf_.begin());
    key = std::min<std::uint32_t>(pair, kColdPairs - 1) * 2 +
          static_cast<std::uint32_t>(rng.next() & 1U);
  } else {
    key = static_cast<std::uint32_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(keys_.size()) - 1));
  }
  const auto pick = [&rng](std::uint32_t n) {
    return static_cast<std::uint32_t>(rng.uniform_int(0, n - 1));
  };
  if (spec_->churn && rng.uniform() < 0.02) {
    return key * kSlots + kSlotReport + pick(kReportSizes);
  }
  // Verb mix stq : bq : budget = 4 : 3 : 2. No `job`: one costs the
  // simulator 0.3-1.5 ms, 50-100 cache-hit answers, so even 10% of them
  // would make the warm workloads measure the simulator (README.md).
  const double u = rng.uniform() * 9.0;
  std::uint32_t slot = 0;
  if (u < 4.0) {
    slot = 0;
  } else if (u < 7.0) {
    slot = kSlotBq;
  } else {
    slot = kSlotBudget + pick(kBudgets);
  }
  return key * kSlots + slot;
}

serve::Op op_of(std::uint32_t cls) {
  const std::uint32_t slot = cls % kSlots;
  if (slot == 0) return serve::Op::kStq;
  if (slot == kSlotBq) return serve::Op::kBq;
  if (slot < kSlotReport) return serve::Op::kBudget;
  return serve::Op::kReport;
}

serve::Request Traffic::request(std::uint32_t cls, std::uint64_t id,
                                Rng& rng) const {
  const Key& key = key_of(cls);
  const std::uint32_t slot = cls % kSlots;
  serve::Request req;
  req.op = op_of(cls);
  req.id = std::to_string(id);
  req.machine = key.machine;
  req.o = key.o;
  req.v = key.v;
  if (req.op == serve::Op::kBudget) {
    req.max_node_hours = budget(cls);
  } else if (req.op == serve::Op::kReport) {
    const auto j = static_cast<std::size_t>(rng.uniform_int(0, kJobs - 1));
    req.nodes = key.jobs[j].nodes;
    req.tile = key.jobs[j].tile;
    // Reported wall times scatter around the simulator's runtime.
    const std::uint64_t memo = std::uint64_t{cls / kSlots} * kJobs + j;
    auto it = report_time_s_.find(memo);
    if (it == report_time_s_.end()) {
      const sim::CcsdSimulator& sim = sims_[key.machine == kMachines[0] ? 0 : 1];
      it = report_time_s_.emplace(memo, sim.iteration_time(key.jobs[j])).first;
    }
    const double t = it->second;
    for (std::uint32_t i = 0; i <= slot - kSlotReport; ++i) {
      req.wall_times.push_back(t * rng.lognormal_median(1.0, 0.05));
    }
  }
  return req;
}

std::vector<std::uint32_t> Traffic::hottest_keys(std::size_t n) const {
  // Cold keys are ordered by popularity rank already; warm keys are equal.
  std::vector<std::uint32_t> out;
  for (std::uint32_t k = 0; k < keys_.size() && out.size() < n; ++k) {
    out.push_back(k);
  }
  return out;
}

Reference::Reference(const std::string& artifact_dir) {
  for (const char* machine : kMachines) {
    const std::string path = (std::filesystem::path(artifact_dir) /
                              (std::string(machine) + "-gb.model"))
                                 .string();
    CCPRED_CHECK_MSG(std::filesystem::exists(path),
                     "missing artifact " << path);
    models_[machine] =
        std::make_shared<const ml::GradientBoostingRegressor>(ml::load_gb(path));
    simulators_.emplace(machine, serve::simulator_for(machine));
  }
}

void Reference::prepare(const Traffic& traffic,
                        const std::vector<std::uint32_t>& keys) {
  std::vector<std::uint32_t> todo;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const std::uint32_t k : keys) {
      if (sweeps_.count(k) == 0) todo.push_back(k);
    }
  }
  std::sort(todo.begin(), todo.end());
  todo.erase(std::unique(todo.begin(), todo.end()), todo.end());
  const std::size_t threads = std::min<std::size_t>(4, todo.size());
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (std::size_t i = t; i < todo.size(); i += threads) {
        const Key& key = traffic.keys()[todo[i]];
        const guide::Advisor advisor(model(key.machine), simulator(key.machine));
        guide::Recommendation rec =
            advisor.recommend(key.o, key.v, guide::Objective::kShortestTime);
        const std::lock_guard<std::mutex> lock(mutex_);
        sweeps_.emplace(todo[i], std::move(rec));
      }
    });
  }
  for (std::thread& t : pool) t.join();
}

const guide::Recommendation& Reference::sweep(std::uint32_t key) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = sweeps_.find(key);
  CCPRED_CHECK_MSG(it != sweeps_.end(),
                   "sweep of key " << key << " not prepared");
  return it->second;
}

const ml::Regressor& Reference::model(const std::string& machine) const {
  return *models_.at(machine);
}

const sim::CcsdSimulator& Reference::simulator(const std::string& machine) const {
  return simulators_.at(machine);
}

serve::Response Reference::response(const Traffic& traffic,
                                    std::uint32_t cls) const {
  const std::uint32_t slot = cls % kSlots;
  CCPRED_CHECK_MSG(slot < kSlotReport, "reports have no reference answer");
  serve::Response r;
  r.ok = true;
  const guide::Recommendation& base = sweep(cls / kSlots);
  guide::Recommendation rec;
  const guide::Recommendation* answer = &base;
  if (slot == kSlotBq) {
    r.op = serve::op_name(serve::Op::kBq);
    rec = guide::Advisor::from_sweep(base.sweep, guide::Objective::kNodeHours);
    answer = &rec;
  } else if (slot >= kSlotBudget) {
    r.op = serve::op_name(serve::Op::kBudget);
    rec = guide::Advisor::fastest_within_budget(base, traffic.budget(cls));
    answer = &rec;
  } else {
    r.op = serve::op_name(serve::Op::kStq);
  }
  r.has_recommendation = true;
  r.nodes = answer->config.nodes;
  r.tile = answer->config.tile;
  r.time_s = answer->predicted_time_s;
  r.node_hours = answer->predicted_node_hours;
  r.sweep_size = base.sweep.size();
  return r;
}

std::string canonical(std::string_view line, std::string* id) {
  std::string out;
  out.reserve(line.size());
  std::size_t i = 0;
  while (i < line.size()) {
    if (line[i] == ',' && i + 1 < line.size() && line[i + 1] == '"') {
      const std::size_t key_end = line.find('"', i + 2);
      if (key_end != std::string_view::npos && key_end + 1 < line.size() &&
          line[key_end + 1] == ':') {
        const std::string_view key = line.substr(i + 2, key_end - i - 2);
        if (key == "id" || key == "model_version" || key == "cache_hit") {
          const std::size_t vs = key_end + 2;
          std::size_t ve = vs;
          if (vs < line.size() && line[vs] == '"') {
            ve = line.find('"', vs + 1);
            ve = ve == std::string_view::npos ? line.size() : ve + 1;
            if (key == "id" && id != nullptr) {
              id->assign(line.substr(vs + 1, ve - vs - 2));
            }
          } else {
            ve = line.find_first_of(",}", vs);
            if (ve == std::string_view::npos) ve = line.size();
          }
          i = ve;
          continue;
        }
      }
    }
    out += line[i++];
  }
  return out;
}

}  // namespace ccpred::ledger
