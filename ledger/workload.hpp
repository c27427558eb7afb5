#pragma once

/// \file workload.hpp
/// What the ledger sends and what the answers must be: the workload specs,
/// the seeded keys and request mix of each, and the in-process reference
/// every checked answer is compared with.
///
/// A request's *class* names its exact question — key, verb, and the
/// budget or report size — so one reference answer serves every request
/// of the class.

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "ccpred/common/rng.hpp"
#include "ccpred/core/regressor.hpp"
#include "ccpred/guidance/advisor.hpp"
#include "ccpred/serve/protocol.hpp"
#include "ccpred/sim/ccsd_simulator.hpp"

namespace ccpred::ledger {

/// One traffic shape. README.md says why each exists.
struct WorkloadSpec {
  std::string name;
  double lo_rps = 0.0;  ///< fixed low rate
  double hi_rps = 0.0;  ///< fixed high rate (about half the seed's capacity)
  double slo_ms = 0.0;  ///< p99 limit for max_rps_at_slo
  double ladder_rps = 0.0;  ///< where the max_rps_at_slo ladder starts
  double step_s = 0.0;  ///< ladder step length at the run's full length
  /// Tail latency is the median over windows of this length of each
  /// window's p99 (churn: one republish per window).
  double window_s = 0.0;
  bool cold = false;    ///< Zipf over sampled problems, not the paper's 42
  bool churn = false;   ///< report writes and periodic artifact republish
};

/// The spec called `name`; throws ccpred::Error for an unknown name.
const WorkloadSpec& workload(const std::string& name);
/// Every workload, in a fixed order.
const std::vector<WorkloadSpec>& workloads();

/// Number of budgets per key, job configurations per key and report sizes.
inline constexpr std::uint32_t kBudgets = 4;
inline constexpr std::uint32_t kJobs = 3;
inline constexpr std::uint32_t kReportSizes = 3;
/// Class = key * kSlots + slot; slots are stq, bq, the budgets, then the
/// report sizes (1..kReportSizes wall times).
inline constexpr std::uint32_t kSlotBq = 1;
inline constexpr std::uint32_t kSlotBudget = 2;
inline constexpr std::uint32_t kSlotReport = kSlotBudget + kBudgets;
inline constexpr std::uint32_t kSlots = kSlotReport + kReportSizes;

/// The verb of requests of class `cls`.
serve::Op op_of(std::uint32_t cls);

/// One problem on one machine.
struct Key {
  std::string machine;
  int o = 0;
  int v = 0;
  /// Configurations users run and report back (and the replays submit
  /// as `job` requests).
  std::array<sim::RunConfig, kJobs> jobs{};
};

class Reference;

/// The keys, budgets and request mix of one workload.
class Traffic {
 public:
  /// The workload's keys: the paper problems, or cold_open's fixed
  /// sample of problems. The paper problems get their budgets and jobs
  /// from set_answers().
  explicit Traffic(const WorkloadSpec& spec);

  const WorkloadSpec& spec() const { return *spec_; }
  const std::vector<Key>& keys() const { return keys_; }
  const Key& key_of(std::uint32_t cls) const { return keys_[cls / kSlots]; }

  /// Budgets and jobs of the paper problems, from their reference sweeps
  /// (every key prepared; `alternate` too when given). A key's budgets
  /// are its cheapest answer's node-hours — the larger under either
  /// model — times a fixed factor list, so each is feasible. Its jobs are
  /// what the advisor recommends: the STQ, BQ and a budget answer. They
  /// depend on the model alone, never on the seed, so every seed's job
  /// requests cost the simulator the same.
  void set_answers(const Reference& reference, const Reference* alternate);
  double budget(std::uint32_t cls) const;

  /// Draws the next request class from the workload's mix.
  std::uint32_t draw(Rng& rng) const;
  /// The request of class `cls` with id `id`; report wall times are drawn
  /// from `rng`. Not thread-safe (memoizes simulator runtimes).
  serve::Request request(std::uint32_t cls, std::uint64_t id, Rng& rng) const;

  /// The most popular `n` keys, most popular first (prefill order).
  std::vector<std::uint32_t> hottest_keys(std::size_t n) const;

 private:
  const WorkloadSpec* spec_;
  std::vector<Key> keys_;
  std::vector<std::array<double, kBudgets>> budgets_;
  std::array<sim::CcsdSimulator, 2> sims_;  ///< aurora, frontier
  std::vector<double> pair_cdf_;  ///< cold: Zipf CDF over problem pairs
  /// Simulated runtime per (key, job), computed on first report.
  mutable std::map<std::uint64_t, double> report_time_s_;
};

/// Reference answers from GB artifacts, computed in-process through the
/// same public functions the server answers with: Advisor::recommend, then
/// from_sweep or fastest_within_budget.
class Reference {
 public:
  /// Loads `<dir>/<machine>-gb.model` for both machines.
  explicit Reference(const std::string& artifact_dir);

  /// Computes the sweeps of `keys` not computed yet, on up to 4 threads.
  void prepare(const Traffic& traffic, const std::vector<std::uint32_t>& keys);
  /// The sweep of key `key` (prepare() it first).
  const guide::Recommendation& sweep(std::uint32_t key) const;

  /// The response to class `cls` (its key prepared); not for reports.
  serve::Response response(const Traffic& traffic, std::uint32_t cls) const;

  const ml::Regressor& model(const std::string& machine) const;
  const sim::CcsdSimulator& simulator(const std::string& machine) const;

 private:
  std::map<std::string, std::shared_ptr<const ml::Regressor>> models_;
  std::map<std::string, sim::CcsdSimulator> simulators_;
  mutable std::mutex mutex_;  ///< guards sweeps_ during prepare()
  std::map<std::uint32_t, guide::Recommendation> sweeps_;
};

/// `line` without the fields that describe how an answer was produced
/// rather than what it is: "id" (stored in `*id` when given),
/// "model_version" and "cache_hit". Two answers to the same question are
/// correct-and-equal iff their canonical forms are byte-equal.
std::string canonical(std::string_view line, std::string* id = nullptr);

}  // namespace ccpred::ledger
