#include "ccpred/sim/sim_engine.hpp"

#include <algorithm>
#include <numeric>
#include <tuple>
#include <utility>

#include "ccpred/common/error.hpp"
#include "ccpred/common/strings.hpp"
#include "ccpred/exec/arena.hpp"
#include "ccpred/exec/parallel_for.hpp"
#include "ccpred/sim/noise.hpp"

namespace ccpred::sim {
namespace {

using exec::kGoldenGamma;
using exec::splitmix64;

/// Cache seed of the rep-th measurement of a stream. Never 0 (0 is the
/// noise-free key).
std::uint64_t rep_seed(std::uint64_t stream, int rep) {
  const std::uint64_t h = splitmix64(
      stream + kGoldenGamma * (static_cast<std::uint64_t>(rep) + 1));
  return h == 0 ? 1 : h;
}

/// Per-thread scratch for simulate_batch's dedupe/grouping pass, reused
/// across calls so batching itself stops hitting the heap. Thread-local
/// because one engine may serve concurrent batch calls (the serving layer
/// does exactly that).
exec::Arena& batch_arena() {
  thread_local exec::Arena arena;
  return arena;
}

std::tuple<int, int, int, int> sort_key(const RunConfig& c) {
  return {c.o, c.v, c.tile, c.nodes};
}

bool same_group(const RunConfig& a, const RunConfig& b) {
  return a.o == b.o && a.v == b.v && a.tile == b.tile;
}

}  // namespace

std::uint64_t measurement_stream_seed(std::uint64_t campaign_seed,
                                      const RunConfig& cfg) {
  std::uint64_t h = campaign_seed ^ 0x6a09e667f3bcc909ULL;
  h = splitmix64(h + kGoldenGamma * static_cast<std::uint64_t>(cfg.o));
  h = splitmix64(h + kGoldenGamma * static_cast<std::uint64_t>(cfg.v));
  h = splitmix64(h + kGoldenGamma * static_cast<std::uint64_t>(cfg.nodes));
  h = splitmix64(h + kGoldenGamma * static_cast<std::uint64_t>(cfg.tile));
  return h;
}

std::uint64_t SimCache::machine_tag(const std::string& name) {
  return fnv1a64(name);
}

std::size_t SimCache::KeyHash::operator()(const Key& k) const {
  std::uint64_t h = k.machine;
  h = splitmix64(h + kGoldenGamma * static_cast<std::uint64_t>(k.o));
  h = splitmix64(h + kGoldenGamma * static_cast<std::uint64_t>(k.v));
  h = splitmix64(h + kGoldenGamma * static_cast<std::uint64_t>(k.nodes));
  h = splitmix64(h + kGoldenGamma * static_cast<std::uint64_t>(k.tile));
  h = splitmix64(h + k.seed);
  return static_cast<std::size_t>(h);
}

SimEngine::SimEngine(const CcsdSimulator& simulator)
    : simulator_(&simulator),
      machine_tag_(SimCache::machine_tag(simulator.machine().name)) {}

SimCache::Key SimEngine::key_for(const RunConfig& cfg,
                                 std::uint64_t seed) const {
  return SimCache::Key{.machine = machine_tag_,
                       .o = cfg.o,
                       .v = cfg.v,
                       .nodes = cfg.nodes,
                       .tile = cfg.tile,
                       .seed = seed};
}

SimEngineStats SimEngine::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

double SimEngine::iteration_time(const RunConfig& cfg) {
  const auto simulate = [this, &cfg] {
    // breakdown(cfg) routes through build_task_graph + breakdown(graph,
    // nodes), so this is bit-identical to the batched path.
    const double t = simulator_->iteration_time(cfg);
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.graph_builds;
    ++stats_.evaluations;
    return t;
  };
  // Single-flight: concurrent callers of the same uncached config coalesce
  // onto one simulation instead of duplicating the graph build.
  return cache_.get_or_compute(key_for(cfg), simulate);
}

std::vector<double> SimEngine::simulate_batch(
    const std::vector<RunConfig>& configs) {
  std::vector<double> out(configs.size(), 0.0);
  if (configs.empty()) return out;

  // All grouping scratch bump-allocates from a reused per-thread arena —
  // the batching layer itself does not touch the heap.
  exec::Arena& arena = batch_arena();
  arena.reset();
  const std::size_t n = configs.size();

  // Sorting by (O, V, tile, nodes) makes duplicates adjacent and keeps
  // every unique of one (O, V, tile) group contiguous, so dedupe and
  // grouping are both single sorted walks.
  std::size_t* order = arena.alloc_array<std::size_t>(n);
  std::iota(order, order + n, std::size_t{0});
  std::sort(order, order + n, [&configs](std::size_t a, std::size_t b) {
    return sort_key(configs[a]) < sort_key(configs[b]);
  });

  // Dedupe: one evaluation per distinct configuration.
  std::size_t* uid = arena.alloc_array<std::size_t>(n);   // config -> unique
  std::size_t* urep = arena.alloc_array<std::size_t>(n);  // unique -> config
  std::size_t nu = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t i = order[k];
    if (k == 0 || !(configs[order[k - 1]] == configs[i])) urep[nu++] = i;
    uid[i] = nu - 1;
  }

  double* uval = arena.alloc_array<double>(nu);
  unsigned char* have = arena.alloc_array<unsigned char>(nu);
  for (std::size_t u = 0; u < nu; ++u) {
    have[u] = cache_.lookup(key_for(configs[urep[u]]), &uval[u]) ? 1 : 0;
  }

  // Group cache misses by (O, V, tile): one task-graph build per group,
  // evaluated at each of the group's node counts. Uniques are in sorted
  // order, so a group is a run of consecutive uncached uniques sharing
  // (O, V, tile).
  std::size_t* gmember = arena.alloc_array<std::size_t>(nu);
  std::size_t* gstart = arena.alloc_array<std::size_t>(nu + 1);
  std::size_t ngroups = 0;
  std::size_t evaluated = 0;
  for (std::size_t u = 0; u < nu; ++u) {
    if (have[u]) continue;
    if (evaluated == 0 ||
        !same_group(configs[urep[gmember[evaluated - 1]]],
                    configs[urep[u]])) {
      gstart[ngroups++] = evaluated;
    }
    gmember[evaluated++] = u;
  }
  gstart[ngroups] = evaluated;

  const auto eval_group = [&](std::size_t gi) {
    const auto& c0 = configs[urep[gmember[gstart[gi]]]];
    const TaskGraph graph = simulator_->build_task_graph(c0.o, c0.v, c0.tile);
    for (std::size_t m = gstart[gi]; m < gstart[gi + 1]; ++m) {
      const std::size_t u = gmember[m];
      uval[u] = simulator_->breakdown(graph, configs[urep[u]].nodes).total_s();
    }
  };
  if (ngroups >= kMinParallelBatch) {
    exec::parallel_for(0, ngroups, eval_group);
  } else {
    for (std::size_t gi = 0; gi < ngroups; ++gi) eval_group(gi);
  }

  for (std::size_t m = 0; m < evaluated; ++m) {
    const std::size_t u = gmember[m];
    cache_.insert(key_for(configs[urep[u]]), uval[u]);
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.graph_builds += ngroups;
    stats_.evaluations += evaluated;
  }

  for (std::size_t i = 0; i < n; ++i) out[i] = uval[uid[i]];
  return out;
}

std::vector<double> SimEngine::measured_series(const RunConfig& cfg,
                                               std::uint64_t campaign_seed,
                                               int reps) {
  CCPRED_CHECK_MSG(reps >= 0, "repeat count must be non-negative");
  std::vector<double> out(static_cast<std::size_t>(reps), 0.0);
  if (reps == 0) return out;
  const std::uint64_t stream = measurement_stream_seed(campaign_seed, cfg);

  bool all = true;
  for (int r = 0; r < reps && all; ++r) {
    all = cache_.lookup(key_for(cfg, rep_seed(stream, r)),
                        &out[static_cast<std::size_t>(r)]);
  }
  if (all) return out;

  // Replaying the stream from the start makes each rep's value independent
  // of which prefix happened to be cached.
  const double base = iteration_time(cfg);
  Rng rng(stream);
  for (int r = 0; r < reps; ++r) {
    const double value = base * noise_factor(simulator_->machine(), rng);
    out[static_cast<std::size_t>(r)] = value;
    cache_.insert(key_for(cfg, rep_seed(stream, r)), value);
  }
  return out;
}

double SimEngine::measured_time(const RunConfig& cfg,
                                std::uint64_t campaign_seed, int rep) {
  CCPRED_CHECK_MSG(rep >= 0, "repeat index must be non-negative");
  return measured_series(cfg, campaign_seed, rep + 1).back();
}

}  // namespace ccpred::sim
