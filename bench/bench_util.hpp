#pragma once

/// \file bench_util.hpp
/// Shared setup for the reproduction benches: each binary regenerates the
/// paper's dataset for one machine, applies the paper's train/test split
/// (Table 1 sizes) and reports through the common table formatter.
///
/// Environment: set CCPRED_BENCH_FAST=1 to shrink the workloads (smaller
/// datasets, fewer search iterations) for quick smoke runs.

#include <string>
#include <vector>

#include "ccpred/data/generator.hpp"
#include "ccpred/data/split.hpp"
#include "ccpred/guidance/optimal.hpp"
#include "ccpred/sim/ccsd_simulator.hpp"

namespace ccpred::bench {

/// True when CCPRED_BENCH_FAST is set to a non-empty, non-"0" value.
bool fast_mode();

/// Simulator for "aurora" or "frontier".
sim::CcsdSimulator make_simulator(const std::string& machine);

/// The paper's campaign for one machine, already split 75/25 with
/// configuration coverage (Table 1 sizes: aurora 1746/583, frontier
/// 1840/614). In fast mode the dataset is ~4x smaller unless `full_rows`
/// is set — speedup-ratio gates calibrated at full campaign size should
/// pass `full_rows = true` so fast mode does not shift the ratio they
/// measure (fit-time ratios are not scale-free in n).
struct PaperData {
  sim::CcsdSimulator simulator;
  data::Dataset full;
  data::TrainTest split;
};

PaperData load_paper_data(const std::string& machine,
                          std::uint64_t seed = 2025, bool full_rows = false);

/// The k smallest problems by O*V work proxy (cheapest sweep surfaces).
std::vector<data::Problem> smallest_problems(std::vector<data::Problem> all,
                                             std::size_t k);

/// Exact row-by-row equality: same configs as `rows`, targets == labels.
bool campaign_matches(const data::Dataset& campaign, const data::Dataset& rows,
                      const std::vector<double>& labels);

/// The reference sweep: one from-scratch iteration_time per swept point.
std::vector<double> reference_times(
    const sim::CcsdSimulator& simulator,
    const std::vector<guide::TrueOptimaSweep>& sweeps);

/// Exact sweep equality: every point's time is its reference time, every
/// value follows from its time, and each argmin is a minimum.
bool sweeps_match(const std::vector<guide::TrueOptimaSweep>& sweeps,
                  const std::vector<double>& times,
                  guide::Objective objective);

/// One-line JSON object fragment recording where a bench number came from:
/// detected CPU features (avx2/fma), the SIMD dispatch mode the run
/// resolved to (including any CCPRED_SIMD override), and the git revision
/// the binary was configured from. Every BENCH_*.json writer embeds this
/// under a "provenance" key so archived numbers stay comparable across
/// hosts and dispatch modes.
std::string provenance_json();

}  // namespace ccpred::bench
