/// \file dispatch.cpp
/// Mode resolution and the per-mode Ops tables. The active table is picked
/// once, on first use, from CPUID detection with an optional
/// `CCPRED_SIMD=scalar|avx2` environment override; an `avx2` request on a
/// host (or build) without AVX2+FMA falls back to scalar silently, so the
/// override is safe to export fleet-wide.

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "ccpred/simd/kernels.hpp"
#include "ccpred/simd/simd.hpp"

namespace ccpred::simd {

namespace {

constexpr Ops kScalarOps = {
    scalar_rbf_exp_map, scalar_sqdist_row, scalar_update2x4, scalar_update1x4,
};

#if defined(CCPRED_HAVE_AVX2_BUILD)
constexpr Ops kAvx2Ops = {
    avx2_rbf_exp_map, avx2_sqdist_row, avx2_update2x4, avx2_update1x4,
};
#else
constexpr Ops kAvx2Ops = kScalarOps;
#endif

Mode resolve_mode() {
  const char* env = std::getenv("CCPRED_SIMD");
  if (env != nullptr) {
    if (std::strcmp(env, "scalar") == 0) return Mode::kScalar;
    if (std::strcmp(env, "avx2") == 0) {
      return avx2_available() ? Mode::kAvx2 : Mode::kScalar;
    }
    // Unknown value: ignore and fall through to detection.
  }
  return avx2_available() ? Mode::kAvx2 : Mode::kScalar;
}

std::atomic<const Ops*> g_active{nullptr};
std::atomic<Mode> g_mode{Mode::kScalar};
std::once_flag g_once;

void init_active() {
  const Mode m = resolve_mode();
  g_mode.store(m, std::memory_order_relaxed);
  g_active.store(&ops_for(m), std::memory_order_release);
}

const Ops* active_table() {
  const Ops* p = g_active.load(std::memory_order_acquire);
  if (p == nullptr) {
    std::call_once(g_once, init_active);
    p = g_active.load(std::memory_order_acquire);
  }
  return p;
}

}  // namespace

CpuFeatures detect_cpu() {
  CpuFeatures f;
#if defined(__x86_64__) || defined(__i386__)
  f.avx2 = __builtin_cpu_supports("avx2") != 0;
  f.fma = __builtin_cpu_supports("fma") != 0;
#endif
  return f;
}

bool avx2_available() {
#if defined(CCPRED_HAVE_AVX2_BUILD)
  static const bool available = [] {
    const CpuFeatures f = detect_cpu();
    return f.avx2 && f.fma;
  }();
  return available;
#else
  return false;
#endif
}

const Ops& ops() { return *active_table(); }

const Ops& ops_for(Mode mode) {
  if (mode == Mode::kAvx2 && avx2_available()) return kAvx2Ops;
  return kScalarOps;
}

Mode active_mode() {
  active_table();
  return g_mode.load(std::memory_order_relaxed);
}

const char* mode_name(Mode mode) {
  return mode == Mode::kAvx2 ? "avx2" : "scalar";
}

void set_mode_for_testing(Mode mode) {
  active_table();  // force one-time resolution first
  const Mode effective =
      (mode == Mode::kAvx2 && avx2_available()) ? Mode::kAvx2 : Mode::kScalar;
  g_mode.store(effective, std::memory_order_relaxed);
  g_active.store(&ops_for(effective), std::memory_order_release);
}

}  // namespace ccpred::simd
