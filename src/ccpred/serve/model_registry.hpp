#pragma once

/// \file model_registry.hpp
/// Artifact-backed model store for the serving layer: train once per
/// (machine, model-kind), publish "<machine>-<kind>.model" into a
/// directory, and every server process serves from it. The registry
/// hot-reloads when the artifact's mtime changes (a newer campaign was
/// published) and falls back to train-and-cache when an artifact is
/// missing, so a fresh deployment bootstraps itself. Concurrent first
/// get()s of one missing (machine, kind) train it once: they coalesce on
/// the executor layer's single flight, while different keys train in
/// parallel.
///
/// Degraded mode (stale-while-revalidate): when a hot reload fails — the
/// new artifact is unreadable, corrupt, or has vanished — the registry
/// keeps serving the last successfully loaded model with `stale` set on
/// the handle instead of erroring, and counts the failure. A failed
/// publish is retried only when the artifact's mtime changes again, so a
/// corrupt file costs one load attempt per publish, not one per request.
///
/// Change detection is content-aware, not mtime-only. Each entry stores a
/// 64-bit content hash of the loaded artifact:
///  * an in-process publisher (the online promotion pipeline) calls
///    note_published() after writing; the next get() rechecks the content
///    hash even when the mtime is unchanged, so republishing twice within
///    the filesystem's mtime granularity is never silently missed;
///  * a publish that changes the mtime but not the bytes (touch, identical
///    re-publish) is absorbed without a version bump, so cached sweeps
///    stay valid instead of being invalidated for nothing.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "ccpred/core/regressor.hpp"
#include "ccpred/exec/sharded_cache.hpp"
#include "ccpred/serve/fault_injector.hpp"
#include "ccpred/sim/ccsd_simulator.hpp"

namespace ccpred::serve {

/// The simulator for a machine name ("aurora" | "frontier"); throws
/// ccpred::Error on anything else. Shared by the registry's fallback
/// training and the server's sweep enumeration.
sim::CcsdSimulator simulator_for(const std::string& machine);

/// Registry knobs; the defaults match the paper's production models, the
/// small values are for tests and benches.
struct RegistryOptions {
  std::size_t fallback_rows = 600; ///< campaign size for train-and-cache
  std::uint64_t fallback_seed = 2025;
  int gb_estimators = 750;  ///< boosting stages for fallback-trained GB
  int rf_estimators = 100;  ///< trees for fallback-trained RF
};

/// A loaded model plus its identity. `version` increments globally on every
/// (re)load, so a sweep cached under version N can never be served from a
/// newer model. The shared_ptr keeps an in-flight sweep's model alive
/// across a concurrent hot-reload.
struct ModelHandle {
  std::shared_ptr<const ml::Regressor> model;
  std::uint64_t version = 0;
  std::string machine;
  std::string kind;  ///< "gb" | "rf"
  std::string path;  ///< artifact the model came from
  bool stale = false;  ///< last-good model served after a failed reload
};

/// Thread-safe registry of serialized models in one artifact directory.
class ModelRegistry {
 public:
  explicit ModelRegistry(std::string artifact_dir,
                         RegistryOptions options = {});

  /// The model for (machine, kind), loading / hot-reloading / fallback-
  /// training as needed. kind is "gb" or "rf". Throws ccpred::Error for
  /// unknown machines or kinds, or corrupt artifacts.
  ModelHandle get(const std::string& machine, const std::string& kind);

  /// Trains the fallback model for (machine, kind) on a fresh simulated
  /// campaign and writes the artifact (overwriting any existing one).
  /// Returns the artifact path. Used by `ccpred_serverd train` and by
  /// get()'s missing-artifact fallback.
  std::string train_artifact(const std::string& machine,
                             const std::string& kind);

  /// Artifact path for (machine, kind): "<dir>/<machine>-<kind>.model".
  std::string artifact_path(const std::string& machine,
                            const std::string& kind) const;

  const std::string& artifact_dir() const { return dir_; }
  const RegistryOptions& options() const { return options_; }

  /// Tells the registry (machine, kind) was just republished in-process.
  /// The next get() verifies the artifact's content hash even if the mtime
  /// is unchanged — the promotion pipeline calls this after every atomic
  /// artifact swap so back-to-back promotions within the filesystem's
  /// mtime granularity are still picked up.
  void note_published(const std::string& machine, const std::string& kind);

  /// Total artifact (re)loads since construction.
  std::uint64_t loads() const;
  /// Total train-and-cache fallbacks taken since construction.
  std::uint64_t trainings() const;
  /// Total failed artifact load attempts (corrupt/unreadable/injected).
  std::uint64_t reload_failures() const;
  /// Publishes whose bytes were unchanged and were absorbed without a
  /// version bump (mtime touch, identical re-publish).
  std::uint64_t hash_skips() const;

  /// Arms the kArtifactRead injection point: artifact loads throw with the
  /// injected probability. The injector must outlive the registry; pass
  /// nullptr to disarm. Not thread-safe against concurrent get() — arm
  /// before serving starts.
  void set_fault_injector(FaultInjector* fault) { fault_ = fault; }

 private:
  struct Entry {
    ModelHandle handle;
    std::int64_t mtime_ns = 0;  ///< artifact mtime at load, for hot reload
    std::int64_t failed_mtime_ns = 0;  ///< mtime of a publish that failed
    std::uint64_t content_hash = 0;    ///< FNV-1a of the loaded artifact
    std::uint64_t loaded_gen = 0;      ///< published_gen_ seen at load
  };

  /// Parses `bytes`, read from `path`, into an entry with a fresh handle
  /// and `hash` as its content hash (caller holds the lock and sets the
  /// entry's mtime and generation).
  Entry load_locked(const std::string& machine, const std::string& kind,
                    const std::string& path, std::string_view bytes,
                    std::uint64_t hash);

  /// Loads (machine, kind) with no last-good entry to fall back on: a
  /// failure is counted and rethrown.
  ModelHandle first_load_locked(const std::string& machine,
                                const std::string& kind,
                                const std::string& key,
                                const std::string& path);

  /// Reads the whole artifact once per load attempt; its content hash and
  /// its parse both use these bytes. Consults the kArtifactRead injection
  /// point (one arrival per attempt) and throws on a fired fault or an
  /// unreadable file — the caller's degraded path handles both the same.
  std::string read_artifact_locked(const std::string& path) const;

  std::uint64_t published_gen_locked(const std::string& key) const;

  std::string dir_;
  RegistryOptions options_;
  FaultInjector* fault_ = nullptr;
  /// Single flight over train-and-cache, keyed "machine/kind" (one shard);
  /// a failed training caches nothing, so the next get() trains again.
  exec::ShardedMemoCache<std::string, std::string> trained_{1};

  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;  ///< keyed "machine/kind"
  std::map<std::string, std::uint64_t> published_gen_;  ///< bumped per publish
  std::uint64_t next_version_ = 1;
  std::uint64_t loads_ = 0;
  std::uint64_t trainings_ = 0;
  std::uint64_t reload_failures_ = 0;
  std::uint64_t hash_skips_ = 0;
};

}  // namespace ccpred::serve
