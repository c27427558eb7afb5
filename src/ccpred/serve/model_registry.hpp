#pragma once

/// \file model_registry.hpp
/// Artifact-backed model store for the serving layer: train once per
/// (machine, model-kind), publish "<machine>-<kind>.model" into a
/// directory, and every server process serves from it. A model comes to
/// be served by one of two paths:
///  * from disk: the first get() of an already-published artifact, and a
///    hot reload when the artifact's mtime changes (a newer campaign was
///    published), read the file once, hash it and parse it;
///  * from this process: publish() streams a model the process has fitted
///    to its artifact and serves that same object. get()'s train-and-cache
///    fallback (a missing artifact, so a fresh deployment bootstraps
///    itself) and the online promotion both take this path, so nothing
///    reads back, re-hashes or re-parses bytes the process has just
///    written, and nothing is parsed under the registry lock for them.
/// Concurrent first get()s of one missing (machine, kind) train it once:
/// they coalesce on the executor layer's single flight, while different
/// keys train in parallel.
///
/// Degraded mode (stale-while-revalidate): when a hot reload fails — the
/// new artifact is unreadable, corrupt, or has vanished — the registry
/// keeps serving the last successfully loaded model with `stale` set on
/// the handle instead of erroring, and counts the failure. A failed
/// publish is retried only when the artifact's mtime changes again, so a
/// corrupt file costs one load attempt per publish, not one per request.
///
/// Change detection is content-aware, not mtime-only. Each entry stores a
/// 64-bit content hash of its artifact (publish() takes it from the save):
///  * a publisher that writes the artifact itself calls note_published()
///    after the rename; the next get() rechecks the content hash even when
///    the mtime is unchanged, so republishing twice within the
///    filesystem's mtime granularity is never silently missed;
///  * a publish that changes the mtime but not the bytes (touch, identical
///    re-publish) is absorbed without a version bump, so cached sweeps
///    stay valid instead of being invalidated for nothing.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

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

/// A served model plus its identity. `version` increments globally on
/// every install (a load, a reload or a publish), so a sweep cached under
/// version N can never be served from a newer model. The shared_ptr keeps an in-flight sweep's model alive
/// across a concurrent hot-reload.
struct ModelHandle {
  std::shared_ptr<const ml::Regressor> model;
  std::uint64_t version = 0;
  std::string machine;
  std::string kind;  ///< "gb" | "rf"
  std::string path;  ///< its artifact
  bool stale = false;  ///< last-good model served after a failed reload
};

/// Thread-safe registry of serialized models in one artifact directory.
class ModelRegistry {
 public:
  explicit ModelRegistry(std::string artifact_dir,
                         RegistryOptions options = {});

  /// The model for (machine, kind). kind is "gb" or "rf". Serves the
  /// installed entry while its artifact is unchanged; otherwise loads it
  /// from disk (first use of a published artifact, or a hot reload). A
  /// missing artifact is trained once, however many callers race, and
  /// publish()ed, so the fitted model itself is served. Throws
  /// ccpred::Error for unknown machines or kinds, or on a first load that
  /// fails (corrupt artifact, injected read failure).
  ModelHandle get(const std::string& machine, const std::string& kind);

  /// Installs `model`, which this process has fitted and which must be a
  /// `kind` model ("gb": GradientBoostingRegressor, "rf":
  /// RandomForestRegressor), as the served (machine, kind). It streams the
  /// model to the artifact (ml::save_gb / save_rf, outside the registry
  /// lock), then, under the lock, replaces the entry with a handle on this
  /// very object: the next version, the save's content hash and mtime, not
  /// stale, any failed-publish mark cleared. It counts as a load (loads())
  /// and never reads the artifact, so it never consults kArtifactRead. A
  /// failed write throws ccpred::Error and leaves the entry as it was.
  /// Returns the installed handle.
  ModelHandle publish(const std::string& machine, const std::string& kind,
                      std::shared_ptr<const ml::Regressor> model);

  /// Trains the fallback model for (machine, kind) on a fresh simulated
  /// campaign and writes the artifact (overwriting any existing one)
  /// without installing it. Returns the artifact path. Used by
  /// `ccpred_serverd train`, the benches and the ledger.
  std::string train_artifact(const std::string& machine,
                             const std::string& kind);

  /// Artifact path for (machine, kind): "<dir>/<machine>-<kind>.model".
  std::string artifact_path(const std::string& machine,
                            const std::string& kind) const;

  const std::string& artifact_dir() const { return dir_; }
  const RegistryOptions& options() const { return options_; }

  /// Tells the registry (machine, kind)'s artifact was just swapped by a
  /// writer other than publish(). The next get() verifies the artifact's
  /// content hash even if the mtime is unchanged, so back-to-back swaps
  /// within the filesystem's mtime granularity are still picked up.
  void note_published(const std::string& machine, const std::string& kind);

  /// Models installed since construction: artifact (re)loads plus
  /// publish()es.
  std::uint64_t loads() const;
  /// Total train-and-cache fallbacks taken since construction.
  std::uint64_t trainings() const;
  /// Total failed artifact load attempts (corrupt/unreadable/injected).
  std::uint64_t reload_failures() const;
  /// Publishes whose bytes were unchanged and were absorbed without a
  /// version bump (mtime touch, identical re-publish).
  std::uint64_t hash_skips() const;

  /// Arms the kArtifactRead injection point: artifact reads (first loads
  /// and hot reloads, never publish()) throw with the injected
  /// probability. The injector must outlive the registry; pass nullptr to
  /// disarm. Not thread-safe against concurrent get() — arm before serving
  /// starts.
  void set_fault_injector(FaultInjector* fault) { fault_ = fault; }

 private:
  struct Entry {
    ModelHandle handle;
    std::int64_t mtime_ns = 0;  ///< artifact mtime at install, for reload
    std::int64_t failed_mtime_ns = 0;  ///< mtime of a publish that failed
    std::uint64_t content_hash = 0;    ///< FNV-1a of the served artifact
    std::uint64_t loaded_gen = 0;      ///< published_gen_ seen at install
  };

  /// Replaces (machine, kind)'s entry with `model` under the next version,
  /// recording its artifact's hash and mtime and the current publish
  /// generation, and counts a load. Caller holds the lock.
  ModelHandle install_locked(const std::string& machine,
                             const std::string& kind, const std::string& path,
                             std::shared_ptr<const ml::Regressor> model,
                             std::uint64_t hash, std::int64_t mtime_ns);

  /// Loads (machine, kind) with no last-good entry to fall back on: a
  /// failure is counted and rethrown as a ccpred::Error naming the model
  /// ("cannot load model aurora/gb: ...").
  ModelHandle first_load_locked(const std::string& machine,
                                const std::string& kind,
                                const std::string& path);

  /// Fits the fallback model for (machine, kind) on the registry's
  /// deterministic campaign and counts the training.
  std::shared_ptr<const ml::Regressor> fit_fallback(const std::string& machine,
                                                    const std::string& kind);

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
