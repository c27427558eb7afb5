#include "ccpred/serve/model_registry.hpp"

#include <chrono>
#include <filesystem>
#include <utility>

#include "ccpred/common/error.hpp"
#include "ccpred/common/strings.hpp"
#include "ccpred/core/serialize.hpp"
#include "ccpred/data/generator.hpp"
#include "ccpred/data/problems.hpp"

namespace ccpred::serve {
namespace {

namespace fs = std::filesystem;

std::int64_t mtime_ns(const std::string& path) {
  std::error_code ec;
  const auto t = fs::last_write_time(path, ec);
  if (ec) return 0;
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

void check_kind(const std::string& kind) {
  CCPRED_CHECK_MSG(kind == "gb" || kind == "rf",
                   "unknown model kind '" << kind << "' (use gb|rf)");
}

}  // namespace

sim::CcsdSimulator simulator_for(const std::string& machine) {
  if (machine == "aurora") {
    return sim::CcsdSimulator(sim::MachineModel::aurora());
  }
  if (machine == "frontier") {
    return sim::CcsdSimulator(sim::MachineModel::frontier());
  }
  throw Error("unknown machine: " + machine + " (use aurora|frontier)");
}

ModelRegistry::ModelRegistry(std::string artifact_dir, RegistryOptions options)
    : dir_(std::move(artifact_dir)), options_(options) {
  CCPRED_CHECK_MSG(!dir_.empty(), "artifact directory must not be empty");
  std::error_code ec;
  fs::create_directories(dir_, ec);
  CCPRED_CHECK_MSG(!ec, "cannot create artifact directory " << dir_ << ": "
                                                            << ec.message());
}

std::string ModelRegistry::artifact_path(const std::string& machine,
                                         const std::string& kind) const {
  return (fs::path(dir_) / (machine + "-" + kind + ".model")).string();
}

std::string ModelRegistry::read_artifact_locked(
    const std::string& path) const {
  if (fault_ != nullptr && fault_->fire(FaultPoint::kArtifactRead)) {
    throw Error("injected fault: artifact read failure for " + path);
  }
  return ml::read_artifact(path);
}

std::uint64_t ModelRegistry::published_gen_locked(
    const std::string& key) const {
  const auto it = published_gen_.find(key);
  return it == published_gen_.end() ? 0 : it->second;
}

void ModelRegistry::note_published(const std::string& machine,
                                   const std::string& kind) {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++published_gen_[machine + "/" + kind];
}

ModelRegistry::Entry ModelRegistry::load_locked(const std::string& machine,
                                                const std::string& kind,
                                                const std::string& path,
                                                std::string_view bytes,
                                                std::uint64_t hash) {
  Entry entry;
  ModelHandle& handle = entry.handle;
  if (kind == "gb") {
    handle.model = std::make_shared<const ml::GradientBoostingRegressor>(
        ml::deserialize_gb(bytes));
  } else {
    handle.model = std::make_shared<const ml::RandomForestRegressor>(
        ml::deserialize_rf(bytes));
  }
  handle.version = next_version_++;
  handle.machine = machine;
  handle.kind = kind;
  handle.path = path;
  entry.content_hash = hash;
  ++loads_;
  return entry;
}

ModelHandle ModelRegistry::first_load_locked(const std::string& machine,
                                             const std::string& kind,
                                             const std::string& key,
                                             const std::string& path) {
  try {
    const std::int64_t now_ns = mtime_ns(path);
    const std::string bytes = read_artifact_locked(path);
    Entry entry = load_locked(machine, kind, path, bytes, fnv1a64(bytes));
    entry.mtime_ns = now_ns;
    entry.loaded_gen = published_gen_locked(key);
    return (entries_[key] = std::move(entry)).handle;
  } catch (const std::exception&) {
    // First load failed — there is no last-good model to degrade to.
    ++reload_failures_;
    throw;
  }
}

std::string ModelRegistry::train_artifact(const std::string& machine,
                                          const std::string& kind) {
  check_kind(kind);
  const auto simulator = simulator_for(machine);
  data::GeneratorOptions gen;
  gen.seed = options_.fallback_seed;
  gen.target_total = options_.fallback_rows;
  const auto dataset = data::generate_dataset(
      simulator, data::problems_for(simulator.machine().name), gen);
  const std::string path = artifact_path(machine, kind);
  if (kind == "gb") {
    ml::GradientBoostingRegressor model(options_.gb_estimators);
    model.fit(dataset.features(), dataset.targets());
    ml::save_gb(model, path);
  } else {
    ml::RandomForestRegressor model(options_.rf_estimators);
    model.fit(dataset.features(), dataset.targets());
    ml::save_rf(model, path);
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++trainings_;
  }
  return path;
}

ModelHandle ModelRegistry::get(const std::string& machine,
                               const std::string& kind) {
  check_kind(kind);
  simulator_for(machine);  // validates the machine name early
  const std::string key = machine + "/" + kind;
  const std::string path = artifact_path(machine, kind);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
      const std::uint64_t gen = published_gen_locked(key);
      const std::int64_t now_ns = mtime_ns(path);
      const bool gen_changed = gen != it->second.loaded_gen;
      if (now_ns != 0 && now_ns == it->second.mtime_ns && !gen_changed) {
        // Disk matches what we serve; a reappeared artifact clears stale.
        it->second.handle.stale = false;
        return it->second.handle;
      }
      if (now_ns == 0) {
        // Artifact vanished: degrade to the last-good model rather than
        // retraining mid-serve; a republished file triggers a reload.
        it->second.handle.stale = true;
        return it->second.handle;
      }
      if (now_ns == it->second.failed_mtime_ns && !gen_changed) {
        // This publish already failed to load; wait for the next one.
        return it->second.handle;
      }
      // A changed mtime or a note_published() within the same mtime
      // granularity: verify the bytes before paying for a reload. One read
      // serves both the hash and the parse, so a publish landing mid-check
      // can never pair one file's hash with another file's model.
      try {
        const std::string bytes = read_artifact_locked(path);
        const std::uint64_t hash = fnv1a64(bytes);
        if (hash == it->second.content_hash) {
          // Same bytes (touch / identical or intra-granularity re-publish):
          // absorb without a version bump so cached sweeps stay valid.
          it->second.mtime_ns = now_ns;
          it->second.loaded_gen = gen;
          it->second.handle.stale = false;
          ++hash_skips_;
          return it->second.handle;
        }
        Entry entry = load_locked(machine, kind, path, bytes, hash);
        entry.mtime_ns = now_ns;
        entry.loaded_gen = gen;
        it->second = std::move(entry);
        return it->second.handle;
      } catch (const std::exception&) {
        // Unreadable/corrupt publish: keep serving the last-good model,
        // marked stale, and retry only when the artifact changes again.
        ++reload_failures_;
        it->second.failed_mtime_ns = now_ns;
        it->second.loaded_gen = gen;
        it->second.handle.stale = true;
        return it->second.handle;
      }
    } else if (fs::exists(path)) {
      return first_load_locked(machine, kind, key, path);
    }
  }
  // Missing artifact: train-and-cache outside the lock (training is the
  // slow path and must not block serving other machines), once per key
  // however many callers race here, then load.
  trained_.get_or_compute(key, [&] { return train_artifact(machine, kind); });
  const std::lock_guard<std::mutex> lock(mutex_);
  // Another caller may have loaded since; reuse its entry.
  const auto it = entries_.find(key);
  if (it != entries_.end()) return it->second.handle;
  return first_load_locked(machine, kind, key, path);
}

std::uint64_t ModelRegistry::loads() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return loads_;
}

std::uint64_t ModelRegistry::trainings() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return trainings_;
}

std::uint64_t ModelRegistry::reload_failures() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return reload_failures_;
}

std::uint64_t ModelRegistry::hash_skips() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return hash_skips_;
}

}  // namespace ccpred::serve
