#include "ccpred/serve/model_registry.hpp"

#include <chrono>
#include <filesystem>
#include <string_view>
#include <utility>

#include "ccpred/common/error.hpp"
#include "ccpred/common/strings.hpp"
#include "ccpred/core/serialize.hpp"
#include "ccpred/data/generator.hpp"
#include "ccpred/data/problems.hpp"

namespace ccpred::serve {
namespace {

namespace fs = std::filesystem;

std::int64_t to_ns(fs::file_time_type t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

std::int64_t mtime_ns(const std::string& path) {
  std::error_code ec;
  const auto t = fs::last_write_time(path, ec);
  return ec ? 0 : to_ns(t);
}

void check_kind(const std::string& kind) {
  CCPRED_CHECK_MSG(kind == "gb" || kind == "rf",
                   "unknown model kind '" << kind << "' (use gb|rf)");
}

std::shared_ptr<const ml::Regressor> parse_model(const std::string& kind,
                                                 std::string_view bytes) {
  if (kind == "gb") {
    return std::make_shared<const ml::GradientBoostingRegressor>(
        ml::deserialize_gb(bytes));
  }
  return std::make_shared<const ml::RandomForestRegressor>(
      ml::deserialize_rf(bytes));
}

/// Streams a fitted `kind` model to `path`; a model of the other kind is
/// a caller bug and throws std::bad_cast.
ml::ArtifactStamp save_model(const ml::Regressor& model,
                             const std::string& kind,
                             const std::string& path) {
  if (kind == "gb") {
    return ml::save_gb(
        dynamic_cast<const ml::GradientBoostingRegressor&>(model), path);
  }
  return ml::save_rf(dynamic_cast<const ml::RandomForestRegressor&>(model),
                     path);
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

ModelHandle ModelRegistry::install_locked(
    const std::string& machine, const std::string& kind,
    const std::string& path, std::shared_ptr<const ml::Regressor> model,
    std::uint64_t hash, std::int64_t mtime_ns) {
  const std::string key = machine + "/" + kind;
  Entry entry;
  entry.handle.model = std::move(model);
  entry.handle.version = next_version_++;
  entry.handle.machine = machine;
  entry.handle.kind = kind;
  entry.handle.path = path;
  entry.mtime_ns = mtime_ns;
  entry.content_hash = hash;
  entry.loaded_gen = published_gen_locked(key);
  ++loads_;
  return (entries_[key] = std::move(entry)).handle;
}

ModelHandle ModelRegistry::first_load_locked(const std::string& machine,
                                             const std::string& kind,
                                             const std::string& path) {
  try {
    const std::int64_t now_ns = mtime_ns(path);
    const std::string bytes = read_artifact_locked(path);
    return install_locked(machine, kind, path, parse_model(kind, bytes),
                          fnv1a64(bytes), now_ns);
  } catch (const std::exception& e) {
    // First load failed — there is no last-good model to degrade to. The
    // message reaches the client, so it names the model it was loading.
    ++reload_failures_;
    throw Error("cannot load model " + machine + "/" + kind + ": " +
                e.what());
  }
}

std::shared_ptr<const ml::Regressor> ModelRegistry::fit_fallback(
    const std::string& machine, const std::string& kind) {
  check_kind(kind);
  const auto simulator = simulator_for(machine);
  data::GeneratorOptions gen;
  gen.seed = options_.fallback_seed;
  gen.target_total = options_.fallback_rows;
  const auto dataset = data::generate_dataset(
      simulator, data::problems_for(simulator.machine().name), gen);
  std::shared_ptr<ml::Regressor> model;
  if (kind == "gb") {
    model = std::make_shared<ml::GradientBoostingRegressor>(
        options_.gb_estimators);
  } else {
    model = std::make_shared<ml::RandomForestRegressor>(options_.rf_estimators);
  }
  model->fit(dataset.features(), dataset.targets());
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++trainings_;
  }
  return model;
}

std::string ModelRegistry::train_artifact(const std::string& machine,
                                          const std::string& kind) {
  const std::string path = artifact_path(machine, kind);
  save_model(*fit_fallback(machine, kind), kind, path);
  return path;
}

ModelHandle ModelRegistry::publish(const std::string& machine,
                                   const std::string& kind,
                                   std::shared_ptr<const ml::Regressor> model) {
  check_kind(kind);
  simulator_for(machine);  // validates the machine name before any write
  const std::string path = artifact_path(machine, kind);
  const ml::ArtifactStamp stamp = save_model(*model, kind, path);
  const std::lock_guard<std::mutex> lock(mutex_);
  return install_locked(machine, kind, path, std::move(model),
                        stamp.content_hash, to_ns(stamp.mtime));
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
        return install_locked(machine, kind, path, parse_model(kind, bytes),
                              hash, now_ns);
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
      return first_load_locked(machine, kind, path);
    }
  }
  // Missing artifact: train-and-cache outside the lock (training is the
  // slow path and must not block serving other machines), once per key
  // however many callers race here. The leader publishes what it fitted,
  // so the entry exists before the flight finishes and every joiner, like
  // every later caller, serves it without reading the artifact.
  trained_.get_or_compute(key, [&] {
    publish(machine, kind, fit_fallback(machine, kind));
    return path;
  });
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_.at(key).handle;
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
