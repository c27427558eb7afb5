/// ccpred_ledger — absolute end-to-end and per-layer performance numbers for
/// ccpred's serving daemon. README.md describes the workloads, the run
/// shape and every metric.
///
///   ccpred_ledger --workload NAME --seed N --seconds S --trace 0|1
///                 [--smoke 1]
///
/// --trace 0 starts ccpred_serverd with its default flags on an empty
/// artifact directory (three times, for setup_s), drives it open-loop at
/// the workload's lo and hi rates and then up a rate ladder, and reports
/// the end-to-end metrics. --trace 1 reports the per-layer metrics
/// instead: the daemon's own counters over lo and hi, the same two phases
/// against an in-process server whose boundaries the ledger stamps (spans
/// written to TRACE_<workload>.jsonl), and serial replays of each layer.
/// --smoke 1 shrinks everything to a few seconds.
///
/// Every metric is printed with its unit and sample count and written to
/// BENCH_ledger.json; the last stdout line is the JSON result. Exits 1 on
/// a wrong answer or any error.

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "bench_util.hpp"
#include "ccpred/common/error.hpp"
#include "ccpred/common/strings.hpp"
#include "ccpred/serve/model_registry.hpp"
#include "ccpred/serve/protocol.hpp"
#include "daemon.hpp"
#include "ledger.hpp"
#include "load_client.hpp"
#include "replay.hpp"
#include "traced_server.hpp"
#include "workload.hpp"

#ifndef CCPRED_SERVERD_PATH
#error "CCPRED_SERVERD_PATH must name the ccpred_serverd binary"
#endif

namespace {

using namespace ccpred;
using namespace ccpred::ledger;
namespace fs = std::filesystem;

/// The generator: one process, four connections, one thread each.
constexpr int kConnections = 4;
/// lo and hi alternate in this many rounds, so each spans the whole run:
/// this host's speed wanders over seconds, and a phase measured in one
/// stretch would catch one moment of it.
constexpr int kRounds = 4;
/// Seconds a phase waits for its last answers before counting them lost.
constexpr double kDrainS = 10.0;
/// An answer to wait for during set-up and prefill (training included).
constexpr double kSetupTimeoutS = 120.0;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  bool smoke = false;
};

Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; i += 2) {
    CCPRED_CHECK_MSG(std::strncmp(argv[i], "--", 2) == 0,
                     "expected --flag, got '" << argv[i] << "'");
    CCPRED_CHECK_MSG(i + 1 < argc, "flag '" << argv[i] << "' is missing a value");
    const std::string flag = argv[i] + 2;
    const std::string value = argv[i + 1];
    if (flag == "workload") {
      opt.workload = value;
    } else if (flag == "seed") {
      opt.seed = static_cast<std::uint64_t>(parse_int(value));
    } else if (flag == "seconds") {
      opt.seconds = parse_double(value);
    } else if (flag == "trace") {
      opt.trace = value != "0";
    } else if (flag == "smoke") {
      opt.smoke = value != "0";
    } else {
      CCPRED_CHECK_MSG(false, "unknown flag --" << flag);
    }
  }
  CCPRED_CHECK_MSG(!opt.workload.empty(), "--workload is required");
  CCPRED_CHECK_MSG(opt.seconds >= 1.0 && opt.seconds <= 60.0,
                   "--seconds wants 1..60");
  return opt;
}

/// Phase lengths and rates of one run, derived from --seconds: 30% at lo,
/// 50% at hi; traced runs add a ladder of up to 70%.
struct Shape {
  double lo_s = 0.0;
  double hi_s = 0.0;
  double ladder_s = 0.0;
  double step_s = 0.0;
  int max_steps = 12;
  double rate_scale = 1.0;  ///< multiplies every rate (smoke runs gentler)
  int setups = 3;           ///< daemon set-ups timed for setup_s
};

Shape shape_for(const WorkloadSpec& spec, const Options& opt) {
  Shape s;
  if (opt.smoke) {
    s = {.lo_s = 0.5, .hi_s = 0.5, .ladder_s = 1.2, .step_s = 0.3,
         .max_steps = 3, .rate_scale = 0.25, .setups = 1};
  } else {
    s = {.lo_s = 0.3 * opt.seconds, .hi_s = 0.5 * opt.seconds,
         .ladder_s = 0.7 * opt.seconds,
         .step_s = spec.step_s * opt.seconds / 20.0,
         .max_steps = 12, .rate_scale = 1.0, .setups = 3};
  }
  if (opt.trace) s.setups = 1;
  return s;
}

/// What one fixed-rate phase or ladder step measured.
struct PhaseSummary {
  double seconds = 0.0;
  std::size_t sent = 0;
  std::size_t ok = 0;
  std::size_t failed = 0;       ///< unanswered, ok=false or wrong
  std::size_t backlog_end = 0;  ///< unanswered when the last arrival was due
  std::vector<double> latency_ms;  ///< ok answers, from intended send time
  std::vector<double> lag_ms;      ///< generator lateness of sent requests
  /// The same per window of about the workload's window_s (by intended
  /// send time); failed requests count as +inf latency.
  std::vector<std::vector<double>> window_latency_ms;
  std::vector<std::vector<double>> window_lag_ms;
  double achieved_rps() const { return static_cast<double>(ok) / seconds; }

  /// Pools another stretch at the same rate into this one.
  void merge(PhaseSummary other) {
    seconds += other.seconds;
    sent += other.sent;
    ok += other.ok;
    failed += other.failed;
    backlog_end += other.backlog_end;
    const auto append = [](auto& to, auto& from) {
      to.insert(to.end(), std::make_move_iterator(from.begin()),
                std::make_move_iterator(from.end()));
    };
    append(latency_ms, other.latency_ms);
    append(lag_ms, other.lag_ms);
    append(window_latency_ms, other.window_latency_ms);
    append(window_lag_ms, other.window_lag_ms);
  }
};

/// The median over windows of each window's `q` quantile. The host this
/// runs on pauses now and then for a few ms; a pause spoils one window's
/// tail, not the median window's, so tails stay comparable run to run.
double windowed_quantile(std::vector<std::vector<double>> windows, double q) {
  std::vector<double> per_window;
  for (std::vector<double>& w : windows) {
    if (!w.empty()) per_window.push_back(quantile(w, q));
  }
  return median(per_window);
}

/// Republishes an artifact at given times, alternating two contents, the
/// way a model pipeline publishes: tmp file + rename(2).
class Republisher {
 public:
  Republisher(std::string path, std::string first, std::string second)
      : path_(std::move(path)),
        contents_{std::move(first), std::move(second)},
        thread_([this] { loop(); }) {}
  ~Republisher() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Republisher(const Republisher&) = delete;
  Republisher& operator=(const Republisher&) = delete;

  /// Adds publish times (now_ns() values, ascending). Throws if an
  /// earlier publish failed.
  void at(const std::vector<std::int64_t>& times) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      CCPRED_CHECK_MSG(error_.empty(), "artifact republish failed: " << error_);
      due_.insert(due_.end(), times.begin(), times.end());
    }
    cv_.notify_all();
  }

 private:
  void loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    for (std::size_t n = 0;;) {
      cv_.wait(lock, [this] { return stop_ || !due_.empty(); });
      if (stop_) return;
      const std::chrono::steady_clock::time_point when{
          std::chrono::nanoseconds(due_.front())};
      if (cv_.wait_until(lock, when, [this] { return stop_; })) return;
      due_.pop_front();
      try {
        publish_atomically(path_, contents_[n++ % 2]);
      } catch (const std::exception& e) {
        error_ = e.what();
        return;
      }
    }
  }

  const std::string path_;
  const std::string contents_[2];
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::int64_t> due_;
  std::string error_;  ///< why the last publish failed
  bool stop_ = false;
  std::thread thread_;  ///< last: starts after everything it reads
};

/// The value after `"key":` in a flat JSON line (0 when absent).
double field(std::string_view line, std::string_view key) {
  std::string needle = "\"";
  needle.append(key).append("\":");
  const std::size_t at = line.find(needle);
  if (at == std::string_view::npos) return 0.0;
  return std::atof(std::string(line.substr(at + needle.size(), 32)).c_str());
}

using Stats = std::map<std::string, std::string>;

double stat(const Stats& s, const std::string& key) {
  const auto it = s.find(key);
  return it == s.end() ? 0.0 : std::atof(it->second.c_str());
}

Stats query_stats(int port) {
  const std::vector<std::string> reply =
      exchange(port, {"{\"op\":\"stats\"}\n"}, 10.0);
  return serve::parse_record(reply.at(0));
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

class Ledger {
 public:
  Ledger(const Options& opt, const WorkloadSpec& spec)
      : opt_(opt),
        spec_(spec),
        shape_(shape_for(spec, opt)),
        dir_(fs::path(".bench_build") /
             ("ledger-run-" + std::to_string(::getpid()))),
        traffic_(spec),
        content_rng_(opt.seed ^ 0xc0ffeeULL),
        arrival_rng_(opt.seed ^ 0xa771ULL),
        time_zero_(now_ns()) {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  ~Ledger() {
    publisher_.reset();  // it writes into dir_
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  /// Runs the workload; returns the exit code.
  int run();

 private:
  std::vector<std::string> daemon_args(const std::string& artifact_dir) const;
  double time_setup(const std::string& artifact_dir,
                    std::unique_ptr<Daemon>* keep);
  void prepare_answers(const std::string& served_dir);
  std::string new_request(std::uint32_t cls);
  std::vector<std::string> prefill_lines();
  void prefill(int port, const std::vector<std::string>& lines,
               std::uint64_t first_id);
  Schedule build_schedule(double rate, double seconds, std::uint64_t* first_id);
  PhaseSummary run_schedule(int port, const Schedule& schedule,
                            std::uint64_t first_id, double seconds,
                            PhaseResult* raw = nullptr);
  double ladder(int port, std::size_t* steps);
  Verdict check(std::uint64_t id, std::string_view line);
  Verdict wrong(std::string_view line, std::string_view expected);
  void verify_samples();
  void start_republishing(const std::string& artifact_dir);
  void add_daemon_layers(const Stats& before, const Stats& after, double cpu_ms,
                         std::uint64_t first_id, std::uint64_t end_id,
                         const PhaseSummary& lo, const PhaseSummary& hi);
  void traced_run(const std::string& served_dir);
  void tally(const PhaseSummary& p);
  /// Prints and writes the result; false when a metric is not finite.
  bool print_result(bool valid);

  const Options opt_;
  const WorkloadSpec& spec_;
  const Shape shape_;
  const fs::path dir_;
  Traffic traffic_;
  Rng content_rng_;
  Rng arrival_rng_;
  const std::int64_t time_zero_;

  std::unique_ptr<Reference> reference_;
  std::unique_ptr<Reference> alternate_;  ///< churn: the republished model
  std::string artifact_a_, artifact_b_;   ///< churn: the two aurora artifacts
  std::unique_ptr<Republisher> publisher_;  ///< churn, while phases run
  std::vector<std::string> expected_;     ///< canonical answer per class
  std::vector<std::string> expected_alt_; ///< churn: per class, under B

  /// Per request id: its class; on cold_open also whether it is checked
  /// and, if so, the canonical answer it got.
  std::vector<std::uint32_t> classes_;
  std::vector<std::uint8_t> sampled_;
  std::vector<std::string> samples_;
  double sample_rate_ = 1.0;

  std::mutex mismatch_mutex_;
  std::string first_mismatch_;
  std::size_t wrong_ = 0;  ///< found after the phases (cold samples)

  Report report_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  bool correct_ = true;
  double lag_p99_ms_ = 0.0;
  std::vector<double> setup_rss_mib_;  ///< VmHWM of each daemon once set up
};

std::vector<std::string> Ledger::daemon_args(
    const std::string& artifact_dir) const {
  std::vector<std::string> args = {"--artifacts", artifact_dir};
  if (spec_.churn) {
    // Reports are ingested and drift-tracked, but no refit or promotion
    // ever fires: the republish is the workload's only model change.
    args.insert(args.end(),
                {"--online", "1", "--online-drift-threshold", "1e9"});
  }
  if (opt_.smoke) {
    args.insert(args.end(), {"--rows", "200", "--estimators", "20"});
  }
  return args;
}

/// Daemon launch on an empty directory until it has answered for both
/// machines (each trains and caches its model on first use).
double Ledger::time_setup(const std::string& artifact_dir,
                          std::unique_ptr<Daemon>* keep) {
  fs::create_directories(artifact_dir);
  const std::int64_t t0 = now_ns();
  auto daemon = std::make_unique<Daemon>(
      CCPRED_SERVERD_PATH, daemon_args(artifact_dir), kSetupTimeoutS);
  const std::vector<std::string> replies = exchange(
      daemon->port(),
      {"{\"op\":\"stq\",\"machine\":\"aurora\",\"o\":134,\"v\":951}\n",
       "{\"op\":\"stq\",\"machine\":\"frontier\",\"o\":134,\"v\":951}\n"},
      kSetupTimeoutS);
  const double seconds = static_cast<double>(now_ns() - t0) / 1e9;
  for (const std::string& reply : replies) {
    CCPRED_CHECK_MSG(reply.rfind("{\"ok\":true", 0) == 0,
                     "set-up answer failed: " << reply);
  }
  setup_rss_mib_.push_back(daemon->peak_rss_mib());
  if (keep != nullptr) {
    *keep = std::move(daemon);
  } else {
    daemon->stop();
  }
  return seconds;
}

void Ledger::prepare_answers(const std::string& served_dir) {
  reference_ = std::make_unique<Reference>(served_dir);
  if (spec_.cold) return;  // cold answers are checked by sample, later
  std::vector<std::uint32_t> all(traffic_.keys().size());
  for (std::uint32_t k = 0; k < all.size(); ++k) all[k] = k;
  reference_->prepare(traffic_, all);
  if (spec_.churn) {
    // B: the same campaign size and model, trained on seed 2026, beside
    // the daemon's frontier artifact.
    const fs::path alt = dir_ / "alt";
    serve::RegistryOptions reg = daemon_registry_options(opt_.smoke);
    reg.fallback_seed = 2026;
    serve::ModelRegistry(alt.string(), reg).train_artifact("aurora", "gb");
    fs::copy_file(fs::path(served_dir) / "frontier-gb.model",
                  alt / "frontier-gb.model");
    artifact_a_ =
        read_file((fs::path(served_dir) / "aurora-gb.model").string());
    artifact_b_ = read_file((alt / "aurora-gb.model").string());
    alternate_ = std::make_unique<Reference>(alt.string());
    alternate_->prepare(traffic_, all);
  }
  traffic_.set_answers(*reference_, alternate_.get());
  const auto classes = static_cast<std::uint32_t>(all.size()) * kSlots;
  const auto answer = [this](const Reference& ref, std::uint32_t cls) {
    return canonical(serve::format_response(ref.response(traffic_, cls)));
  };
  expected_.resize(classes);
  if (alternate_) expected_alt_.resize(classes);
  for (std::uint32_t cls = 0; cls < classes; ++cls) {
    if (cls % kSlots >= kSlotReport) continue;
    expected_[cls] = answer(*reference_, cls);
    if (alternate_) expected_alt_[cls] = answer(*alternate_, cls);
  }
}

/// Registers a request of class `cls` under the next id; returns its line.
std::string Ledger::new_request(std::uint32_t cls) {
  const std::uint64_t id = classes_.size();
  classes_.push_back(cls);
  if (spec_.cold) {
    sampled_.push_back(content_rng_.uniform() < sample_rate_);
    samples_.emplace_back();
  }
  return serve::format_request(traffic_.request(cls, id, content_rng_)) +
         "\n";
}

/// Untimed: one STQ per hot key fills the sweep cache (cold: as many keys
/// as it holds); churn also grows the online learner's GP surrogates to
/// their cap, so the timed phases see the steady state.
std::vector<std::string> Ledger::prefill_lines() {
  std::vector<std::string> lines;
  const std::size_t hot = spec_.cold ? 256 : traffic_.keys().size();
  for (const std::uint32_t k : traffic_.hottest_keys(hot)) {
    lines.push_back(new_request(k * kSlots));
  }
  if (spec_.churn) {
    const std::size_t reports = opt_.smoke ? 40 : 800;
    for (std::size_t i = 0; i < reports; ++i) {
      const auto k = static_cast<std::uint32_t>(i % traffic_.keys().size());
      lines.push_back(
          new_request(k * kSlots + kSlotReport + kReportSizes - 1));
    }
  }
  return lines;
}

void Ledger::prefill(int port, const std::vector<std::string>& lines,
                     std::uint64_t first_id) {
  const std::vector<std::string> replies =
      exchange(port, lines, kSetupTimeoutS);
  for (std::size_t i = 0; i < replies.size(); ++i) {
    CCPRED_CHECK_MSG(check(first_id + i, replies[i]) == Verdict::kOk,
                     "prefill answer rejected: " << replies[i]);
  }
}

/// Poisson arrivals at `rate` for `seconds`, each on a uniformly chosen
/// connection (so every connection sees a Poisson stream too).
Schedule Ledger::build_schedule(double rate, double seconds,
                                std::uint64_t* first_id) {
  *first_id = classes_.size();
  Schedule s;
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - arrival_rng_.uniform()) / rate;
    if (t >= seconds) break;
    s.at_ns.push_back(static_cast<std::int64_t>(t * 1e9));
    s.conn.push_back(static_cast<std::uint8_t>(
        arrival_rng_.uniform_int(0, kConnections - 1)));
    s.lines.push_back(new_request(traffic_.draw(content_rng_)));
  }
  return s;
}

PhaseSummary Ledger::run_schedule(int port, const Schedule& schedule,
                                  std::uint64_t first_id, double seconds,
                                  PhaseResult* raw) {
  const std::int64_t start = now_ns() + 20'000'000;
  const auto windows = static_cast<std::size_t>(
      std::max(1.0, std::round(seconds / spec_.window_s)));
  const double window_ns = seconds * 1e9 / static_cast<double>(windows);
  if (publisher_ != nullptr) {
    // churn: one republish in the middle of every window, so each window's
    // tail holds exactly one model reload.
    std::vector<std::int64_t> times;
    for (std::size_t w = 0; w < windows; ++w) {
      times.push_back(start + static_cast<std::int64_t>(
                                  (static_cast<double>(w) + 0.5) * window_ns));
    }
    publisher_->at(times);
  }
  PhaseResult r = run_open_loop(
      port, schedule, kConnections,
      [this, first_id](std::size_t i, std::string_view line) {
        return check(first_id + i, line);
      },
      kDrainS, start);
  PhaseSummary p;
  p.seconds = seconds;
  p.window_latency_ms.resize(windows);
  p.window_lag_ms.resize(windows);
  for (const Outcome& o : r.outcomes) {
    ++p.sent;
    const std::size_t w = std::min(
        windows - 1, static_cast<std::size_t>(
                         static_cast<double>(o.intended_ns - r.start_ns) /
                         window_ns));
    if (o.sent_ns != 0) {
      const double lag = static_cast<double>(o.sent_ns - o.intended_ns) / 1e6;
      p.lag_ms.push_back(lag);
      p.window_lag_ms[w].push_back(lag);
    }
    if (o.recv_ns == 0 || o.recv_ns > r.end_ns) ++p.backlog_end;
    if (o.verdict == Verdict::kOk) {
      ++p.ok;
      const double ms = static_cast<double>(o.recv_ns - o.intended_ns) / 1e6;
      p.latency_ms.push_back(ms);
      p.window_latency_ms[w].push_back(ms);
    } else {
      ++p.failed;
      p.window_latency_ms[w].push_back(INFINITY);
    }
  }

  if (raw != nullptr) *raw = std::move(r);
  return p;
}

/// max_rps_at_slo: climb from hi in x1.25 steps while a step passes (or
/// descend while none has), then bisect the bracket three times
/// geometrically (~3% resolution). A step passes when its p99 (windowed;
/// failed requests count as misses) is within the SLO, at most 0.1%
/// failed, and its backlog at the end is at most 50 ms of arrivals.
/// Returns the answered rate of the fastest passing step.
double Ledger::ladder(int port, std::size_t* steps) {
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(shape_.ladder_s * 1e9);
  const auto budget_left = [&] {
    return static_cast<int>(*steps) < shape_.max_steps &&
           now_ns() + static_cast<std::int64_t>(shape_.step_s * 1e9) <= deadline;
  };
  double pass = 0.0;
  double fail = 0.0;
  double best = 0.0;
  const auto step = [&](double rate) {
    std::uint64_t first = 0;
    const Schedule s = build_schedule(rate, shape_.step_s, &first);
    const PhaseSummary p = run_schedule(port, s, first, shape_.step_s);
    tally(p);
    ++*steps;
    const double p99 = windowed_quantile(p.window_latency_ms, 0.99);
    const bool ok =
        p99 <= spec_.slo_ms &&
        static_cast<double>(p.failed) <= 0.001 * static_cast<double>(p.sent) &&
        static_cast<double>(p.backlog_end) <= 0.05 * rate;
    std::fprintf(stderr,
                 "ladder: %8.0f req/s offered, %8.0f answered, p99 %.3f ms "
                 "-> %s\n",
                 rate, p.achieved_rps(), p99, ok ? "pass" : "fail");
    if (ok && rate > pass) {
      pass = rate;
      best = p.achieved_rps();
    }
    if (!ok && (fail == 0.0 || rate < fail)) fail = rate;
    return ok;
  };
  double rate = spec_.ladder_rps * shape_.rate_scale;
  while (budget_left()) {
    const bool ok = step(rate);
    if (ok && fail == 0.0) {
      rate *= 1.25;
    } else if (!ok && pass == 0.0) {
      rate /= 1.25;
    } else {
      break;
    }
  }
  for (int fine = 0; fine < 3 && pass > 0.0 && fail > 0.0 && budget_left();
       ++fine) {
    step(std::sqrt(pass * fail));
  }
  return best;
}

Verdict Ledger::wrong(std::string_view line, std::string_view expected) {
  const std::lock_guard<std::mutex> lock(mismatch_mutex_);
  if (first_mismatch_.empty()) {
    first_mismatch_ = "got      " + std::string(line) + "\nexpected " +
                      std::string(expected);
  }
  return Verdict::kWrong;
}

/// Judges one answer: ok, echoing its id, and equal to the reference
/// (churn: under either published model). Reports must account for every
/// wall time sent. Cold answers are kept for verify_samples() when sampled.
Verdict Ledger::check(std::uint64_t id, std::string_view line) {
  if (line.rfind("{\"ok\":true,", 0) != 0) return Verdict::kFailed;
  std::string echoed;
  std::string canon = canonical(line, &echoed);
  if (echoed != std::to_string(id)) {
    return wrong(line, "id " + std::to_string(id));
  }
  const std::uint32_t cls = classes_[id];
  const std::uint32_t slot = cls % kSlots;
  if (slot >= kSlotReport) {
    const double sent = slot - kSlotReport + 1;
    return field(canon, "accepted") + field(canon, "duplicates") == sent
               ? Verdict::kOk
               : wrong(line, "every wall time accepted or a duplicate");
  }
  if (spec_.cold) {
    if (sampled_[id]) samples_[id] = std::move(canon);
    return Verdict::kOk;
  }
  if (canon == expected_[cls] ||
      (!expected_alt_.empty() && canon == expected_alt_[cls])) {
    return Verdict::kOk;
  }
  return wrong(line, expected_[cls]);
}

/// Compares every sampled cold answer with the reference.
void Ledger::verify_samples() {
  if (!spec_.cold) return;
  std::vector<std::uint32_t> keys;
  for (std::size_t id = 0; id < samples_.size(); ++id) {
    if (!samples_[id].empty()) keys.push_back(classes_[id] / kSlots);
  }
  reference_->prepare(traffic_, keys);
  std::size_t checked = 0;
  for (std::size_t id = 0; id < samples_.size(); ++id) {
    if (samples_[id].empty()) continue;
    ++checked;
    const std::string expected = canonical(serve::format_response(
        reference_->response(traffic_, classes_[id])));
    if (samples_[id] != expected) {
      wrong(samples_[id], expected);
      ++wrong_;
    }
  }
  std::fprintf(stderr, "cold_open: %zu sampled answers checked, %zu wrong\n",
               checked, wrong_);
}

void Ledger::start_republishing(const std::string& artifact_dir) {
  if (!spec_.churn) return;
  // Starts with B, so the first republish already changes the model.
  publisher_ = std::make_unique<Republisher>(
      (fs::path(artifact_dir) / "aurora-gb.model").string(), artifact_b_,
      artifact_a_);
}

void Ledger::tally(const PhaseSummary& p) {
  attempted_ += p.sent;
  failed_ += p.failed;
}

/// Source U: the daemon's own counters, as deltas over lo + hi.
void Ledger::add_daemon_layers(const Stats& before, const Stats& after,
                               double cpu_ms, std::uint64_t first_id,
                               std::uint64_t end_id, const PhaseSummary& lo,
                               const PhaseSummary& hi) {
  const auto delta = [&](const char* key) {
    return stat(after, key) - stat(before, key);
  };
  const std::size_t n = lo.ok + hi.ok;
  std::set<std::uint32_t> keys;
  for (std::uint64_t id = first_id; id < end_id; ++id) {
    if (classes_[id] % kSlots < kSlotReport) keys.insert(classes_[id] / kSlots);
  }
  const double hits = delta("cache_hits");
  const double probes = hits + delta("cache_misses");
  const double sweeps = delta("sweeps_computed");
  report_.push_back(
      {"batch.size_p50", stat(after, "batch_size_p50"), "requests", n});
  report_.push_back(
      {"batch.size_p95", stat(after, "batch_size_p95"), "requests", n});
  report_.push_back({"batch.bypass_frac",
                     delta("batch_bypass") / delta("requests"), "ratio", n});
  report_.push_back({"registry.loads", delta("models_loaded"), "count", n});
  report_.push_back({"cache.hit_ratio", probes > 0 ? hits / probes : 0.0,
                     "ratio", static_cast<std::size_t>(probes)});
  report_.push_back({"cache.evictions", delta("cache_evictions"), "count", n});
  report_.push_back({"cache.coalesced", delta("coalesced"), "count", n});
  report_.push_back({"advisor.sweeps", sweeps, "count", n});
  report_.push_back({"advisor.resweep_ratio",
                     sweeps / static_cast<double>(keys.size()), "ratio",
                     keys.size()});
  report_.push_back({"daemon.cpu_ms_per_kreq",
                     cpu_ms / (static_cast<double>(n) / 1e3), "ms", n});
}

/// Source T: lo and hi against an in-process server with stamped
/// boundaries, plus the serial replays (source R).
void Ledger::traced_run(const std::string& served_dir) {
  const fs::path traced = dir_ / "traced";
  const fs::path replay = dir_ / "replay";
  for (const fs::path& d : {traced, replay}) {
    fs::create_directories(d);
    for (const char* f : {"aurora-gb.model", "frontier-gb.model"}) {
      fs::copy_file(fs::path(served_dir) / f, d / f);
    }
  }
  const std::uint64_t prefill_id = classes_.size();
  const std::vector<std::string> warmup = prefill_lines();
  // Half the untraced phase lengths: the spans need samples, not time.
  const double lo_len = shape_.lo_s / 2;
  const double hi_len = shape_.hi_s / 2;
  std::uint64_t lo_id = 0;
  std::uint64_t hi_id = 0;
  const Schedule lo_s =
      build_schedule(spec_.lo_rps * shape_.rate_scale, lo_len, &lo_id);
  const Schedule hi_s =
      build_schedule(spec_.hi_rps * shape_.rate_scale, hi_len, &hi_id);
  const std::uint64_t end_id = classes_.size();

  PhaseResult lo_r;
  PhaseResult hi_r;
  PhaseSummary hi;
  std::vector<std::int64_t> dispatched(end_id - lo_id);
  std::vector<std::int64_t> completed(end_id - lo_id);
  {
    TracedServer server(traced.string(), spec_.churn, opt_.smoke, end_id);
    prefill(server.port(), warmup, prefill_id);
    start_republishing(traced.string());
    tally(run_schedule(server.port(), lo_s, lo_id, lo_len, &lo_r));
    hi = run_schedule(server.port(), hi_s, hi_id, hi_len, &hi_r);
    tally(hi);
    publisher_.reset();
    for (std::uint64_t id = lo_id; id < end_id; ++id) {
      dispatched[id - lo_id] = server.dispatched_ns(id);
      completed[id - lo_id] = server.completed_ns(id);
    }
  }

  // Spans of each answered request; they must tile its latency exactly:
  // generator lag + ingress + server + egress == receive - intended.
  struct Spans {
    std::int64_t intended, sent, dispatch, done, recv;
  };
  std::vector<std::pair<std::uint64_t, Spans>> spans;
  std::size_t unreconciled = 0;
  for (const auto& [phase, first] :
       {std::pair{&lo_r, lo_id}, std::pair{&hi_r, hi_id}}) {
    for (std::size_t i = 0; i < phase->outcomes.size(); ++i) {
      const Outcome& o = phase->outcomes[i];
      if (o.verdict != Verdict::kOk) continue;
      const std::uint64_t id = first + i;
      const Spans s{o.intended_ns, o.sent_ns, dispatched[id - lo_id],
                    completed[id - lo_id], o.recv_ns};
      const bool ordered = s.dispatch != 0 && s.done != 0 &&
                           s.intended <= s.sent && s.sent <= s.dispatch &&
                           s.dispatch <= s.done && s.done <= s.recv;
      const std::int64_t tiled = (s.sent - s.intended) +
                                 (s.dispatch - s.sent) +
                                 (s.done - s.dispatch) + (s.recv - s.done);
      if (!ordered || tiled != s.recv - s.intended) ++unreconciled;
      spans.emplace_back(id, s);
    }
  }
  if (unreconciled > 0) {
    correct_ = false;
    std::fprintf(stderr,
                 "trace: %zu requests whose spans do not tile their latency\n",
                 unreconciled);
  }

  std::vector<double> ingress, egress, server;
  std::map<std::string, std::vector<double>> handler;
  for (const auto& [id, s] : spans) {
    if (id < hi_id) continue;
    ingress.push_back(static_cast<double>(s.dispatch - s.sent) / 1e3);
    egress.push_back(static_cast<double>(s.recv - s.done) / 1e3);
    server.push_back(static_cast<double>(s.done - s.dispatch) / 1e3);
    handler[serve::op_name(op_of(classes_[id]))].push_back(
        static_cast<double>(s.done - s.dispatch) / 1e6);
  }
  const auto add_p50_p99 = [this](const std::string& name,
                                  std::vector<double> v, const char* unit) {
    const std::size_t n = v.size();
    report_.push_back({name + ".p50", quantile(v, 0.50), unit, n});
    report_.push_back({name + ".p99", quantile(v, 0.99), unit, n});
  };
  add_p50_p99("loop.ingress_us", ingress, "us");
  add_p50_p99("loop.egress_us", egress, "us");
  add_p50_p99("server.span_us", server, "us");
  for (const char* verb : {"stq", "bq", "budget"}) {
    add_p50_p99(std::string("server.handler_ms.") + verb, handler[verb], "ms");
  }
  std::vector<double> hi_lat = hi.latency_ms;
  const std::size_t n = hi_lat.size();
  report_.push_back({"trace.p50_ms.hi", quantile(hi_lat, 0.50), "ms", n});
  report_.push_back({"trace.p99_ms.hi",
                     windowed_quantile(hi.window_latency_ms, 0.99), "ms", n});

  // Kept in memory, written once: every k-th request, at most 20k of them.
  const std::size_t every = spans.size() / 20000 + 1;
  std::FILE* f = std::fopen(("TRACE_" + spec_.name + ".jsonl").c_str(), "w");
  CCPRED_CHECK_MSG(f != nullptr, "cannot write the trace file");
  for (std::size_t i = 0; i < spans.size(); i += every) {
    const auto& [id, s] = spans[i];
    const std::string verb = serve::op_name(op_of(classes_[id]));
    const struct {
      int span;
      int parent;
      std::string name;
      std::int64_t start, end;
    } rows[] = {{1, 0, "request." + verb, s.intended, s.recv},
                {2, 1, "gen.lag", s.intended, s.sent},
                {3, 1, "loop.ingress", s.sent, s.dispatch},
                {4, 1, "server." + verb, s.dispatch, s.done},
                {5, 1, "loop.egress", s.done, s.recv}};
    for (const auto& row : rows) {
      std::fprintf(f,
                   "{\"trace\":%llu,\"span\":%d,\"parent\":%d,\"name\":\"%s\","
                   "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   static_cast<unsigned long long>(id), row.span, row.parent,
                   row.name.c_str(),
                   static_cast<long long>(row.start - time_zero_),
                   static_cast<long long>(row.end - time_zero_));
    }
  }
  std::fclose(f);

  ReplayInput in;
  in.traffic = &traffic_;
  in.reference = reference_.get();
  const std::size_t replayed =
      std::min<std::size_t>(opt_.smoke ? 200 : 2000, end_id - lo_id);
  in.classes.assign(classes_.begin() + static_cast<std::ptrdiff_t>(lo_id),
                    classes_.begin() +
                        static_cast<std::ptrdiff_t>(lo_id + replayed));
  std::vector<std::uint32_t> keys;
  for (const std::uint32_t cls : in.classes) keys.push_back(cls / kSlots);
  reference_->prepare(traffic_, keys);
  in.artifact_dir = replay.string();
  in.scratch_dir = dir_.string();
  in.smoke = opt_.smoke;
  replay_layers(in, &report_);
}

int Ledger::run() {
  // 1. Set-up, timed: daemon launch on an empty directory.
  std::vector<double> setup_s;
  std::unique_ptr<Daemon> daemon;
  std::string served;
  for (int i = 0; i < shape_.setups; ++i) {
    served = (dir_ / ("served-" + std::to_string(i))).string();
    const bool last = i + 1 == shape_.setups;
    setup_s.push_back(time_setup(served, last ? &daemon : nullptr));
  }

  // 2. Reference answers; cold checks a seeded sample of >= 1,000 of
  // the fixed-rate answers.
  prepare_answers(served);
  const double lo_rate = spec_.lo_rps * shape_.rate_scale;
  const double hi_rate = spec_.hi_rps * shape_.rate_scale;
  if (spec_.cold) {
    const double planned = lo_rate * shape_.lo_s + hi_rate * shape_.hi_s;
    sample_rate_ = std::min(1.0, 1200.0 / planned);
  }

  // 3. Prefill, untimed.
  const std::uint64_t prefill_id = classes_.size();
  prefill(daemon->port(), prefill_lines(), prefill_id);
  start_republishing(served);

  // 4. The fixed-rate phases, between two reads of the daemon's counters.
  const Stats before = query_stats(daemon->port());
  const double cpu_before = daemon->cpu_ms();
  const std::uint64_t lo_id = classes_.size();
  PhaseSummary lo;
  PhaseSummary hi;
  for (int round = 0; round < kRounds; ++round) {
    std::uint64_t first = 0;
    const double lo_part = shape_.lo_s / kRounds;
    const double hi_part = shape_.hi_s / kRounds;
    const Schedule lo_s = build_schedule(lo_rate, lo_part, &first);
    lo.merge(run_schedule(daemon->port(), lo_s, first, lo_part));
    const Schedule hi_s = build_schedule(hi_rate, hi_part, &first);
    hi.merge(run_schedule(daemon->port(), hi_s, first, hi_part));
  }
  const std::uint64_t hi_end = classes_.size();
  const double cpu_ms = daemon->cpu_ms() - cpu_before;
  const Stats after = query_stats(daemon->port());
  tally(lo);
  tally(hi);
  sample_rate_ = 0.0;  // later answers (ladder, traced run) are not sampled

  // 5. The rate ladder (traced runs only; README.md says why).
  std::size_t steps = 0;
  const double max_rps = opt_.trace ? ladder(daemon->port(), &steps) : 0.0;

  // 6. Shutdown: stdin EOF.
  publisher_.reset();
  const double rss_mib = daemon->peak_rss_mib();
  const int daemon_exit = daemon->stop();
  CCPRED_CHECK_MSG(daemon_exit == 0,
                   "ccpred_serverd exited with " << daemon_exit);
  verify_samples();

  std::vector<std::vector<double>> lag_windows = lo.window_lag_ms;
  lag_windows.insert(lag_windows.end(), hi.window_lag_ms.begin(),
                     hi.window_lag_ms.end());
  lag_p99_ms_ = windowed_quantile(lag_windows, 0.99);

  if (!opt_.trace) {
    std::vector<double> setups = setup_s;
    report_.push_back({"setup_s", median(setups), "s", setup_s.size()});
    report_.push_back({"rss_mb",
                       *std::max_element(setup_rss_mib_.begin(),
                                         setup_rss_mib_.end()),
                       "MiB", setup_rss_mib_.size()});
  } else {
    std::vector<double> lo_lat = lo.latency_ms;
    std::vector<double> hi_lat = hi.latency_ms;
    const std::size_t lags = lo.lag_ms.size() + hi.lag_ms.size();
    report_.push_back(
        {"p50_ms.lo", quantile(lo_lat, 0.50), "ms", lo_lat.size()});
    report_.push_back(
        {"p50_ms.hi", quantile(hi_lat, 0.50), "ms", hi_lat.size()});
    report_.push_back({"p99_ms.hi",
                       windowed_quantile(hi.window_latency_ms, 0.99), "ms",
                       hi_lat.size()});
    report_.push_back({"max_rps_at_slo", max_rps, "req/s", steps});
    report_.push_back({"gen.lag_ms.p99", lag_p99_ms_, "ms", lags});
    add_daemon_layers(before, after, cpu_ms, lo_id, hi_end, lo, hi);
    report_.push_back({"daemon.peak_rss_mb", rss_mib, "MiB", 1});
    traced_run(served);
  }
  failed_ += wrong_;
  correct_ = correct_ && first_mismatch_.empty();
  // Latencies are only valid while the generator keeps its schedule. A
  // late generator voids the latency metrics (per-layer), not set-up time
  // or memory, so it is flagged in BENCH_ledger.json and on stderr but
  // does not fail the run.
  const bool finite = print_result(lag_p99_ms_ <= 0.1 * spec_.slo_ms);
  return correct_ && finite ? 0 : 1;
}

bool Ledger::print_result(bool valid) {
  if (!first_mismatch_.empty()) {
    std::fprintf(stderr, "wrong answer:\n%s\n", first_mismatch_.c_str());
  }
  std::fprintf(stderr,
               "generator lag p99 %.3f ms (limit: 10%% of the %g ms SLO)%s\n",
               lag_p99_ms_, spec_.slo_ms,
               valid ? "" : ": latencies of this run are void");
  const double lo = spec_.lo_rps * shape_.rate_scale;
  const double hi = spec_.hi_rps * shape_.rate_scale;
  std::printf(
      "ccpred_ledger %s seed=%llu seconds=%g trace=%d%s: lo %g req/s, "
      "hi %g req/s, SLO p99 <= %g ms\n",
      spec_.name.c_str(), static_cast<unsigned long long>(opt_.seed),
      opt_.seconds, opt_.trace ? 1 : 0, opt_.smoke ? " smoke" : "", lo, hi,
      spec_.slo_ms);
  for (const Metric& m : report_) {
    std::printf("  %-30s %16.6f %-9s n=%zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  std::printf("  attempted %zu, failed %zu, correct %s\n", attempted_,
              failed_, correct_ ? "yes" : "NO");

  bool finite = true;
  std::string metrics;
  std::string bench;
  for (const Metric& m : report_) {
    finite = finite && std::isfinite(m.value);
    const std::string value =
        std::isfinite(m.value) ? json_number(m.value) : "null";
    const std::string body =
        "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" + m.unit;
    metrics += (metrics.empty() ? "" : ", ") + body + "\"}";
    bench += (bench.empty() ? "    " : ",\n    ") + body +
             "\", \"samples\": " + std::to_string(m.samples) + "}";
  }
  if (!finite) std::fprintf(stderr, "a metric is not a finite number\n");
  const std::string head =
      "\"correct\": " + std::string(correct_ ? "true" : "false") +
      ", \"attempted\": " + std::to_string(attempted_) +
      ", \"failed\": " + std::to_string(failed_);
  if (std::FILE* f = std::fopen("BENCH_ledger.json", "w")) {
    std::fprintf(
        f,
        "{\n  \"bench\": \"ledger\",\n  \"workload\": \"%s\",\n"
        "  \"seed\": %llu,\n  \"seconds\": %g,\n  \"trace\": %d,\n"
        "  \"smoke\": %s,\n  \"lo_rps\": %g,\n  \"hi_rps\": %g,\n"
        "  \"slo_ms\": %g,\n  \"valid\": %s,\n  %s,\n"
        "  \"provenance\": %s,\n  \"metrics\": {\n%s\n  }\n}\n",
        spec_.name.c_str(), static_cast<unsigned long long>(opt_.seed),
        opt_.seconds, opt_.trace ? 1 : 0, opt_.smoke ? "true" : "false", lo,
        hi, spec_.slo_ms, valid ? "true" : "false", head.c_str(),
        bench::provenance_json().c_str(), bench.c_str());
    std::fclose(f);
  }
  std::printf("{%s, \"metrics\": {%s}}\n", head.c_str(), metrics.c_str());
  std::fflush(stdout);
  return finite;
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  try {
    const Options opt = parse_options(argc, argv);
    Ledger ledger(opt, workload(opt.workload));
    return ledger.run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ccpred_ledger: %s\n", e.what());
    return 1;
  }
}
