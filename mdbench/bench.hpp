#pragma once

/// \file bench.hpp
/// Host MD benchmark: shared pieces of the end-to-end runs (workloads.cpp)
/// and the traced per-layer run (traced.cpp).
///
/// Every workload is a closed loop: one process calls
/// `scenario::run_scenario` on generated deck text, each step starts only
/// after the previous one returns, and no workload uses more than two
/// worker threads or two rank processes.

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"

namespace mdbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear-interpolated quantile (q in [0, 1]); NaN for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Peak resident set of this process and of its largest reaped child
/// (rank processes), in MiB.
double self_peak_rss_mb();
double child_peak_rss_mb();

/// One named workload: its deck text for a seed, and the facts the
/// correctness gate and the traced run need about it.
struct Workload {
  std::string name;
  std::string deck_text;
  int threads = 2;  ///< worker threads or rank processes it uses
};

/// The named workload's deck for `seed`; throws wsmd::Error on an unknown
/// name.
Workload make_workload(const std::string& name, std::uint64_t seed);

wsmd::scenario::Scenario parse_workload(const Workload& w);

/// What the Engine decorator observed during one run_scenario call.
/// Failure checks run on every call; the timing fields fill only when
/// `timed` is set (the traced run).
struct EngineLog {
  bool timed = false;
  long nonfinite_steps = 0;
  std::size_t atoms_at_construction = 0;
  std::size_t atoms_at_end = 0;
  bool final_positions_finite = false;
  std::string end_error;  ///< final-state read failed (message)
  // Timing (traced run only).
  bool loop_started = false;     ///< first thermalize/step seen
  double in_engine_s = 0.0;      ///< engine-call seconds since loop start
  std::vector<double> step_s;    ///< every Engine::step
};

/// Forwarding Engine decorator passed in as RunOptions::engine_factory:
/// checks every step's thermo row and the end state, and (when the log is
/// `timed`) times every call from outside the engine.
class WatchedEngine final : public wsmd::engine::Engine {
 public:
  WatchedEngine(std::unique_ptr<wsmd::engine::Engine> inner,
                std::shared_ptr<EngineLog> log);
  ~WatchedEngine() override;
  WatchedEngine(const WatchedEngine&) = delete;
  WatchedEngine& operator=(const WatchedEngine&) = delete;

  const char* backend_name() const override { return inner_->backend_name(); }
  wsmd::engine::ModeledPhaseCost modeled_phase_cost() const override {
    return inner_->modeled_phase_cost();
  }
  std::vector<wsmd::engine::ShardLoad> shard_load() const override {
    return inner_->shard_load();
  }
  std::size_t atom_count() const override { return inner_->atom_count(); }
  long step_count() const override { return inner_->step_count(); }
  std::vector<wsmd::Vec3d> positions() const override;
  std::vector<wsmd::Vec3d> velocities() const override;
  void set_velocities(const std::vector<wsmd::Vec3d>& v) override;
  void set_positions(const std::vector<wsmd::Vec3d>& r) override;
  wsmd::engine::State snapshot() const override;
  void restore(const wsmd::engine::State& state) override;
  void thermalize(double temperature_K, wsmd::Rng& rng) override;
  wsmd::engine::Thermo step() override;
  wsmd::engine::Thermo thermo() const override;

 private:
  template <typename F>
  auto timed_call(bool starts_loop, F&& f) const;

  std::unique_ptr<wsmd::engine::Engine> inner_;
  std::shared_ptr<EngineLog> log_;
};

/// One run_scenario call of a workload, measured from outside.
struct CallResult {
  bool ok = false;
  std::vector<std::string> problems;
  long steps = 0;          ///< steps the schedule attempted
  long failed_steps = 0;
  double run_s = 0.0;      ///< the whole run_scenario call
  double setup_s = 0.0;    ///< call -> step loop start
  double loop_s = 0.0;     ///< ScenarioResult::wall_seconds
  double nve_drift = 0.0;  ///< worst relative NVE total-energy drift
  std::vector<double> step_s;  ///< per-step wall time, first step dropped
  std::shared_ptr<EngineLog> log;
  wsmd::scenario::ScenarioResult result;
};

struct CallOptions {
  bool timed = false;        ///< time every Engine call (traced run)
  bool telemetry = false;    ///< RunOptions::collect_telemetry
};

/// Run the workload once through run_scenario, writing its outputs under
/// `out_dir`, and apply the correctness gate: every thermo row present
/// and finite, the atom count unchanged, final positions finite, no
/// health event, and NVE total energy within a relative band.
CallResult run_call(const Workload& w, const std::string& out_dir,
                    const CallOptions& opt);

/// Timed steps of the call divided by their wall time.
double steps_per_s(const CallResult& c);

/// A metric as printed in the result line and the human table.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  ///< values the figure is the median of
  std::string note;
};

struct Outcome {
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;
};

/// End-to-end run: repeat run_call until `seconds` have passed (a warm-up
/// call, then at least three timed calls, so set-up time is a median) and
/// summarise.
Outcome run_end_to_end(const Workload& w, double seconds,
                       const std::string& out_dir);

/// Traced run: the per-layer metrics (traced.cpp).
Outcome run_traced(const Workload& w, const std::string& out_dir);

/// One-shot backend sweep over the ROADMAP starting table.
int run_sweep(const std::string& out_dir);

}  // namespace mdbench
