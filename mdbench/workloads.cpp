#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <utility>

#include "bench.hpp"
#include "io/thermo_log.hpp"
#include "scenario/deck.hpp"
#include "util/error.hpp"

namespace mdbench {

namespace sc = wsmd::scenario;
using wsmd::engine::Engine;
using wsmd::engine::Thermo;

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double self_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

double child_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_CHILDREN, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// --- Workloads --------------------------------------------------------------
//
// slab_wafer: the paper's own problem and algorithm (Cu thin slab, 1/16 of
//   the 801,792-atom Table I slab) on the threaded wafer backend. The core
//   phases do nearly all the work; md, dist and obs are idle.
// bulk_reference: periodic W bulk with vacancies on the FP64 reference
//   (two force threads). md does the work; core is bypassed, so every
//   wafer-core change predicts no change here. A thick periodic bulk maps
//   badly onto the 2-D core grid, so it never runs on a wafer backend.
// gb_ranks_observed: Ta tilt bicrystal on two rank processes with online
//   swaps, probes, a trajectory and checkpoints. The only workload that
//   loads dist, obs, io and the runner; swaps and probes fire on every
//   fifth step so step_ms_p90 lands inside that population, while xyz and
//   checkpoint steps stay below a tenth of the steps and show in run_s.

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  const std::string head = "name = " + name + "\nseed = " +
                           std::to_string(seed) +
                           "\ndt = 0.002\nthermo = " + name +
                           ".thermo.csv\nthermo_every = 1\n";
  if (name == "slab_wafer") {
    w.deck_text = head +
                  "element = Cu\ngeometry = slab\nscale = 4\n"
                  "backend = sharded:2\n"
                  "thermalize = 290\nequilibrate = 290 5\nrun = 25\n";
  } else if (name == "bulk_reference") {
    w.deck_text = head +
                  "element = W\ngeometry = bulk\nreplicate = 30 30 30\n"
                  "vacancy_fraction = 0.01\nbackend = reference:2\n"
                  "thermalize = 300\nrun = 40\nquench = 150 20\n";
  } else if (name == "gb_ranks_observed") {
    w.deck_text = head +
                  "element = Ta\ngeometry = grain_boundary\n"
                  "tilt_angle_deg = 16\ngb_atoms = 12000\n"
                  "backend = ranks:2\nswap_interval = 5\n"
                  "thermalize = 290\nequilibrate = 290 10\nrun = 50\n"
                  "observe.probes = rdf msd defects\nobserve.every = 5\n"
                  "xyz = gb_ranks_observed.xyz\nxyz_every = 20\n"
                  "checkpoint.every = 25\n";
  } else {
    WSMD_REQUIRE(false, "unknown workload '" << name << "'");
  }
  return w;
}

sc::Scenario parse_workload(const Workload& w) {
  return sc::scenario_from_deck(
      sc::parse_deck_string(w.deck_text, "<mdbench:" + w.name + ">"));
}

// --- Engine decorator --------------------------------------------------------

WatchedEngine::WatchedEngine(std::unique_ptr<Engine> inner,
                             std::shared_ptr<EngineLog> log)
    : inner_(std::move(inner)), log_(std::move(log)) {
  log_->atoms_at_construction = inner_->atom_count();
}

WatchedEngine::~WatchedEngine() {
  // The runner destroys its engine at the end of run_scenario: the end
  // state is read here, once, while the backend is still alive.
  try {
    log_->atoms_at_end = inner_->atom_count();
    const auto r = inner_->positions();
    log_->final_positions_finite =
        r.size() == log_->atoms_at_end &&
        std::all_of(r.begin(), r.end(), [](const wsmd::Vec3d& p) {
          return std::isfinite(p.x) && std::isfinite(p.y) && std::isfinite(p.z);
        });
  } catch (const std::exception& ex) {
    log_->end_error = ex.what();
  }
}

template <typename F>
auto WatchedEngine::timed_call(bool starts_loop, F&& f) const {
  if (!log_->timed) return f();
  if (starts_loop) log_->loop_started = true;
  const auto t0 = Clock::now();
  struct Charge {
    EngineLog& log;
    Clock::time_point t0;
    ~Charge() {
      if (log.loop_started) log.in_engine_s += seconds_since(t0);
    }
  } charge{*log_, t0};
  return f();
}

std::vector<wsmd::Vec3d> WatchedEngine::positions() const {
  return timed_call(false, [&] { return inner_->positions(); });
}
std::vector<wsmd::Vec3d> WatchedEngine::velocities() const {
  return timed_call(false, [&] { return inner_->velocities(); });
}
void WatchedEngine::set_velocities(const std::vector<wsmd::Vec3d>& v) {
  timed_call(false, [&] { inner_->set_velocities(v); });
}
void WatchedEngine::set_positions(const std::vector<wsmd::Vec3d>& r) {
  timed_call(false, [&] { inner_->set_positions(r); });
}
wsmd::engine::State WatchedEngine::snapshot() const {
  return timed_call(false, [&] { return inner_->snapshot(); });
}
void WatchedEngine::restore(const wsmd::engine::State& state) {
  timed_call(false, [&] { inner_->restore(state); });
}
void WatchedEngine::thermalize(double temperature_K, wsmd::Rng& rng) {
  timed_call(true, [&] { inner_->thermalize(temperature_K, rng); });
}
Thermo WatchedEngine::thermo() const {
  return timed_call(false, [&] { return inner_->thermo(); });
}

Thermo WatchedEngine::step() {
  const auto t0 = Clock::now();
  const Thermo t = timed_call(true, [&] { return inner_->step(); });
  if (log_->timed) log_->step_s.push_back(seconds_since(t0));
  if (!std::isfinite(t.total_energy) || !std::isfinite(t.potential_energy) ||
      !std::isfinite(t.kinetic_energy) || !std::isfinite(t.temperature)) {
    ++log_->nonfinite_steps;
  }
  return t;
}

// --- One run_scenario call ---------------------------------------------------

namespace {

struct ProgressEvent {
  Clock::time_point at;
  double wall_seconds = 0.0;
};

// Relative band for the NVE stage's total energy. The FP64 reference
// conserves it to ~4e-6 here, the FP32 wafer backends to ~2e-5; an
// integrator that gains 1% of one velocity component per step drifts by
// ~1e-3.
constexpr double kNveBand = 1e-4;

// Gate the thermo log: one finite row per step, and the NVE stage's total
// energy within kNveBand. Returns the failed steps.
long check_thermo(const sc::Scenario& s, const std::string& path,
                  std::vector<std::string>& problems, double& drift) {
  const long total = s.total_steps();
  std::map<long, wsmd::io::ThermoSample> rows;
  try {
    for (const auto& r : wsmd::io::read_thermo_csv_file(path)) rows[r.step] = r;
  } catch (const std::exception& ex) {
    problems.push_back(std::string("thermo log unreadable: ") + ex.what());
    return total;
  }
  long missing = 0;
  for (long k = 1; k <= total; ++k) {
    const auto it = rows.find(k);
    if (it == rows.end() || !std::isfinite(it->second.total_energy) ||
        !std::isfinite(it->second.temperature)) {
      ++missing;
    }
  }
  if (missing > 0) {
    problems.push_back(std::to_string(missing) +
                       " step(s) without a finite thermo row");
  }
  // The wafer backends report the kinetic energy of the half-step
  // velocities v(t + dt/2) (engine.hpp); averaging two consecutive rows
  // gives the kinetic energy at t.
  const bool half_step = sc::parse_backend(s.backend).is_wafer();
  const auto energy = [&](long k) {
    const auto it = rows.find(k);
    const auto prev = rows.find(k - 1);
    if (it == rows.end() || (half_step && prev == rows.end())) {
      return std::nan("");
    }
    const double ke = half_step ? 0.5 * (it->second.kinetic_energy +
                                         prev->second.kinetic_energy)
                                : it->second.kinetic_energy;
    return it->second.potential_energy + ke;
  };
  long start = 0;
  for (const auto& st : s.schedule) {
    if (st.kind == sc::Stage::Kind::kRun) {
      const long first = start + (half_step ? 1 : 0);
      const double e0 = energy(first);
      double worst = 0.0;
      for (long k = first + 1; k <= start + st.steps; ++k) {
        worst = std::max(worst, std::fabs(energy(k) - e0) / std::fabs(e0));
      }
      if (!(worst <= kNveBand)) {
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "NVE total energy drift %.3g exceeds the %.3g band",
                      worst, kNveBand);
        problems.push_back(buf);
        drift = std::max(drift, worst);
        return total;
      }
      drift = std::max(drift, worst);
    }
    start += st.steps;
  }
  return missing;
}

}  // namespace

CallResult run_call(const Workload& w, const std::string& out_dir,
                    const CallOptions& opt) {
  CallResult cr;
  const sc::Scenario s = parse_workload(w);
  cr.steps = s.total_steps();
  cr.log = std::make_shared<EngineLog>();
  cr.log->timed = opt.timed;

  std::vector<ProgressEvent> events;
  sc::RunOptions ro;
  ro.output_dir = out_dir;
  ro.collect_telemetry = opt.telemetry;
  ro.progress_interval_s = 0.0;  // one event per step
  ro.progress = [&events](const sc::ProgressInfo& p) {
    if (!p.final) events.push_back({Clock::now(), p.wall_seconds});
  };
  auto log = cr.log;
  ro.engine_factory = [log, &out_dir](const sc::Scenario& scn,
                                      const wsmd::lattice::Structure& st) {
    return std::make_unique<WatchedEngine>(
        sc::build_engine(scn, st, "", out_dir), log);
  };

  const auto t0 = Clock::now();
  try {
    cr.result = sc::run_scenario(s, ro);
  } catch (const std::exception& ex) {
    cr.run_s = seconds_since(t0);
    cr.failed_steps = cr.steps;
    cr.problems.push_back(std::string("run_scenario threw: ") + ex.what());
    return cr;
  }
  cr.run_s = seconds_since(t0);
  cr.loop_s = cr.result.wall_seconds;
  if (!events.empty()) {
    // A progress event's wall_seconds counts from the step-loop start.
    const double first_at =
        std::chrono::duration<double>(events.front().at - t0).count();
    cr.setup_s = first_at - events.front().wall_seconds;
    for (std::size_t k = 1; k < events.size(); ++k) {
      cr.step_s.push_back(events[k].wall_seconds - events[k - 1].wall_seconds);
    }
  }

  const long failed =
      std::max(cr.log->nonfinite_steps,
               check_thermo(s, cr.result.thermo_path, cr.problems, cr.nve_drift));
  const std::size_t row_problems = cr.problems.size();
  const auto& lg = *cr.log;
  if (static_cast<long>(events.size()) != cr.steps) {
    cr.problems.push_back("progress reported " + std::to_string(events.size()) +
                          " of " + std::to_string(cr.steps) + " steps");
  }
  if (lg.atoms_at_construction != cr.result.structure.atoms ||
      lg.atoms_at_end != cr.result.structure.atoms) {
    cr.problems.push_back("atom count changed");
  }
  if (!lg.end_error.empty() || !lg.final_positions_finite) {
    cr.problems.push_back("final positions unreadable or non-finite " +
                          lg.end_error);
  }
  if (cr.result.health_events > 0 || cr.result.probe_output_failures > 0) {
    cr.problems.push_back("health events or probe output failures");
  }
  // A failed end-state check fails every step of the call.
  cr.failed_steps = cr.problems.size() > row_problems ? cr.steps : failed;
  cr.ok = cr.problems.empty();
  return cr;
}

// --- End-to-end run ---------------------------------------------------------

double steps_per_s(const CallResult& c) {
  double t = 0.0;
  for (const double s : c.step_s) t += s;
  return t > 0.0 ? static_cast<double>(c.step_s.size()) / t : 0.0;
}

// The host's speed swings by up to ~1.7x for seconds to minutes at a time
// (other tenants on the same physical cores), so the rate is pooled over
// every timed step of the run: timed steps / their summed wall time, the
// average over as much of the host's state as the run sees. Call times are
// medians over calls; the step-time percentiles pool every timed step. The
// first call warms the allocator and caches: it is checked but not timed,
// and it counts toward `seconds`.
Outcome run_end_to_end(const Workload& w, double seconds,
                       const std::string& out_dir) {
  Outcome out;
  std::vector<double> step_ms, setup_s, run_s;
  double steps_timed = 0.0, step_wall_s = 0.0;
  double drift = 0.0;
  int calls = 0;
  const auto t0 = Clock::now();
  while (calls < 4 || seconds_since(t0) < seconds) {
    CallResult cr = run_call(w, out_dir, CallOptions{});
    const bool warm_up = calls++ == 0;
    out.attempted += cr.steps;
    out.failed += cr.failed_steps;
    drift = std::max(drift, cr.nve_drift);
    for (const auto& p : cr.problems) out.problems.push_back(w.name + ": " + p);
    if (!cr.ok) {
      out.correct = false;
      continue;
    }
    if (warm_up) continue;
    for (const double s : cr.step_s) {
      step_ms.push_back(s * 1e3);
      step_wall_s += s;
    }
    steps_timed += static_cast<double>(cr.step_s.size());
    setup_s.push_back(cr.setup_s);
    run_s.push_back(cr.run_s);
  }
  std::printf("check  NVE total-energy drift, worst of %d call(s): %.3g "
              "(band %.3g)\n", calls, drift, kNveBand);

  const double dt_ps = parse_workload(w).dt;
  const double sps = step_wall_s > 0.0 ? steps_timed / step_wall_s : 0.0;
  const std::size_t n = run_s.size();
  out.metrics = {
      {"steps_per_s", sps, "1/s", step_ms.size(),
       "timed steps / their wall time, all calls"},
      {"ns_per_day", sps * dt_ps * 1e-3 * 86400.0, "ns/day", step_ms.size(), ""},
      {"step_ms_p50", median(step_ms), "ms", step_ms.size(), "every timed step"},
      {"step_ms_p90", quantile(step_ms, 0.9), "ms", step_ms.size(), "every timed step"},
      {"run_s", median(run_s), "s", n, "whole run_scenario call"},
      {"setup_s", median(setup_s), "s", n, "call -> step loop"},
      {"peak_rss_mb", std::max(self_peak_rss_mb(), child_peak_rss_mb()), "MB",
       1, "max of this process and its largest rank process"},
  };
  return out;
}

// --- Backend sweep ----------------------------------------------------------

int run_sweep(const std::string& out_dir) {
  // The ROADMAP starting table: cu_slab.deck at scale = 8 (12,672 atoms,
  // 50 steps) on every backend spelling, one run each. Informational.
  const std::vector<std::string> backends = {
      "reference", "reference:4", "wafer",   "sharded:2",
      "sharded:4", "ranks:2",     "ranks:4", "ranks:2x2"};
  const std::string deck =
      "name = cu_slab\nelement = Cu\ngeometry = slab\nscale = 8\n"
      "dt = 0.002\nseed = 2024\nthermalize = 290\nequilibrate = 290 20\n"
      "run = 30\nthermo = cu_slab.thermo.csv\nthermo_every = 1\n";
  std::printf("%-12s %10s %8s\n", "backend", "steps_per_s", "atoms");
  int rc = 0;
  for (const auto& b : backends) {
    try {
      const auto s = sc::scenario_from_deck(sc::parse_deck_string(deck));
      sc::RunOptions ro;
      ro.output_dir = out_dir;
      ro.backend_override = b;
      const auto r = sc::run_scenario(s, ro);
      std::printf("%-12s %10.2f %8zu\n", b.c_str(),
                  static_cast<double>(r.total_steps) / r.wall_seconds,
                  r.structure.atoms);
    } catch (const std::exception& ex) {
      std::printf("%-12s failed: %s\n", b.c_str(), ex.what());
      rc = 1;
    }
    std::fflush(stdout);
  }
  return rc;
}

}  // namespace mdbench
