/// Traced run: per-layer metrics measured from outside the program.
///
/// Each layer is timed by calling its public functions directly on the
/// workload's own state (or, for `core` and `dist` on bulk_reference, on a
/// 10x10x10 companion of the same deck: a thick bulk takes ~10 s to map
/// onto the core grid and ~5 s per wafer step, and the workload never
/// loads those layers). The run also proves that the outside timing
/// measures the program as the workload runs it: serially driven WseMd
/// phases and ranks:2 must match sharded:2 bitwise, and the program's own
/// telemetry spans must agree with the outside timings within kSpanBand.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>

#include "bench.hpp"
#include "core/wse_md.hpp"
#include "dist/domain.hpp"
#include "eam/profile.hpp"
#include "eam/zhou.hpp"
#include "engine/reference_engine.hpp"
#include "engine/wafer_engine.hpp"
#include "io/checkpoint.hpp"
#include "io/thermo_log.hpp"
#include "io/trajectory.hpp"
#include "md/neighbor.hpp"
#include "obs/factory.hpp"
#include "telemetry/telemetry.hpp"

namespace mdbench {

namespace {

namespace sc = wsmd::scenario;
using wsmd::engine::Engine;
using wsmd::engine::State;

/// Outside timing vs the program's span for the same work: the ratio
/// span / outside must lie in [1/kSpanBand, kSpanBand].
constexpr double kSpanBand = 3.0;
/// The per-layer times should account for the traced mean step time
/// within this fraction (reported, not gated: the layer times come from
/// separate calls on a shared host).
constexpr double kAccountBand = 0.5;

constexpr int kPhaseSteps = 10;  ///< serial / sharded / ranks steps
constexpr int kMdSteps = 20;     ///< reference steps (rebuild count)
constexpr int kReps = 3;         ///< repeats of a direct layer call

template <typename F>
std::vector<double> time_reps(int n, F&& f) {
  std::vector<double> s;
  for (int k = 0; k < n; ++k) {
    const auto t0 = Clock::now();
    f();
    s.push_back(seconds_since(t0));
  }
  return s;
}

double ms(double s) { return s * 1e3; }

bool bitwise_equal(const Engine& a, const Engine& b) {
  const auto eq = [](const std::vector<wsmd::Vec3d>& x,
                     const std::vector<wsmd::Vec3d>& y) {
    return x.size() == y.size() &&
           std::equal(x.begin(), x.end(), y.begin(),
                      [](const wsmd::Vec3d& p, const wsmd::Vec3d& q) {
                        return p.x == q.x && p.y == q.y && p.z == q.z;
                      });
  };
  return eq(a.positions(), b.positions()) &&
         eq(a.velocities(), b.velocities()) &&
         a.snapshot().core_atoms == b.snapshot().core_atoms;
}

double first_temperature(const sc::Scenario& s) {
  for (const auto& st : s.schedule) {
    if (st.kind == sc::Stage::Kind::kThermalize) return st.t0;
  }
  return 300.0;
}

struct Traced {
  Outcome out;
  std::map<std::string, double> v;  ///< metric values by name, for joins

  void add(const std::string& name, double value, const std::string& unit,
           std::size_t samples, const std::string& note = "") {
    out.metrics.push_back({name, value, unit, samples, note});
    v[name] = value;
  }
  void fold(const CallResult& c, const std::string& what) {
    out.attempted += c.steps;
    out.failed += c.failed_steps;
    for (const auto& p : c.problems) fail(what + ": " + p);
  }
  void fail(const std::string& problem) {
    out.correct = false;
    out.problems.push_back(problem);
  }
  void parity(bool same, const std::string& what) {
    std::printf("check  %-44s %s\n", what.c_str(), same ? "bitwise equal" : "DIFFERS");
    out.attempted += kPhaseSteps;
    if (!same) {
      out.failed += kPhaseSteps;
      fail(what + " is not bitwise equal");
    }
  }
  void span_check(const std::string& span, double span_ms,
                  const std::string& metric, double outside_ms) {
    const double ratio = span_ms / outside_ms;
    const bool ok = ratio >= 1.0 / kSpanBand && ratio <= kSpanBand;
    std::printf("check  span %-18s %10.4f ms vs %-24s %10.4f ms  ratio %.3f %s\n",
                span.c_str(), span_ms, metric.c_str(), outside_ms, ratio,
                ok ? "ok" : "OUTSIDE BAND");
    if (!ok) {
      char buf[200];
      std::snprintf(buf, sizeof buf,
                    "span %s / %s = %.3f outside [1/%.1f, %.1f]", span.c_str(),
                    metric.c_str(), ratio, kSpanBand, kSpanBand);
      fail(buf);
    }
  }
};

// Serially driven WseMd phases (begin/density/force/commit/swap/finish,
// exactly as WseMd::step sequences them) against sharded:2 and ranks:2
// from the same thermalized state.
void trace_core_and_dist(Traced& t, const Workload& w, const Workload& cw,
                         const std::string& dir, double* serial_step_ms,
                         double* threaded_step_ms) {
  const sc::Scenario s = parse_workload(cw);
  const auto st = sc::build_structure(s);
  auto serial = sc::build_engine(s, st, "wafer", dir);
  auto& wafer = dynamic_cast<wsmd::engine::WaferEngine&>(*serial).wafer();
  wsmd::Rng rng(s.seed);
  serial->thermalize(first_temperature(s), rng);
  const State state0 = serial->snapshot();

  const auto all = wafer.full_grid();
  wsmd::core::StepWorkspace ws;
  std::vector<double> density, force, commit, swap, step, cands, inter, swaps;
  for (int k = 0; k < kPhaseSteps; ++k) {
    const auto t_step = Clock::now();
    wafer.begin_step(ws);
    auto t0 = Clock::now();
    wafer.density_phase(all, ws);
    density.push_back(seconds_since(t0));
    t0 = Clock::now();
    wafer.force_phase(all, ws);
    force.push_back(seconds_since(t0));
    t0 = Clock::now();
    const bool swap_now = wafer.commit_step(ws);
    commit.push_back(seconds_since(t0));
    std::size_t applied = 0;
    if (swap_now) {
      t0 = Clock::now();
      wafer.swap_select(all, ws.partner);
      applied = wafer.swap_commit(ws.partner);
      swap.push_back(seconds_since(t0));
      swaps.push_back(static_cast<double>(applied));
    }
    const auto stats = wafer.finish_step(ws, applied, swap_now);
    step.push_back(seconds_since(t_step));
    cands.push_back(stats.mean_candidates);
    inter.push_back(stats.mean_interactions);
  }

  auto sharded = sc::build_engine(s, st, "sharded:2", dir);
  sharded->restore(state0);
  const auto sharded_s = time_reps(kPhaseSteps, [&] { sharded->step(); });
  t.parity(bitwise_equal(*serial, *sharded),
           "serial WseMd phases vs sharded:2 (" + cw.name + ")");

  auto ranks = sc::build_engine(s, st, "ranks:2", dir);
  ranks->restore(state0);
  const auto ranks_s = time_reps(kPhaseSteps, [&] { ranks->step(); });
  t.parity(bitwise_equal(*ranks, *sharded),
           "ranks:2 vs sharded:2 (" + cw.name + ")");
  const auto gather_s = time_reps(kReps, [&] {
    (void)ranks->positions();
    (void)ranks->velocities();
    (void)ranks->snapshot();
  });

  // Workloads without online swaps: time explicit swap rounds instead.
  if (swap.empty()) {
    for (int k = 0; k < kReps; ++k) {
      std::vector<int> partner(wafer.mapping().core_count(), -1);
      const auto t0 = Clock::now();
      wafer.swap_select(all, partner);
      swaps.push_back(static_cast<double>(wafer.swap_commit(partner)));
      swap.push_back(seconds_since(t0));
    }
  }

  // Halo payload per step on ranks:2, computed from the dist domain rows:
  // embedding derivatives (1 float) at radius b, then the post-commit
  // position+velocity state (6 floats) at radius b + 1, both directions.
  const auto& map = wafer.mapping();
  const auto strips = wsmd::dist::row_strips(map.grid_width(), map.grid_height(), 2);
  double halo_bytes = 0.0;
  for (const auto& [radius, per_atom] :
       {std::pair{wafer.b(), 4.0}, std::pair{wafer.b() + 1, 24.0}}) {
    for (const auto& [i, j] : wsmd::dist::halo_pairs(strips, radius)) {
      for (const auto& [owner, needer] : {std::pair{i, j}, std::pair{j, i}}) {
        const auto rows = wsmd::dist::halo_rows(strips, owner, needer, radius);
        halo_bytes += per_atom * static_cast<double>(
                         wsmd::dist::atoms_in_rows(map, rows.lo, rows.hi).size());
      }
    }
  }

  const std::string where = cw.name == w.name ? "" : "companion " + cw.name;
  const double atoms = static_cast<double>(wafer.atom_count());
  const double cand = median(cands), acc = median(inter);
  t.add("core.density_ms", ms(median(density)), "ms", density.size(), where);
  t.add("core.force_ms", ms(median(force)), "ms", force.size(), where);
  t.add("core.commit_ms", ms(median(commit)), "ms", commit.size(), where);
  t.add("core.swap_ms", ms(median(swap)), "ms", swap.size(),
        s.swap_interval > 0 ? where : "explicit swap rounds " + where);
  t.add("core.candidates_per_atom", cand, "count", cands.size(), where);
  t.add("core.interactions_per_atom", acc, "count", inter.size(), where);
  t.add("core.sieve_accept_ratio", acc / cand, "frac", inter.size(), where);
  t.add("core.swaps_per_swap_step", median(swaps), "count", swaps.size(), where);
  t.add("core.pairs_per_s", acc * atoms / (median(density) + median(force)),
        "1/s", density.size(), where);
  t.add("dist.step_overhead_ms", ms(median(ranks_s) - median(sharded_s)), "ms",
        ranks_s.size(), "ranks:2 - sharded:2 " + where);
  t.add("dist.gather_ms", ms(median(gather_s)), "ms", gather_s.size(), where);
  t.add("dist.halo_bytes_per_step", halo_bytes, "bytes", 0, "computed " + where);

  *serial_step_ms = ms(median(step));
  *threaded_step_ms =
      ms(median(parse_workload(w).backend.rfind("ranks", 0) == 0 ? ranks_s
                                                                 : sharded_s));
}

}  // namespace

Outcome run_traced(const Workload& w, const std::string& dir) {
  Traced t;
  const sc::Scenario s = parse_workload(w);
  const bool reference = s.backend.rfind("reference", 0) == 0;

  // --- Whole-workload calls: untraced, decorated, telemetry armed --------
  const CallResult u1 = run_call(w, dir, {});
  t.fold(u1, "untraced call");
  const CallResult d = run_call(w, dir, {.timed = true});
  t.fold(d, "traced call");
  const CallResult tel = run_call(w, dir, {.telemetry = true});
  t.fold(tel, "telemetry call");
  std::map<std::string, wsmd::telemetry::SpanStats> spans;
  for (const auto& sp : wsmd::telemetry::span_stats()) spans[sp.name] = sp;
  std::map<std::string, std::uint64_t> counters;
  for (const auto& [name, n] : wsmd::telemetry::counters()) counters[name] = n;
  const CallResult u2 = run_call(w, dir, {});
  t.fold(u2, "untraced call");
  const double sps_untraced = 0.5 * (steps_per_s(u1) + steps_per_s(u2));

  t.add("scenario.outside_engine_frac", 1.0 - d.log->in_engine_s / d.loop_s,
        "frac", 1, "step-loop wall time outside every Engine call");
  t.add("engine.step_ms", ms(median(d.log->step_s)), "ms", d.log->step_s.size());
  t.add("telemetry.armed_overhead_frac", 1.0 - steps_per_s(tel) / sps_untraced,
        "frac", 1, "1 - steps_per_s(collect_telemetry) / steps_per_s(off)");
  t.add("trace_overhead_frac", 1.0 - steps_per_s(d) / sps_untraced, "frac", 1,
        "1 - steps_per_s(traced) / steps_per_s(untraced)");

  // --- Set-up layers -------------------------------------------------------
  const auto st = sc::build_structure(s);
  t.add("lattice.build_s",
        median(time_reps(kReps, [&] { (void)sc::build_structure(s); })), "s",
        kReps);
  const wsmd::eam::ZhouEam pot(
      s.element, wsmd::eam::zhou_parameters(s.element).paper_cutoff());
  t.add("eam.profile_build_s", median(time_reps(kReps, [&] {
          if (reference) {
            (void)wsmd::eam::ProfileF64(pot);
          } else {
            (void)wsmd::eam::ProfileF32(pot);
          }
        })),
        "s", kReps, reference ? "FP64 profile" : "FP32 profile");
  std::vector<double> construct;
  for (int k = 0; k < kReps; ++k) {
    const auto t0 = Clock::now();
    auto e = sc::build_engine(s, st, "", dir);
    construct.push_back(seconds_since(t0));
  }
  t.add("engine.construct_s", median(construct), "s", construct.size(),
        s.backend);

  // --- core and dist -------------------------------------------------------
  Workload cw = w;
  if (reference) {
    cw.name = w.name + "_10x10x10";
    cw.deck_text += "replicate = 10 10 10\n";
  }
  double serial_ms = 0.0, threaded_ms = 0.0;
  trace_core_and_dist(t, w, cw, dir, &serial_ms, &threaded_ms);

  // --- md: reference Simulation on the workload's own structure ----------
  // `home`: the thermalized workload state on the workload's engine family
  // (serial), whose snapshot is what the workload's checkpoints hold.
  auto home = sc::build_engine(s, st, reference ? "reference" : "wafer", dir);
  {
    wsmd::Rng rng(s.seed);
    home->thermalize(first_temperature(s), rng);
  }
  auto ref = sc::build_engine(s, st, "reference:2", dir);
  ref->restore(home->snapshot());
  auto& sim = dynamic_cast<wsmd::engine::ReferenceEngine&>(*ref).simulation();
  sim.compute_forces();  // the list is current from here on
  const auto force_s = time_reps(5, [&] { sim.compute_forces(); });
  wsmd::md::NeighborList nl(sim.neighbor_list().cutoff(),
                            sim.neighbor_list().skin());
  const auto& box = sim.system().box();
  const auto& rpos = sim.system().positions();
  const auto build_s = time_reps(kReps, [&] { nl.build(box, rpos); });
  const auto check_s = time_reps(kReps, [&] { (void)nl.ensure_current(box, rpos); });
  const double atoms = static_cast<double>(sim.system().size());
  const double pairs = static_cast<double>(nl.total_entries());
  const auto rebuilds0 = sim.neighbor_list().rebuild_count();
  const auto ref2_s = time_reps(kMdSteps, [&] { ref->step(); });
  const double rebuilds =
      100.0 * static_cast<double>(sim.neighbor_list().rebuild_count() - rebuilds0) /
      kMdSteps;
  t.add("md.force_ms", ms(median(force_s)), "ms", force_s.size(),
        "reference:2 compute_forces, list current");
  t.add("md.neighbor_build_ms", ms(median(build_s)), "ms", build_s.size());
  t.add("md.neighbor_rebuilds", rebuilds, "per100steps", kMdSteps);
  t.add("md.pairs_per_atom", pairs / atoms, "count", 1);
  t.add("md.pairs_per_s", pairs / median(force_s), "1/s", force_s.size());
  if (reference) {
    serial_ms = ms(median(time_reps(kMdSteps / 2, [&] { home->step(); })));
    threaded_ms = ms(median(ref2_s));
  }
  t.add("engine.parallel_eff", serial_ms / (w.threads * threaded_ms), "frac", 1,
        reference ? "reference vs reference:2"
                  : "serial WseMd phases vs " + s.backend);

  // --- obs and io on the state the md layer just advanced ---------------
  const auto pos = ref->positions();
  const auto vel = ref->velocities();
  // The workload's checkpoints carry its probes' accumulators.
  std::vector<std::pair<std::string, std::string>> probe_states;
  for (const std::string kind : {"rdf", "msd", "defects"}) {
    auto cfg = s.observe;
    cfg.probes = {kind};
    cfg.every = 1;
    cfg.rdf_every = cfg.msd_every = cfg.vacf_every = cfg.defects_every = 0;
    cfg.prefix = dir + "/traced";
    auto bus = wsmd::obs::make_observer_bus(cfg, sc::material_for(s));
    long step = 0;
    const auto sample = [&] {
      ++step;
      bus->observe({step, step * s.dt, &st.box, &pos, &vel});
    };
    sample();  // first sample primes origins (MSD)
    const auto probe_s = time_reps(kReps, sample);
    if (s.observe.has(kind)) {
      for (auto& blob : bus->save_probe_states()) probe_states.push_back(std::move(blob));
    }
    bus->finish();
    t.add("obs." + kind + "_ms", ms(median(probe_s)), "ms", probe_s.size());
  }
  {
    wsmd::io::ThermoLogger log(dir + "/traced.thermo.csv",
                               wsmd::io::ThermoFormat::kCsv);
    constexpr int kRows = 2000;
    long step = 0;
    const auto rows_s = time_reps(kReps, [&] {
      for (int k = 0; k < kRows; ++k) {
        log.write({++step, -1.0e5 - step * 1e-3, 600.0 + step * 1e-4,
                   -1.0e5 + 600.0, 290.0 + step * 1e-5});
      }
    });
    t.add("io.thermo_row_us", median(rows_s) * 1e6 / kRows, "us", kReps * kRows);
  }
  {
    wsmd::io::XyzTrajectoryWriter xyz(dir + "/traced.xyz", {s.element});
    const auto xyz_s = time_reps(kReps, [&] { xyz.append(st.box, pos, st.types, "traced"); });
    t.add("io.xyz_frame_ms", ms(median(xyz_s)), "ms", xyz_s.size());
  }
  {
    wsmd::io::CheckpointData ck;
    ck.element = s.element;
    ck.backend = home->backend_name();
    ck.box = st.box;
    ck.types = st.types;
    for (const auto& e : sc::deck_from_scenario(s).entries) ck.deck.emplace_back(e.key, e.value);
    ck.engine = home->snapshot();
    ck.probes = probe_states;
    const std::string path = dir + "/traced.ckpt";
    wsmd::io::write_checkpoint_file(path, ck);  // the workload overwrites too
    const auto ck_s = time_reps(kReps, [&] { wsmd::io::write_checkpoint_file(path, ck); });
    t.add("io.checkpoint_write_ms", ms(median(ck_s)), "ms", ck_s.size());
    t.add("io.checkpoint_bytes", static_cast<double>(std::filesystem::file_size(path)),
          "bytes", 1);
  }

  // --- Cross-check against the program's own spans (telemetry call) ------
  const auto per_call_ms = [&](const std::string& name) {
    const auto it = spans.find(name);
    return it == spans.end() || it->second.calls == 0
               ? 0.0
               : ms(it->second.total_seconds / static_cast<double>(it->second.calls));
  };
  const auto per_step_ms = [&](const std::string& name) {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0
                             : ms(it->second.total_seconds / static_cast<double>(tel.steps));
  };
  std::printf("\nspan cross-check (telemetry call; sharded spans sum CPU time "
              "over workers)\n");
  if (reference) {
    t.span_check("md.force", per_call_ms("md.force"), "md.force_ms", t.v["md.force_ms"]);
    const auto calls = spans["md.neighbor"].calls;
    const double rebuild_share =
        calls > 0 ? static_cast<double>(counters["md.neighbor_rebuilds"]) / calls : 0.0;
    t.span_check("md.neighbor", per_call_ms("md.neighbor"),
                 "check + build x rebuilds/call",
                 ms(median(check_s)) + t.v["md.neighbor_build_ms"] * rebuild_share);
  } else if (s.backend.rfind("sharded", 0) == 0) {
    for (const std::string ph : {"density", "force", "commit"}) {
      t.span_check("wse." + ph, per_step_ms("wse." + ph), "core." + ph + "_ms",
                   t.v["core." + ph + "_ms"]);
    }
  } else {
    // ranks: the phase spans run inside the rank processes and do not
    // reach the coordinator; its own obs and io spans are checked instead.
    // (obs.msd is left out: at ~0.2 ms per sample it is mostly overhead.)
    for (const std::string kind : {"rdf", "defects"}) {
      t.span_check("obs." + kind, per_call_ms("obs." + kind), "obs." + kind + "_ms",
                   t.v["obs." + kind + "_ms"]);
    }
    t.span_check("io.xyz", per_call_ms("io.xyz"), "io.xyz_frame_ms",
                 t.v["io.xyz_frame_ms"]);
    t.span_check("io.checkpoint", per_call_ms("io.checkpoint"),
                 "io.checkpoint_write_ms", t.v["io.checkpoint_write_ms"]);
  }

  // --- How much of the traced mean step the layers account for -----------
  double account_ms = t.v["io.thermo_row_us"] * 1e-3;
  if (reference) {
    account_ms += t.v["md.force_ms"] +
                  t.v["md.neighbor_build_ms"] * t.v["md.neighbor_rebuilds"] / 100.0;
  } else {
    account_ms += (t.v["core.density_ms"] + t.v["core.force_ms"] +
                   t.v["core.commit_ms"]) / w.threads;
    const bool ranks = s.backend.rfind("ranks", 0) == 0;
    if (ranks) account_ms += t.v["dist.step_overhead_ms"];
    if (s.swap_interval > 0) account_ms += t.v["core.swap_ms"] / s.swap_interval;
    if (s.observe.enabled()) {
      double probes = ranks ? t.v["dist.gather_ms"] : 0.0;
      for (const auto& kind : s.observe.probes) probes += t.v["obs." + kind + "_ms"];
      account_ms += probes / static_cast<double>(s.observe.every);
    }
    if (!s.xyz_path.empty()) account_ms += t.v["io.xyz_frame_ms"] / s.xyz_every;
    if (s.checkpoint_every > 0) {
      account_ms += t.v["io.checkpoint_write_ms"] / s.checkpoint_every;
    }
  }
  const double mean_step_ms = 1e3 / steps_per_s(d);
  const double accounted = account_ms / mean_step_ms;
  std::printf("check  layers account for %.3f of the traced mean step "
              "(%.3f of %.3f ms; band 1 +- %.2f) %s\n",
              accounted, account_ms, mean_step_ms, kAccountBand,
              std::fabs(accounted - 1.0) <= kAccountBand ? "ok" : "OUTSIDE BAND");
  return t.out;
}

}  // namespace mdbench
