/// \file bench_kernels.cpp
/// google-benchmark microbenchmarks for the library's hot kernels:
/// potential evaluation, force passes, neighbor-list builds, the
/// wavelet-level marching multicast, and full WSE-MD steps. These measure
/// *host* performance of the simulator itself (not modeled WSE time) and
/// guard against performance regressions in the reproduction code.
///
/// Besides the microbenches, the binary self-times the force hot path on
/// both evaluation modes and both precisions — analytic virtual dispatch
/// vs the flattened r²-indexed PotentialProfile — and emits
/// `BENCH_kernels.json` (pairs/sec per {kernel, path}) for the CI bench
/// gate: `tools/check_bench_regression.py` checks the rows against
/// bench/baseline.json and enforces the profile-vs-analytic speedup
/// ratios, so de-virtualizing the inner loop can never silently regress.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>

#include "core/wse_md.hpp"
#include "eam/profile.hpp"
#include "eam/tabulated.hpp"
#include "eam/zhou.hpp"
#include "lattice/lattice.hpp"
#include "md/simd.hpp"
#include "md/simulation.hpp"
#include "util/bench_json.hpp"
#include "util/spline.hpp"
#include "util/units.hpp"
#include "wse/multicast.hpp"

namespace {

using namespace wsmd;

void BM_ZhouAnalyticPair(benchmark::State& state) {
  const eam::ZhouEam ta("Ta");
  double r = 2.5, acc = 0.0;
  for (auto _ : state) {
    acc += ta.pair(0, 0, r);
    r = 2.5 + (r * 1.0001 - static_cast<int>(r * 1.0001 / 2.0) * 2.0) * 0.5;
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_ZhouAnalyticPair);

void BM_TabulatedPair(benchmark::State& state) {
  const eam::ZhouEam ta("Ta");
  const auto tab = eam::TabulatedEam::from_potential(ta, 2000, 2000);
  double r = 2.5, acc = 0.0;
  for (auto _ : state) {
    acc += tab.pair(0, 0, r);
    r = 2.5 + (r * 1.0001 - static_cast<int>(r * 1.0001 / 2.0) * 2.0) * 0.5;
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_TabulatedPair);

void BM_ProfilePairLookup(benchmark::State& state) {
  // The r²-indexed bundle lookup the hot loops actually run: pair energy
  // plus force kernel in one fetch, no sqrt.
  const eam::ZhouEam ta("Ta");
  const eam::ProfileF64 prof(ta);
  const double rc2 = prof.cutoff_sq();
  double r2 = 0.4 * rc2, acc = 0.0;
  for (auto _ : state) {
    double phi, pf;
    prof.pair(0, 0, r2, phi, pf);
    acc += phi + pf;
    r2 = 0.2 * rc2 + (r2 * 1.0001 - static_cast<int>(r2 * 1.0001 / (0.7 * rc2)) *
                                        (0.7 * rc2));
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_ProfilePairLookup);

void BM_CubicSplineEval(benchmark::State& state) {
  const auto sp = CubicSplineTable::sample(
      [](double x) { return std::exp(-x) * x * x; }, 0.0, 6.0, 2000);
  double x = 1.0, acc = 0.0;
  for (auto _ : state) {
    acc += sp.value(x);
    x = 0.5 + (x * 1.001 - static_cast<int>(x * 1.001 / 5.0) * 5.0);
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_CubicSplineEval);

void BM_NeighborListBuild(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  const auto p = eam::zhou_parameters("Ta");
  const auto s = lattice::replicate(
      lattice::UnitCell::of(p.structure, p.lattice_constant()), n, n, n, 0,
      {true, true, true});
  md::NeighborList nl(p.paper_cutoff(), 1.0);
  for (auto _ : state) {
    nl.build(s.box, s.positions);
    benchmark::DoNotOptimize(nl.total_entries());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(s.size()));
}
BENCHMARK(BM_NeighborListBuild)->Arg(6)->Arg(10);

void BM_EamForceStep(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  const auto p = eam::zhou_parameters("Ta");
  const auto s = lattice::replicate(
      lattice::UnitCell::of(p.structure, p.lattice_constant()), n, n, n, 0,
      {true, true, true});
  auto pot = std::make_shared<eam::ZhouEam>("Ta", p.paper_cutoff());
  md::AtomSystem sys(s, pot);
  Rng rng(3);
  sys.thermalize(290.0, rng);
  md::Simulation sim(std::move(sys));  // default: profiled evaluation
  sim.compute_forces();
  for (auto _ : state) {
    sim.run(1);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(s.size()));
}
BENCHMARK(BM_EamForceStep)->Arg(6)->Arg(10);

void BM_WseMdStep(benchmark::State& state) {
  const auto scale = static_cast<int>(state.range(0));
  const auto p = eam::zhou_parameters("Ta");
  const auto slab = lattice::paper_slab("Ta", scale);
  auto pot = std::make_shared<eam::ZhouEam>("Ta", p.paper_cutoff());
  core::WseMdConfig cfg;
  cfg.mapping.cell_size = p.lattice_constant();
  core::WseMd engine(slab, pot, cfg);  // default: FP32 profile tables
  Rng rng(5);
  engine.thermalize(290.0, rng);
  for (auto _ : state) {
    engine.step();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(engine.atom_count()));
}
BENCHMARK(BM_WseMdStep)->Arg(64)->Arg(32);

void BM_MarchingMulticast(benchmark::State& state) {
  const auto b = static_cast<int>(state.range(0));
  const int W = 16, H = 16;
  std::vector<std::vector<std::uint32_t>> payloads(
      static_cast<std::size_t>(W) * H, std::vector<std::uint32_t>{1, 2, 3});
  for (auto _ : state) {
    const auto result = wse::neighborhood_exchange(W, H, b, payloads);
    benchmark::DoNotOptimize(result.total_cycles());
  }
}
BENCHMARK(BM_MarchingMulticast)->Arg(1)->Arg(2)->Arg(4);

/// --- BENCH_kernels.json: analytic vs profiled vs SoA pairs/sec ----------

/// Evaluations per second of `fn`: one warmup call (touch tables, fault
/// pages, warm the branch predictors), then three independent ~0.25 s
/// trials; the best trial is reported. A single trial was at the mercy of
/// whatever else the CI runner scheduled during it — the max of three is a
/// far better estimate of the kernel's actual speed, and the speedup
/// *ratios* the gate enforces divide two best-of-3 values measured
/// back-to-back on the same machine.
template <typename Fn>
double evals_per_second(const Fn& fn) {
  using clock = std::chrono::steady_clock;
  fn();  // warmup
  double best = 0.0;
  for (int trial = 0; trial < 3; ++trial) {
    long iters = 0;
    const auto start = clock::now();
    double elapsed = 0.0;
    while (elapsed < 0.25) {
      fn();
      ++iters;
      elapsed = std::chrono::duration<double>(clock::now() - start).count();
    }
    best = std::max(best, static_cast<double>(iters) / elapsed);
  }
  return best;
}

/// The FP32 wafer step evaluated from the analytic functional form: the
/// comparator for the profile tables' "wafer soa vs analytic" ratio floors.
/// core::WseMd evaluates only from its profile tables, so this replays its
/// phases 1-4 over the same mapping with the per-candidate work the tables
/// replaced: gather the clipped (2b+1)² neighbourhood in row-major order,
/// FP32 minimum image and r² accept, virtual density/embed/pair/
/// density_deriv calls with a per-pair sqrt, then leap-frog integration.
class AnalyticWaferStep {
 public:
  AnalyticWaferStep(const core::WseMd& wafer, const lattice::Structure& s,
                    const eam::EamPotential& pot, double dt)
      : mapping_(wafer.mapping()),
        b_(wafer.b()),
        pot_(pot),
        box_(s.box),
        types_(s.types),
        dt_(static_cast<float>(dt)) {
    for (const Vec3d& r : wafer.positions()) pos_.emplace_back(r);
    for (const Vec3d& v : wafer.velocities()) vel_.emplace_back(v);
    new_pos_ = pos_;
    new_vel_ = vel_;
    fprime_.assign(pos_.size(), 0.0f);
    const auto span = static_cast<std::size_t>(2 * b_ + 1);
    stride_ = span * span - 1;
    rows_.resize(pos_.size() * stride_);
    counts_.assign(pos_.size(), 0);
    const Vec3d len = box_.lengths();
    for (std::size_t a = 0; a < 3; ++a) {
      len_[a] = static_cast<float>(len[a]);
      inv_len_[a] = 1.0f / len_[a];
    }
  }

  /// One timestep; returns the potential energy (a data dependence the
  /// optimizer cannot drop).
  double step() {
    const int w = mapping_.grid_width();
    const int h = mapping_.grid_height();
    const auto rc2 = static_cast<float>(pot_.cutoff() * pot_.cutoff());
    double pe_embed = 0.0;
    float pe_pair = 0.0f;
    for (int cy = 0; cy < h; ++cy) {
      for (int cx = 0; cx < w; ++cx) {
        const long ai = mapping_.atom_at(cx, cy);
        if (ai < 0) continue;
        const auto i = static_cast<std::size_t>(ai);
        gathered_.clear();
        for (int y = std::max(0, cy - b_); y <= std::min(h - 1, cy + b_);
             ++y) {
          for (int x = std::max(0, cx - b_); x <= std::min(w - 1, cx + b_);
               ++x) {
            if (x == cx && y == cy) continue;
            const long a = mapping_.atom_at(x, y);
            if (a >= 0) gathered_.push_back(static_cast<std::uint32_t>(a));
          }
        }
        std::uint32_t* row = rows_.data() + i * stride_;
        std::uint32_t m = 0;
        float rho = 0.0f;
        for (const std::uint32_t j : gathered_) {
          const Vec3f d = minimum_image(pos_[i], pos_[j]);
          const float r2 = dot(d, d);
          if (r2 >= rc2) continue;
          row[m++] = j;
          rho += static_cast<float>(
              pot_.density(types_[j], std::sqrt(static_cast<double>(r2))));
        }
        counts_[i] = m;
        pe_embed += pot_.embed(types_[i], rho);
        fprime_[i] = static_cast<float>(pot_.embed_deriv(types_[i], rho));
      }
    }
    for (int cy = 0; cy < h; ++cy) {
      for (int cx = 0; cx < w; ++cx) {
        const long ai = mapping_.atom_at(cx, cy);
        if (ai < 0) continue;
        const auto i = static_cast<std::size_t>(ai);
        const int ti = types_[i];
        const Vec3f ri = pos_[i];
        const std::uint32_t* row = rows_.data() + i * stride_;
        Vec3f force{0, 0, 0};
        for (std::uint32_t k = 0; k < counts_[i]; ++k) {
          const std::uint32_t j = row[k];
          const Vec3f d = minimum_image(ri, pos_[j]);
          const double rd = std::sqrt(static_cast<double>(dot(d, d)));
          const float fmag =
              static_cast<float>(pot_.pair_deriv(ti, types_[j], rd)) +
              fprime_[i] *
                  static_cast<float>(pot_.density_deriv(types_[j], rd)) +
              fprime_[j] * static_cast<float>(pot_.density_deriv(ti, rd));
          pe_pair += static_cast<float>(pot_.pair(ti, types_[j], rd));
          force += d * (fmag / static_cast<float>(rd));
        }
        const auto inv_m = static_cast<float>(1.0 / pot_.mass(ti) *
                                              units::kForceToAccel);
        new_vel_[i] = vel_[i] + (force * inv_m) * dt_;
        new_pos_[i] = Vec3f(box_.wrap(Vec3d(ri + new_vel_[i] * dt_)));
      }
    }
    pos_.swap(new_pos_);
    vel_.swap(new_vel_);
    return pe_embed + 0.5 * pe_pair;
  }

 private:
  /// FP32 rj - ri; nearbyint matches the SIMD sieve's round-half-even.
  Vec3f minimum_image(const Vec3f& ri, const Vec3f& rj) const {
    Vec3f d = rj - ri;
    for (std::size_t a = 0; a < 3; ++a) {
      if (!box_.periodic[a]) continue;
      d[a] -= std::nearbyint(d[a] * inv_len_[a]) * len_[a];
    }
    return d;
  }

  core::AtomMapping mapping_;
  int b_;
  const eam::EamPotential& pot_;
  Box box_;
  std::vector<int> types_;
  float dt_;
  Vec3f len_{0, 0, 0};
  Vec3f inv_len_{0, 0, 0};
  std::vector<Vec3f> pos_, vel_, new_pos_, new_vel_;
  std::vector<float> fprime_;
  std::vector<std::uint32_t> gathered_;
  std::vector<std::uint32_t> rows_;
  std::vector<std::uint32_t> counts_;
  std::size_t stride_ = 0;
};

void emit_pairs_bench() {
  const auto p = eam::zhou_parameters("Ta");

  // FP64 reference force kernel: same system, same neighbor list, the two
  // evaluation paths of md::EamForceKernel. pairs = full-list entries per
  // sweep (both paths walk the identical list).
  const auto crystal = lattice::replicate(
      lattice::UnitCell::of(p.structure, p.lattice_constant()), 8, 8, 8, 0,
      {true, true, true});
  auto pot = std::make_shared<eam::ZhouEam>("Ta", p.paper_cutoff());
  md::AtomSystem sys(crystal, pot);
  Rng rng(11);
  sys.thermalize(290.0, rng);
  md::NeighborList nl(pot->cutoff(), 1.0);
  nl.build(sys.box(), sys.positions());
  const auto ref_pairs = static_cast<double>(nl.total_entries());
  md::EamForceKernel kernel;
  const eam::ProfileF64 prof64(*pot);
  double sink = 0.0;
  const double ref_analytic =
      ref_pairs * evals_per_second([&] { sink += kernel.compute(sys, nl); });
  // PR 5's de-virtualized per-pair profile loop, kept as an explicit path:
  // the soa-vs-profile ratio below is the measured win of batching alone.
  const double ref_profile = ref_pairs * evals_per_second([&] {
                               sink += kernel.compute(
                                   sys, nl, &prof64, nullptr,
                                   md::EamForceKernel::EvalPath::kPairwise);
                             });
  // The production hot path: SoA pair batches through the dispatched
  // simd kernels, on the active tier and pinned to the scalar tier.
  const double ref_soa = ref_pairs * evals_per_second([&] {
                           sink += kernel.compute(sys, nl, &prof64);
                         });
  simd::set_tier_override(simd::Tier::kScalar);
  const double ref_soa_scalar = ref_pairs * evals_per_second([&] {
                                  sink += kernel.compute(sys, nl, &prof64);
                                });
  simd::clear_tier_override();

  // FP32 wafer step (phases 1-4): serial WseMd on a paper-slab miniature,
  // which runs the batched SoA phase kernels over its profile tables; the
  // analytic comparator replays the same step through virtual calls.
  // pairs = accepted interactions per step.
  const auto slab = lattice::paper_slab("Ta", 48);
  core::WseMdConfig cfg;
  cfg.mapping.cell_size = p.lattice_constant();
  core::WseMd tab(slab, pot, cfg);
  Rng wrng(13);
  tab.thermalize(290.0, wrng);
  AnalyticWaferStep ana(tab, slab, *pot, cfg.dt);
  const double wafer_pairs =
      tab.step().mean_interactions * static_cast<double>(tab.atom_count());
  const double wafer_soa =
      wafer_pairs * evals_per_second([&] { sink += tab.step().max_cycles; });
  simd::set_tier_override(simd::Tier::kScalar);
  const double wafer_soa_scalar =
      wafer_pairs * evals_per_second([&] { sink += tab.step().max_cycles; });
  simd::clear_tier_override();
  const double wafer_analytic =
      wafer_pairs * evals_per_second([&] { sink += ana.step(); });

  BenchJson out("kernels");
  out.meta()
      .set("element", "Ta")
      .set("ref_atoms", sys.size())
      .set("ref_pairs_per_sweep", ref_pairs)
      .set("wafer_atoms", tab.atom_count())
      .set("wafer_pairs_per_step", wafer_pairs)
      .set("profile_table_bytes_fp32",
           eam::ProfileF32(*pot).table_bytes())
      .set("simd_tier", simd::tier_name(simd::active_tier()))
      .set("sink", sink);  // defeat dead-code elimination
  out.add_row()
      .set("kernel", "reference")
      .set("path", "analytic")
      .set("precision", "fp64")
      .set("pairs_per_s", ref_analytic);
  out.add_row()
      .set("kernel", "reference")
      .set("path", "profile")
      .set("precision", "fp64")
      .set("pairs_per_s", ref_profile)
      .set("speedup_vs_analytic", ref_profile / ref_analytic);
  out.add_row()
      .set("kernel", "reference")
      .set("path", "soa")
      .set("precision", "fp64")
      .set("pairs_per_s", ref_soa)
      .set("speedup_vs_profile", ref_soa / ref_profile);
  out.add_row()
      .set("kernel", "reference")
      .set("path", "soa_scalar")
      .set("precision", "fp64")
      .set("pairs_per_s", ref_soa_scalar);
  out.add_row()
      .set("kernel", "wafer")
      .set("path", "analytic")
      .set("precision", "fp32")
      .set("pairs_per_s", wafer_analytic);
  out.add_row()
      .set("kernel", "wafer")
      .set("path", "soa")
      .set("precision", "fp32")
      .set("pairs_per_s", wafer_soa)
      .set("speedup_vs_analytic", wafer_soa / wafer_analytic);
  out.add_row()
      .set("kernel", "wafer")
      .set("path", "soa_scalar")
      .set("precision", "fp32")
      .set("pairs_per_s", wafer_soa_scalar);
  const auto path = out.write(".");
  std::printf("\n[simd tier: %s]\n", simd::tier_name(simd::active_tier()));
  std::printf("pairs/sec (FP64 reference): analytic %.3g, profile %.3g "
              "(%.2fx), soa %.3g (%.2fx vs profile), soa_scalar %.3g\n",
              ref_analytic, ref_profile, ref_profile / ref_analytic,
              ref_soa, ref_soa / ref_profile, ref_soa_scalar);
  std::printf("pairs/sec (FP32 wafer):     analytic %.3g, soa %.3g "
              "(%.2fx), soa_scalar %.3g\n",
              wafer_analytic, wafer_soa, wafer_soa / wafer_analytic,
              wafer_soa_scalar);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  emit_pairs_bench();
  return 0;
}
