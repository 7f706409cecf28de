#include "core/wse_md.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "eam/zhou.hpp"
#include "lattice/lattice.hpp"
#include "md/force_eam.hpp"
#include "md/neighbor.hpp"
#include "md/simulation.hpp"

namespace wsmd::core {
namespace {

/// Small Ta slab with the paper-workload (short) cutoff so candidate
/// neighborhoods stay compact.
struct Fixture {
  lattice::Structure structure;
  eam::EamPotentialPtr potential;

  explicit Fixture(int reps_xy = 6, int reps_z = 4,
                   std::array<bool, 3> pbc = {false, false, false}) {
    const auto p = eam::zhou_parameters("Ta");
    structure = lattice::replicate(
        lattice::UnitCell::of(p.structure, p.lattice_constant()), reps_xy,
        reps_xy, reps_z, 0, pbc);
    potential = std::make_shared<eam::ZhouEam>("Ta", p.paper_cutoff());
  }

  WseMdConfig config() const {
    WseMdConfig cfg;
    cfg.mapping.cell_size = eam::zhou_parameters("Ta").lattice_constant();
    return cfg;
  }
};

/// Fully periodic bulk fixture: no surfaces, so a perfect crystal is a
/// true equilibrium and NVE energy is sharply conserved.
Fixture periodic_fixture() { return Fixture(6, 4, {true, true, true}); }

TEST(WseMd, ConstructsWithDerivedNeighborhood) {
  Fixture f;
  WseMd engine(f.structure, f.potential, f.config());
  EXPECT_GE(engine.b(), 2);
  EXPECT_LE(engine.b(), 6);
  EXPECT_EQ(engine.atom_count(), f.structure.size());
}

TEST(WseMd, PerfectLatticeStaysPut) {
  // Periodic bulk: zero net force on every site (open slabs would relax
  // their surfaces, which is physics, not error).
  Fixture f = periodic_fixture();
  WseMd engine(f.structure, f.potential, f.config());
  const auto r0 = engine.positions();
  engine.run(30);
  const auto r1 = engine.positions();
  for (std::size_t i = 0; i < r0.size(); ++i) {
    // FP32 forces on a perfect lattice are ~1e-6 eV/A of rounding noise.
    EXPECT_NEAR(norm(f.structure.box.minimum_image(r1[i], r0[i])), 0.0, 1e-3)
        << "atom " << i;
  }
}

TEST(WseMd, MatchesReferenceEngineTrajectory) {
  // The central equivalence claim: the wafer-mapped algorithm reproduces
  // the reference FP64 engine's trajectory to FP32 tolerance.
  Fixture f;
  md::AtomSystem ref_sys(f.structure, f.potential);
  Rng rng(2024);
  ref_sys.thermalize(290.0, rng);
  const auto v0 = ref_sys.velocities().to_aos();

  md::Simulation ref(std::move(ref_sys));
  WseMd wse(f.structure, f.potential, f.config());
  wse.set_velocities(v0);

  const int steps = 20;
  ref.run(steps);
  wse.run(steps);

  const auto rp = ref.system().positions().to_aos();
  const auto wp = wse.positions();
  double max_err = 0.0;
  for (std::size_t i = 0; i < rp.size(); ++i) {
    max_err = std::max(max_err, norm(rp[i] - wp[i]));
  }
  // 20 steps of FP32 vs FP64: discrepancy should be far below thermal
  // displacements (~0.1 A) — otherwise the neighborhood missed a pair.
  EXPECT_LT(max_err, 5e-3) << "WSE trajectory diverged from reference";
}

TEST(WseMd, PotentialEnergyMatchesReference) {
  Fixture f;
  md::AtomSystem ref_sys(f.structure, f.potential);
  md::Simulation ref(std::move(ref_sys));
  const double e_ref = ref.compute_forces();

  WseMd wse(f.structure, f.potential, f.config());
  wse.step();  // evaluates energy along the way
  EXPECT_NEAR(wse.potential_energy(), e_ref,
              1e-4 * std::fabs(e_ref) + 1e-6);
}

TEST(WseMd, StepStatsAreSane) {
  Fixture f;
  WseMd engine(f.structure, f.potential, f.config());
  const auto stats = engine.step();
  const double full = wse::CostModel::candidates_for_b(engine.b());
  EXPECT_GT(stats.mean_candidates, 0.2 * full);  // clipped at surfaces
  EXPECT_LE(stats.mean_candidates, full);
  EXPECT_GT(stats.mean_interactions, 5.0);   // bulk Ta has 14
  EXPECT_LT(stats.mean_interactions, 15.0);
  EXPECT_GT(stats.wall_seconds, 0.0);
  EXPECT_GE(stats.max_cycles, stats.mean_cycles);
}

TEST(WseMd, CycleAccountingMatchesCostModel) {
  Fixture f;
  WseMdConfig cfg = f.config();
  WseMd engine(f.structure, f.potential, cfg);
  const auto stats = engine.step();
  // The slowest worker is a bulk atom with the full clipped neighborhood;
  // its cycles must equal the cost model at its counts (validated by
  // recomputing the model bound at the maximum possible counts).
  const double upper = cfg.cost_model.timestep_cycles(
      wse::CostModel::candidates_for_b(engine.b()), 14.0);
  EXPECT_LE(stats.max_cycles, upper + 1e-6);
}

TEST(WseMd, ThermalRunConservesEnergyApproximately) {
  Fixture f = periodic_fixture();
  WseMd engine(f.structure, f.potential, f.config());
  Rng rng(7);
  engine.thermalize(150.0, rng);
  engine.step();
  const double e0 = engine.potential_energy() + engine.kinetic_energy();
  engine.run(100);
  const double e1 = engine.potential_energy() + engine.kinetic_energy();
  // FP32 NVE: total energy fluctuates at the meV/atom scale but must not
  // blow up (a runaway indicates missed interactions).
  EXPECT_LT(std::fabs(e1 - e0),
            0.005 * static_cast<double>(engine.atom_count()));
}

TEST(WseMd, SwapsReduceAssignmentCostAfterScramble) {
  // Scramble the mapping, then let the online greedy swaps recover it —
  // the mechanism of paper Fig. 9.
  Fixture f;
  WseMdConfig cfg = f.config();
  cfg.mapping.refine_rounds = 0;
  cfg.swap_interval = 1;
  WseMd engine(f.structure, f.potential, cfg);

  // Scramble: swap random core pairs, then let swaps recover (T = 0, so
  // only the remapping changes anything).
  Rng rng(99);
  engine.scramble_mapping(rng, 200);
  const double scrambled_cost = engine.assignment_cost();
  engine.run(30);
  const double recovered_cost = engine.assignment_cost();
  EXPECT_LT(recovered_cost, scrambled_cost);
}

TEST(WseMd, SwapStatsReported) {
  Fixture f;
  WseMdConfig cfg = f.config();
  cfg.swap_interval = 5;
  WseMd engine(f.structure, f.potential, cfg);
  Rng rng(3);
  engine.thermalize(290.0, rng);
  int swapped_steps = 0;
  for (int k = 0; k < 10; ++k) {
    if (engine.step().swapped) ++swapped_steps;
  }
  EXPECT_EQ(swapped_steps, 2);  // steps 5 and 10
}

TEST(WseMd, MaxInplaneDisplacementGrowsWithTemperature) {
  Fixture f;
  WseMd engine(f.structure, f.potential, f.config());
  EXPECT_DOUBLE_EQ(engine.max_inplane_displacement(), 0.0);
  Rng rng(17);
  engine.thermalize(290.0, rng);
  engine.run(20);
  EXPECT_GT(engine.max_inplane_displacement(), 0.0);
  EXPECT_LT(engine.max_inplane_displacement(), 1.0);  // no runaway atoms
}

TEST(WseMd, ElapsedTimeAccumulates) {
  Fixture f;
  WseMd engine(f.structure, f.potential, f.config());
  engine.run(10);
  const double t10 = engine.elapsed_seconds();
  EXPECT_GT(t10, 0.0);
  engine.run(10);
  EXPECT_NEAR(engine.elapsed_seconds(), 2.0 * t10, 0.2 * t10);
}

TEST(WseMd, RunCallbackFiresEveryStep) {
  // Mirrors md::Simulation::run(n, callback) so the two engines can be
  // driven identically.
  Fixture f;
  WseMd engine(f.structure, f.potential, f.config());
  int fired = 0;
  long last_step = 0;
  const auto final_stats = engine.run(6, [&](const WseStepStats& s) {
    ++fired;
    EXPECT_EQ(s.step, last_step + 1);
    last_step = s.step;
    EXPECT_GT(s.max_cycles, 0.0);
  });
  EXPECT_EQ(fired, 6);
  EXPECT_EQ(final_stats.step, 6);
  EXPECT_EQ(engine.step_count(), 6);
}

TEST(WseMd, BOverrideRespected) {
  Fixture f;
  WseMdConfig cfg = f.config();
  cfg.b_override = 6;
  WseMd engine(f.structure, f.potential, cfg);
  EXPECT_EQ(engine.b(), 6);
}

TEST(WseMd, AcceptedPairsMatchFp32BruteForce) {
  // Regression anchor for the sieve's r² < rcut² accept test: the engine's
  // accepted count must equal an independent FP32 brute-force pair count
  // at the pre-step positions (the open slab needs no minimum image, and b
  // is wide enough that every in-range pair is a candidate).
  Fixture f;
  WseMd engine(f.structure, f.potential, f.config());
  const auto positions = engine.positions();
  const auto rc2 =
      static_cast<float>(f.potential->cutoff() * f.potential->cutoff());
  std::size_t brute_pairs = 0;
  for (std::size_t i = 0; i < positions.size(); ++i) {
    const Vec3f ri(positions[i]);
    for (std::size_t j = 0; j < positions.size(); ++j) {
      if (i == j) continue;
      const Vec3f d = Vec3f(positions[j]) - ri;
      if (dot(d, d) < rc2) ++brute_pairs;
    }
  }
  const auto s0 = engine.step();
  EXPECT_EQ(std::llround(s0.mean_interactions *
                         static_cast<double>(engine.atom_count())),
            static_cast<long long>(brute_pairs));
}

TEST(WseMd, ProfiledEnergyTracksAnalyticEnergy) {
  // Cross-path accuracy at the engine level: the FP32 wafer energy (profile
  // tables) against the FP64 analytic oracle (md::EamForceKernel with no
  // profile) on the same periodic configuration — the wafer's FP32
  // positions, widened exactly — within table-interpolation + FP32 noise.
  Fixture f = periodic_fixture();
  WseMd wafer(f.structure, f.potential, f.config());
  md::AtomSystem sys(f.structure, f.potential);
  const auto r = wafer.positions();
  for (std::size_t i = 0; i < r.size(); ++i) sys.positions().set(i, r[i]);
  md::NeighborList nl(f.potential->cutoff(), 1.0);
  nl.build(sys.box(), sys.positions());
  md::EamForceKernel oracle;
  const double e_analytic = oracle.compute(sys, nl);
  EXPECT_NEAR(wafer.potential_energy(), e_analytic,
              1e-4 * std::fabs(e_analytic) + 1e-3);
}

}  // namespace
}  // namespace wsmd::core
