#pragma once

/// \file wafer_engine.hpp
/// The wafer backend: core::WseMd's phase kernels over per-thread row
/// shards of the PE grid.
///
/// Mirrors how wafer-scale stencil codes decompose the fabric into
/// rectangular regions with halo exchange: the core grid splits into
/// `threads` row strips, and each worker thread runs the timestep phases of
/// core::WseMd over its own strip. Barriers sit exactly where the real
/// machine synchronizes — after the candidate/embedding exchange (F' of
/// every neighborhood must be published before forces) and after
/// integration (before the serial commit + reduction). One worker runs the
/// phases inline on the calling thread (ShardPool spawns no thread), so
/// `wafer` is simply `sharded:1`.
///
/// Determinism: the phase kernels keep per-worker candidate arrival order
/// identical to the serial sweep, every per-atom value is written by
/// exactly one shard, and all cross-worker reductions run serially in
/// row-major core order. The trajectory is therefore *bitwise* that of the
/// serial core::WseMd::step at any thread count.
///
/// Cost accounting: the canonical WseStepStats (max/mean/stddev cycles over
/// all workers) is the serial engine's. Additionally the modeled cost of
/// refreshing each shard's (2b+1)-deep ghost halo is charged from the cost
/// model (halo_exchange_cycles) — the price a region-decomposed wafer pays
/// that the idealized global machine does not.

#include <functional>
#include <vector>

#include "core/wse_md.hpp"
#include "engine/engine.hpp"
#include "engine/shard_pool.hpp"

namespace wsmd::engine {

class WaferEngine final : public Engine {
 public:
  /// `threads` == shard count; 0 picks hardware concurrency.
  WaferEngine(const lattice::Structure& s, eam::EamPotentialPtr potential,
              core::WseMdConfig config = {}, int threads = 1);

  core::WseMd& wafer() { return md_; }
  const core::WseMd& wafer() const { return md_; }

  /// Accounting of the most recent step (zeroed before the first step).
  const core::WseStepStats& last_step_stats() const { return last_; }

  int threads() const { return pool_.size(); }
  const std::vector<core::ShardRect>& shards() const { return shards_; }

  /// Modeled cycles per step spent refreshing the shards' ghost halos (two
  /// neighborhood exchanges per step: positions and F'). Zero for a single
  /// shard — the whole grid has no internal boundary.
  double halo_cycles_per_step() const;

  const char* backend_name() const override { return "sharded-wafer"; }
  /// Cost-model phase breakdown from the run's cumulative candidate /
  /// interaction counts (wse::CostModel Table V basis), plus the modeled
  /// halo-exchange cost of this shard decomposition (halo_seconds).
  ModeledPhaseCost modeled_phase_cost() const override;
  /// Cumulative per-worker busy/wait seconds, accumulated by run_sharded
  /// while telemetry is armed (zeros otherwise) — the raw series behind the
  /// snapshot stream's imbalance rows.
  std::vector<ShardLoad> shard_load() const override { return cum_load_; }
  std::size_t atom_count() const override { return md_.atom_count(); }
  long step_count() const override { return md_.step_count(); }
  std::vector<Vec3d> positions() const override { return md_.positions(); }
  std::vector<Vec3d> velocities() const override { return md_.velocities(); }
  void set_velocities(const std::vector<Vec3d>& v) override {
    md_.set_velocities(v);
  }
  void set_positions(const std::vector<Vec3d>& r) override {
    md_.set_positions(r);
  }
  State snapshot() const override;
  void restore(const State& state) override;
  void thermalize(double temperature_K, Rng& rng) override {
    md_.thermalize(temperature_K, rng);
  }
  Thermo step() override;
  Thermo thermo() const override;

 private:
  /// pool_.run with telemetry: times each worker's busy span and folds the
  /// round's aggregate barrier wait (round wall time minus per-worker busy
  /// time) into the "shard.barrier_wait" span — the imbalance instrument.
  /// Falls back to a plain pool_.run when telemetry is disabled.
  void run_sharded(const std::function<void(int)>& task);

  core::WseMd md_;
  core::WseStepStats last_;
  std::vector<core::ShardRect> shards_;
  std::vector<double> busy_seconds_;  ///< run_sharded scratch, per worker
  std::vector<ShardLoad> cum_load_;   ///< cumulative busy/wait, per worker
  core::StepWorkspace ws_;
  ShardPool pool_;
};

}  // namespace wsmd::engine
