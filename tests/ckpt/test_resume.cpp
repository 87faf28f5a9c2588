// The resume guarantee: a day simulation snapshotted mid-run and continued
// on a freshly constructed instance must finish bit-identical to the
// uninterrupted run, and a checkpointed sweep resumed from a partial (or
// partially corrupted) directory must reproduce the uninterrupted
// sweep_fingerprint exactly. A burst is never snapshotted mid-run: the
// sweep persists finished bursts only and recomputes the rest whole.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>
#include <unistd.h>

#include "ckpt/rotation.hpp"
#include "ckpt/snapshot.hpp"
#include "ckpt/state_io.hpp"
#include "common/failpoint.hpp"
#include "faults/correlation.hpp"
#include "faults/fault_spec.hpp"
#include "sim/burst_runner.hpp"
#include "sim/day_runner.hpp"
#include "sim/sweep.hpp"
#include "sim/sweep_ckpt.hpp"

namespace gs::sim {
namespace {

namespace fs = std::filesystem;

Scenario base_scenario() {
  Scenario sc;
  sc.app = workload::specjbb();
  sc.green = re_sbatt();
  sc.strategy = core::StrategyKind::Hybrid;
  sc.availability = trace::Availability::Med;
  sc.burst_duration = Seconds(1200.0);
  return sc;
}

std::uint64_t result_fingerprint(const BurstResult& r) {
  return sweep_fingerprint({r});
}

/// Run to completion in one piece.
BurstResult run_whole(const Scenario& sc) {
  BurstSim sim(sc);
  while (!sim.done()) sim.step();
  return sim.finish();
}

TEST(Resume, BurstSimMatchesRunBurst) {
  const auto stepwise = run_whole(base_scenario());
  const auto oneshot = run_burst(base_scenario());
  EXPECT_EQ(result_fingerprint(stepwise), result_fingerprint(oneshot));
}

DayRunConfig day_config() {
  DayRunConfig cfg;
  cfg.days = 1;
  cfg.daily_bursts = default_daily_bursts();
  return cfg;
}

TEST(Resume, DaySimResumesBitIdentically) {
  const auto cfg = day_config();
  DaySim whole(cfg);
  while (!whole.done()) whole.step();
  const auto reference = whole.finish();

  DaySim first(cfg);
  for (int i = 0; i < 500 && !first.done(); ++i) first.step();
  ckpt::StateWriter w;
  first.save_state(w);
  DaySim resumed(cfg);
  ckpt::StateReader r(w.buffer());
  resumed.load_state(r);
  while (!resumed.done()) resumed.step();
  const auto continued = resumed.finish();

  EXPECT_EQ(continued.sprint_time.value(), reference.sprint_time.value());
  EXPECT_EQ(continued.mean_burst_goodput, reference.mean_burst_goodput);
  EXPECT_EQ(continued.burst_speedup, reference.burst_speedup);
  EXPECT_EQ(continued.re_energy.value(), reference.re_energy.value());
  EXPECT_EQ(continued.batt_energy.value(), reference.batt_energy.value());
  EXPECT_EQ(continued.grid_energy.value(), reference.grid_energy.value());
  EXPECT_EQ(continued.battery_cycles, reference.battery_cycles);
  EXPECT_EQ(continued.bursts_served, reference.bursts_served);
}

TEST(Resume, DaySimSnapshotRejectsDifferentConfig) {
  const auto cfg = day_config();
  DaySim sim(cfg);
  sim.step();
  ckpt::StateWriter w;
  sim.save_state(w);

  auto other = cfg;
  other.solar_seed += 1;
  DaySim victim(other);
  ckpt::StateReader r(w.buffer());
  EXPECT_THROW(victim.load_state(r), ckpt::SnapshotError);
}

TEST(Resume, BurstResultRoundTripIsBitExact) {
  auto sc = base_scenario();
  sc.faults = faults::FaultSpec::uniform(0.3, 5);
  sc.fault_correlation = faults::CorrelationSpec::parse("storm=0.9");
  sc.health_aware = true;
  const auto original = run_burst(sc);

  ckpt::StateWriter w;
  save_burst_result(w, original);
  ckpt::StateReader r(w.buffer());
  const auto restored = load_burst_result(r);
  EXPECT_TRUE(r.at_end());

  EXPECT_EQ(result_fingerprint(restored), result_fingerprint(original));
  // Fields outside the fingerprint must survive too.
  EXPECT_EQ(restored.fault_incidents, original.fault_incidents);
  for (int i = 0; i < faults::kNumFaultClasses; ++i) {
    EXPECT_EQ(restored.fault_class_downtime[std::size_t(i)].value(),
              original.fault_class_downtime[std::size_t(i)].value());
    EXPECT_EQ(restored.correlated_bursts[std::size_t(i)],
              original.correlated_bursts[std::size_t(i)]);
  }
  for (std::size_t h = 0; h < original.health_state_epochs.size(); ++h) {
    EXPECT_EQ(restored.health_state_epochs[h], original.health_state_epochs[h]);
  }
}

class CheckpointedSweep : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("gs_resume_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  static std::vector<Scenario> small_grid() {
    std::vector<Scenario> cells;
    for (auto k : {core::StrategyKind::Greedy, core::StrategyKind::Pacing}) {
      for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
        auto sc = base_scenario();
        sc.burst_duration = Seconds(600.0);
        sc.strategy = k;
        sc.seed = seed;
        cells.push_back(sc);
      }
    }
    return cells;
  }

  /// small_grid with correlated fault storms and health-aware recovery:
  /// the hardest state to carry across a kill.
  static std::vector<Scenario> storm_grid() {
    auto cells = small_grid();
    for (auto& sc : cells) {
      sc.faults = faults::FaultSpec::uniform(0.4, 11);
      sc.fault_correlation = faults::CorrelationSpec::parse(
          "storm=0.9,cascade=0.5,regime_on=0.2");
      sc.health_aware = true;
    }
    return cells;
  }

  fs::path dir_;
};

TEST_F(CheckpointedSweep, MatchesPlainSweepAndFullResumeRunsNothing) {
  const auto grid = small_grid();
  const auto plain_fp = sweep_fingerprint(run_sweep(grid));

  SweepCheckpointOptions opts;
  opts.dir = dir_.string();
  SweepCheckpointStats stats;
  const auto first = run_sweep_checkpointed(grid, opts, 0, &stats);
  EXPECT_EQ(sweep_fingerprint(first), plain_fp);
  EXPECT_EQ(stats.cells_run, grid.size());
  EXPECT_EQ(stats.cells_resumed, 0u);

  opts.resume = true;
  const auto second = run_sweep_checkpointed(grid, opts, 0, &stats);
  EXPECT_EQ(sweep_fingerprint(second), plain_fp);
  EXPECT_EQ(stats.cells_resumed, grid.size());
  EXPECT_EQ(stats.cells_run, 0u);
}

TEST_F(CheckpointedSweep, PartialAndCorruptCellsAreRecomputed) {
  const auto grid = small_grid();
  SweepCheckpointOptions opts;
  opts.dir = dir_.string();
  const auto reference = run_sweep_checkpointed(grid, opts);
  const auto ref_fp = sweep_fingerprint(reference);

  // Simulate a kill plus disk damage: drop one cell, corrupt another.
  fs::remove(dir_ / "cell-000002.gsck");
  {
    std::ofstream os(dir_ / "cell-000004.gsck",
                     std::ios::binary | std::ios::trunc);
    os << "not a snapshot";
  }

  opts.resume = true;
  SweepCheckpointStats stats;
  const auto resumed = run_sweep_checkpointed(grid, opts, 0, &stats);
  EXPECT_EQ(sweep_fingerprint(resumed), ref_fp);
  EXPECT_EQ(stats.cells_resumed, grid.size() - 2);
  EXPECT_EQ(stats.cells_run, 2u);
}

TEST_F(CheckpointedSweep, ResumingADifferentCampaignThrows) {
  const auto grid = small_grid();
  SweepCheckpointOptions opts;
  opts.dir = dir_.string();
  (void)run_sweep_checkpointed(grid, opts);

  auto other = grid;
  other.pop_back();
  opts.resume = true;
  EXPECT_THROW((void)run_sweep_checkpointed(other, opts),
               ckpt::SnapshotError);

  auto reseeded = grid;
  reseeded[0].seed += 99;
  EXPECT_THROW((void)run_sweep_checkpointed(reseeded, opts),
               ckpt::SnapshotError);
}

TEST_F(CheckpointedSweep, ManifestDamageSelfHealsOnResume) {
  const auto grid = small_grid();
  SweepCheckpointOptions opts;
  opts.dir = dir_.string();
  const auto ref_fp = sweep_fingerprint(run_sweep_checkpointed(grid, opts));

  // Total manifest loss: every generation and the pointer are damaged.
  // The manifest is derived from the campaign definition, so resume must
  // rewrite it rather than condemn the completed cells.
  const fs::path base = dir_ / "sweep.manifest";
  for (const auto& [gen, path] :
       ckpt::RotatingSnapshot::list_generations(base)) {
    (void)gen;
    fs::resize_file(path, 4);
  }
  {
    std::ofstream f(ckpt::RotatingSnapshot::pointer_path(base),
                    std::ios::trunc | std::ios::binary);
    f << "not a pointer";
  }

  opts.resume = true;
  SweepCheckpointStats stats;
  const auto resumed = run_sweep_checkpointed(grid, opts, 0, &stats);
  EXPECT_EQ(sweep_fingerprint(resumed), ref_fp);
  EXPECT_EQ(stats.cells_resumed, grid.size());  // cells were never at risk
  EXPECT_EQ(stats.cells_run, 0u);
  // The healed manifest validates again.
  EXPECT_NO_THROW(sweep_ckpt::check_manifest(opts.dir, grid));
}

TEST_F(CheckpointedSweep, MidStormCorruptionMatrixResumesBitIdentically) {
  const auto grid = storm_grid();
  SweepCheckpointOptions opts;
  opts.dir = dir_.string();
  const auto ref_fp = sweep_fingerprint(run_sweep_checkpointed(grid, opts));

  // A kill partway through the campaign plus disk damage across every
  // artifact class: unwritten cells, a truncated cell, a bit-rotted cell,
  // and a corrupt manifest generation (rewritten from the campaign).
  fs::remove(dir_ / sweep_ckpt::cell_file_name(4));
  fs::remove(dir_ / sweep_ckpt::cell_file_name(5));
  fs::resize_file(dir_ / sweep_ckpt::cell_file_name(1), 10);
  {
    const fs::path cell = dir_ / sweep_ckpt::cell_file_name(2);
    std::fstream f(cell, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(std::streamoff(fs::file_size(cell) / 2));
    f.put('\x5a');
  }
  const auto gens =
      ckpt::RotatingSnapshot::list_generations(dir_ / "sweep.manifest");
  ASSERT_FALSE(gens.empty());
  fs::resize_file(gens.back().second, 4);

  opts.resume = true;
  SweepCheckpointStats stats;
  const auto resumed = run_sweep_checkpointed(grid, opts, 0, &stats);
  EXPECT_EQ(sweep_fingerprint(resumed), ref_fp);
  EXPECT_EQ(stats.cells_resumed, 2u);  // cells 0 and 3 were intact
  EXPECT_EQ(stats.cells_run, 4u);
}

TEST_F(CheckpointedSweep, TornCellWriteViaFailpointIsRecomputedOnResume) {
  failpoint::reset();
  const auto grid = small_grid();
  SweepCheckpointOptions opts;
  opts.dir = dir_.string();

  // Single-threaded so snapshot writes land in a deterministic order:
  // manifest generation (hit 1), manifest pointer (hit 2), cell 0 (hit 3).
  // The torn action *reports success* — the lying-firmware model — so the
  // first campaign finishes believing cell 0 is safely on disk.
  failpoint::configure("ckpt.snapshot.write=torn@hit:3");
  SweepCheckpointStats stats;
  const auto first = run_sweep_checkpointed(grid, opts, 1, &stats);
  failpoint::reset();
  const auto ref_fp = sweep_fingerprint(first);
  EXPECT_EQ(stats.cells_run, grid.size());

  opts.resume = true;
  const auto resumed = run_sweep_checkpointed(grid, opts, 1, &stats);
  EXPECT_EQ(sweep_fingerprint(resumed), ref_fp);
  EXPECT_EQ(stats.cells_run, 1u);  // only the torn cell is recomputed
  EXPECT_EQ(stats.cells_resumed, grid.size() - 1);
}

}  // namespace
}  // namespace gs::sim
