#include <gtest/gtest.h>

#include <vector>

#include "common/assert.hpp"
#include "common/stats.hpp"

#include "sim/burst_runner.hpp"
#include "sim/sweep_grid.hpp"

namespace gs::sim {
namespace {

Scenario base_scenario() {
  Scenario sc;
  sc.app = workload::specjbb();
  sc.green = re_batt();
  sc.strategy = core::StrategyKind::Greedy;
  sc.availability = trace::Availability::Max;
  sc.burst_duration = Seconds(600.0);
  return sc;
}

TEST(BurstRunner, ProducesOneRecordPerEpoch) {
  const auto r = run_burst(base_scenario());
  EXPECT_EQ(r.epochs.size(), 10u);  // 600 s / 60 s epochs
}

TEST(BurstRunner, MaxAvailabilityFullSprintOnRenewables) {
  const auto r = run_burst(base_scenario());
  for (const auto& e : r.epochs) {
    EXPECT_EQ(e.setting, server::max_sprint());
    EXPECT_EQ(e.power_case, power::PowerCase::RenewableOnly);
    EXPECT_DOUBLE_EQ(e.grid_used.value(), 0.0);
  }
  EXPECT_GT(r.normalized_perf, 4.0);
  EXPECT_DOUBLE_EQ(r.grid_energy_used.value(), 0.0);
}

TEST(BurstRunner, MinAvailabilityRunsOnBattery) {
  auto sc = base_scenario();
  sc.availability = trace::Availability::Min;
  const auto r = run_burst(sc);
  // At night the battery carries the sprint (10 Ah sustains ~10 min full
  // sprint per the paper).
  EXPECT_GT(r.batt_energy_used.value(), 0.0);
  EXPECT_NEAR(r.re_energy_used.value(), 0.0, 1.0);
  EXPECT_GT(r.normalized_perf, 3.0);
}

TEST(BurstRunner, ReOnlyAtMinEqualsNormal) {
  // Paper Section IV-B: with REOnly and minimum availability the servers
  // stay in Normal mode on the grid, so normalized performance is 1.
  auto sc = base_scenario();
  sc.green = re_only();
  sc.availability = trace::Availability::Min;
  sc.strategy = core::StrategyKind::Hybrid;
  const auto r = run_burst(sc);
  EXPECT_NEAR(r.normalized_perf, 1.0, 1e-6);
  for (const auto& e : r.epochs) {
    EXPECT_EQ(e.setting, server::normal_mode());
  }
}

TEST(BurstRunner, LongBatteryOnlyBurstDegrades) {
  auto sc = base_scenario();
  sc.availability = trace::Availability::Min;
  sc.burst_duration = Seconds(3600.0);
  const auto r10 = run_burst(base_scenario());
  auto sc10min = base_scenario();
  sc10min.availability = trace::Availability::Min;
  const auto r_short = run_burst(sc10min);
  const auto r_long = run_burst(sc);
  EXPECT_LT(r_long.normalized_perf, r_short.normalized_perf);
  (void)r10;
}

TEST(BurstRunner, BatteryNeverCrossesDodCap) {
  auto sc = base_scenario();
  sc.availability = trace::Availability::Min;
  sc.burst_duration = Seconds(3600.0);
  const auto r = run_burst(sc);
  EXPECT_LE(r.final_battery_dod, 0.4 + 1e-9);
}

TEST(BurstRunner, Deterministic) {
  const auto a = run_burst(base_scenario());
  const auto b = run_burst(base_scenario());
  EXPECT_DOUBLE_EQ(a.normalized_perf, b.normalized_perf);
  EXPECT_DOUBLE_EQ(a.mean_goodput, b.mean_goodput);
  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  for (std::size_t i = 0; i < a.epochs.size(); ++i) {
    EXPECT_EQ(a.epochs[i].setting, b.epochs[i].setting);
  }
}

TEST(BurstRunner, NormalStrategyIsTheBaseline) {
  auto sc = base_scenario();
  sc.strategy = core::StrategyKind::Normal;
  const auto r = run_burst(sc);
  EXPECT_NEAR(r.normalized_perf, 1.0, 1e-9);
}

TEST(BurstRunner, EnergyAccountingIsConsistent) {
  const auto r = run_burst(base_scenario());
  double re = 0.0, batt = 0.0, grid = 0.0;
  for (const auto& e : r.epochs) {
    re += e.re_used.value() * 60.0;
    batt += e.batt_used.value() * 60.0;
    grid += e.grid_used.value() * 60.0;
  }
  EXPECT_NEAR(r.re_energy_used.value(), re, 1e-6);
  EXPECT_NEAR(r.batt_energy_used.value(), batt, 1e-6);
  EXPECT_NEAR(r.grid_energy_used.value(), grid, 1e-6);
}

/// Each energy must equal the in-order sum of power x epoch length over
/// the records, bit for bit (the order finish() adds them in).
void expect_energies_fold_the_records(const Scenario& sc,
                                      const BurstResult& r) {
  Joules re{0.0};
  Joules batt{0.0};
  Joules grid{0.0};
  for (const auto& e : r.epochs) {
    re += e.re_used * sc.epoch;
    batt += e.batt_used * sc.epoch;
    grid += e.grid_used * sc.epoch;
  }
  EXPECT_EQ(r.re_energy_used.value(), re.value());
  EXPECT_EQ(r.batt_energy_used.value(), batt.value());
  EXPECT_EQ(r.grid_energy_used.value(), grid.value());
}

// BurstSim bumps its counters epoch by epoch and folds the energies and
// mean goodput over its records in finish(); each aggregate must equal the
// same fold over the records it returns.
TEST(BurstRunner, AggregatesFoldTheEpochRecordsOfAStormCell) {
  std::vector<Scenario> cells(1, base_scenario());
  cells[0].strategy = core::StrategyKind::Hybrid;
  cells[0].availability = trace::Availability::Med;
  cells[0].burst_duration = Seconds(1800.0);
  cells[0].seed = 8;  // crashes, degraded epochs and all three health states
  add_storms(cells);  // uniform 0.3 faults, storms, health-aware Hybrid
  Scenario sc = cells[0];
  const auto r = run_burst(sc);

  RunningStats goodput;
  std::size_t crashed = 0;
  std::size_t degraded = 0;
  for (const auto& e : r.epochs) {
    goodput.add(e.goodput);
    crashed += e.crashed ? 1 : 0;
    degraded += e.degraded ? 1 : 0;
  }
  ASSERT_GT(crashed, 0u);
  ASSERT_GT(degraded, 0u);
  EXPECT_EQ(r.mean_goodput, goodput.mean());
  EXPECT_EQ(r.crash_epochs, crashed);
  EXPECT_EQ(r.degraded_epochs, degraded);
  Seconds downtime{0.0};
  for (const Seconds& s : r.fault_class_downtime) downtime += s;
  EXPECT_GT(downtime.value(), 0.0);
  EXPECT_EQ(r.fault_downtime.value(), downtime.value());
  std::size_t health = 0;
  for (const std::size_t n : r.health_state_epochs) health += n;
  EXPECT_EQ(health, r.epochs.size());
  expect_energies_fold_the_records(sc, r);

  sc.epoch = Seconds(30.0);  // energy scales with the epoch length
  expect_energies_fold_the_records(sc, run_burst(sc));
}

TEST(BurstRunner, DesModeShowsTheSameSprintBenefit) {
  auto analytic = base_scenario();
  auto des = base_scenario();
  des.use_des = true;
  const auto ra = run_burst(analytic);
  const auto rd = run_burst(des);
  // The DES measures SLA-goodput empirically under latency-aware
  // admission control; it has no timeout/retry collapse, so its Normal
  // baseline is stronger and its ratio lands below the calibrated
  // analytic one (~3x vs ~5x) while showing the same large benefit.
  EXPECT_GT(rd.normalized_perf, 2.0);
  EXPECT_LT(rd.normalized_perf, 1.1 * ra.normalized_perf);
}

TEST(BurstRunner, InvalidScenarioThrows) {
  auto sc = base_scenario();
  sc.green.green_servers = 0;
  EXPECT_THROW((void)(run_burst(sc)), gs::ContractError);
  sc = base_scenario();
  sc.burst_duration = Seconds(10.0);  // shorter than one epoch
  EXPECT_THROW((void)(run_burst(sc)), gs::ContractError);
}

TEST(BurstRunner, NormalizedPerformanceHelper) {
  const auto sc = base_scenario();
  EXPECT_DOUBLE_EQ(normalized_performance(sc), run_burst(sc).normalized_perf);
}

}  // namespace
}  // namespace gs::sim
