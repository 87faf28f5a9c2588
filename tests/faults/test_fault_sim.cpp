// End-to-end fault injection through the burst runner plus the
// degraded-mode state machine: the acceptance tests of the resilience
// subsystem.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/greensprint.hpp"
#include "sim/burst_runner.hpp"
#include "sim/day_runner.hpp"
#include "sim/sweep.hpp"
#include "sim/sweep_grid.hpp"

namespace gs::sim {
namespace {

Scenario base_scenario() {
  Scenario sc;
  sc.app = workload::specjbb();
  sc.green = re_sbatt();
  sc.strategy = core::StrategyKind::Hybrid;
  sc.availability = trace::Availability::Med;
  sc.burst_duration = Seconds(900.0);
  return sc;
}

TEST(FaultSim, ZeroSpecIsBitIdenticalToFaultFreeRun) {
  // The regression acceptance criterion: an all-zero FaultSpec must not
  // perturb anything — same results, epoch for epoch, bit for bit.
  Scenario plain = base_scenario();
  Scenario zeroed = base_scenario();
  zeroed.faults = faults::FaultSpec{};
  zeroed.faults.seed = 999;  // a seed alone must not enable anything
  const auto a = run_burst(plain);
  const auto b = run_burst(zeroed);
  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  EXPECT_EQ(a.normalized_perf, b.normalized_perf);
  EXPECT_EQ(a.mean_goodput, b.mean_goodput);
  EXPECT_EQ(a.final_battery_dod, b.final_battery_dod);
  EXPECT_EQ(a.re_energy_used.value(), b.re_energy_used.value());
  EXPECT_EQ(a.batt_energy_used.value(), b.batt_energy_used.value());
  EXPECT_EQ(a.grid_energy_used.value(), b.grid_energy_used.value());
  for (std::size_t i = 0; i < a.epochs.size(); ++i) {
    EXPECT_EQ(a.epochs[i].goodput, b.epochs[i].goodput);
    EXPECT_EQ(a.epochs[i].demand.value(), b.epochs[i].demand.value());
    EXPECT_EQ(a.epochs[i].battery_soc, b.epochs[i].battery_soc);
    EXPECT_EQ(a.epochs[i].setting, b.epochs[i].setting);
    EXPECT_FALSE(b.epochs[i].faulted);
    EXPECT_FALSE(b.epochs[i].crashed);
    EXPECT_FALSE(b.epochs[i].degraded);
  }
  EXPECT_EQ(b.degraded_epochs, 0u);
  EXPECT_EQ(b.crash_epochs, 0u);
  EXPECT_EQ(b.fault_downtime.value(), 0.0);
}

TEST(FaultSim, BrownoutPlusPanelDropoutCompletesUnderEveryStrategy) {
  // The headline resilience scenario: grid brownout + panel dropouts. No
  // strategy may crash, unbalance the books, or breach the DoD cap.
  for (auto k : core::sprinting_strategies()) {
    Scenario sc = base_scenario();
    sc.strategy = k;
    sc.faults = faults::FaultSpec::parse("brownout=0.6,panel=0.5,seed=11");
    const BurstResult r = run_burst(sc);
    SCOPED_TRACE(core::to_string(k));
    EXPECT_GT(r.normalized_perf, 0.0);
    EXPECT_LT(r.normalized_perf, 7.0);
    EXPECT_LE(r.final_battery_dod, 0.4 + 1e-9);
    EXPECT_GT(r.fault_downtime.value(), 0.0);
    for (const auto& e : r.epochs) {
      const double supplied = e.re_used.value() + e.batt_used.value() +
                              e.grid_used.value();
      // Faults may starve the demand (that is the point) but the books
      // must never over-supply.
      EXPECT_LE(supplied, e.demand.value() + 1e-6);
      EXPECT_GE(e.goodput, 0.0);
      EXPECT_GE(e.battery_soc, 0.6 - 1e-9);
    }
  }
}

TEST(FaultSim, SameSeedsSameResults) {
  // (scenario seed, fault seed) fully determines the run.
  Scenario sc = base_scenario();
  sc.faults = faults::FaultSpec::uniform(0.4, 17);
  const auto a = run_burst(sc);
  const auto b = run_burst(sc);
  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  for (std::size_t i = 0; i < a.epochs.size(); ++i) {
    EXPECT_EQ(a.epochs[i].goodput, b.epochs[i].goodput);
    EXPECT_EQ(a.epochs[i].faulted, b.epochs[i].faulted);
    EXPECT_EQ(a.epochs[i].crashed, b.epochs[i].crashed);
    EXPECT_EQ(a.epochs[i].degraded, b.epochs[i].degraded);
  }
  EXPECT_EQ(a.normalized_perf, b.normalized_perf);
  EXPECT_EQ(a.fault_downtime.value(), b.fault_downtime.value());
}

TEST(FaultSim, DifferentFaultSeedsDifferentRuns) {
  Scenario sc = base_scenario();
  sc.faults = faults::FaultSpec::uniform(0.5, 1);
  const auto a = run_burst(sc);
  sc.faults.seed = 2;
  const auto b = run_burst(sc);
  EXPECT_NE(a.fault_downtime.value(), b.fault_downtime.value());
}

TEST(FaultSim, CrashEpochsProduceZeroGoodputAndDowntime) {
  Scenario sc = base_scenario();
  sc.faults = faults::FaultSpec::parse("crash=1.0,seed=3");
  const auto r = run_burst(sc);
  EXPECT_GT(r.crash_epochs, 0u);
  std::size_t seen = 0;
  for (const auto& e : r.epochs) {
    if (!e.crashed) continue;
    ++seen;
    EXPECT_EQ(e.goodput, 0.0);
    EXPECT_EQ(e.demand.value(), 0.0);
    EXPECT_TRUE(e.faulted);
  }
  EXPECT_EQ(seen, r.crash_epochs);
  EXPECT_GT(r.fault_downtime.value(), 0.0);
}

TEST(FaultSim, MonitorAccountsDowntimePerClass) {
  Scenario sc = base_scenario();
  // Intensity 1.0 guarantees the candidate events activate, so the burst
  // window is certain to overlap at least one brownout.
  sc.faults = faults::FaultSpec::parse("brownout=1.0,seed=5");
  const auto r = run_burst(sc);
  // Downtime accrues in whole epochs while any fault class is active.
  EXPECT_GT(r.fault_downtime.value(), 0.0);
  const double n_faulted_epochs =
      r.fault_downtime.value() / base_scenario().epoch.value();
  EXPECT_EQ(n_faulted_epochs, std::floor(n_faulted_epochs));
}

TEST(FaultSim, DayRunnerZeroSpecMatchesFaultFree) {
  DayRunConfig cfg;
  cfg.days = 1;
  cfg.daily_bursts = default_daily_bursts();
  const auto plain = run_days(cfg);
  cfg.faults = faults::FaultSpec{};
  cfg.faults.seed = 123;
  const auto zeroed = run_days(cfg);
  EXPECT_EQ(plain.mean_burst_goodput, zeroed.mean_burst_goodput);
  EXPECT_EQ(plain.sprint_time.value(), zeroed.sprint_time.value());
  EXPECT_EQ(plain.battery_cycles, zeroed.battery_cycles);
  EXPECT_EQ(zeroed.crash_epochs, 0u);
  EXPECT_EQ(zeroed.degraded_epochs, 0u);
}

TEST(FaultSim, DayRunnerSurvivesHeavyFaultsAcrossCluster) {
  // The green-cluster path: per-server crashes, stragglers, PSS faults
  // and component derates over a full day must complete with sane books.
  DayRunConfig cfg;
  cfg.days = 1;
  cfg.daily_bursts = default_daily_bursts();
  cfg.faults = faults::FaultSpec::uniform(0.6, 41);
  const auto r = run_days(cfg);
  EXPECT_GT(r.bursts_served, 0);
  EXPECT_GE(r.mean_burst_goodput, 0.0);
  EXPECT_GT(r.crash_epochs + r.degraded_epochs, 0u);
  EXPECT_GE(r.re_energy.value(), 0.0);
  EXPECT_GE(r.batt_energy.value(), 0.0);
  EXPECT_GE(r.grid_energy.value(), 0.0);
  // Determinism across the cluster path too.
  const auto again = run_days(cfg);
  EXPECT_EQ(r.mean_burst_goodput, again.mean_burst_goodput);
  EXPECT_EQ(r.crash_epochs, again.crash_epochs);
  EXPECT_EQ(r.degraded_epochs, again.degraded_epochs);
}

// Golden digests of faulted and clean runs, captured with gcc 12 -O2. They
// pin the whole chain from the fault schedule through FaultInjector::at
// into the runners: a change that moves any bit of a faulted run fails
// here, not only in the fingerprint lanes outside ctest.

/// The gs_bench day-campaign config: 3 days, 16 Hybrid servers on
/// EqualShare, the default bursts stretched 6x, seeds shifted by seed - 1.
DayRunConfig bench_day_config(std::uint64_t seed, bool faulted) {
  DayRunConfig cfg;
  cfg.days = 3;
  cfg.cluster.servers = 16;
  cfg.cluster.strategy = core::StrategyKind::Hybrid;
  cfg.cluster.allocation = ReAllocation::EqualShare;
  cfg.daily_bursts = default_daily_bursts();
  for (auto& b : cfg.daily_bursts) b.duration = b.duration * 6.0;
  cfg.solar_seed += seed - 1;
  cfg.diurnal.seed += seed - 1;
  if (faulted) cfg.faults = faults::FaultSpec::uniform(0.3, seed);
  return cfg;
}

TEST(FaultSim, DayCampaignMatchesGoldenDigests) {
  struct Golden {
    std::uint64_t seed;
    bool faulted;
    std::uint64_t digest;
  };
  const Golden golden[] = {
      {1, true, 0x9e98f32133676e4full},
      {2, true, 0x03a2762f5be71358ull},
      {1, false, 0x880c3596388c363aull},
      {2, false, 0xa7fd7080324f6bf9ull},
  };
  for (const Golden& g : golden) {
    SCOPED_TRACE("seed " + std::to_string(g.seed) +
                 (g.faulted ? " uniform(0.3)" : " clean"));
    EXPECT_EQ(day_result_fingerprint(run_days(bench_day_config(g.seed,
                                                               g.faulted))),
              g.digest);
  }
}

TEST(FaultSim, StormSweepMatchesGoldenDigest) {
  // gs_sweep --smoke --storm: the smoke grid under correlated storms.
  std::vector<Scenario> grid = perf_grid(true);
  add_storms(grid);
  for (const std::size_t threads : {std::size_t(1), std::size_t(4)}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    EXPECT_EQ(sweep_fingerprint(run_sweep(grid, threads)),
              0x146a06aa43d8c2adull);
  }
}

TEST(DegradedMode, HysteresisClampsAndRecovers) {
  // Unit-level walk of the state machine: Healthy -> Degraded on a
  // disturbance, Recovering on the first healthy epoch, Healthy only
  // after `recovery_epochs` consecutive healthy epochs.
  using namespace gs::core;
  const auto app = workload::specjbb();
  const workload::PerfModel perf{app};
  const server::ServerPowerModel power{Watts(76.0)};
  const ProfileTable table{perf, power};
  ControllerConfig cfg{StrategyKind::Greedy, PredictorConfig{},
                       Seconds(60.0)};
  GreenSprintController c(app, table, power.idle_power(), cfg);
  EXPECT_EQ(c.health(), HealthState::Healthy);
  EXPECT_FALSE(c.degraded());

  c.notify_health(/*supply_shortfall=*/true, /*stale_telemetry=*/false);
  EXPECT_EQ(c.health(), HealthState::Degraded);
  EXPECT_TRUE(c.degraded());

  // While degraded the controller plans Normal mode no matter the supply.
  const double lambda = perf.intensity_load(12);
  for (int i = 0; i < 20; ++i) c.observe_idle(lambda, Watts(500.0));
  auto s = c.begin_epoch(lambda, Watts(500.0));
  EXPECT_EQ(s, server::normal_mode());
  c.end_epoch(Watts(500.0), c.demand(lambda, s), Watts(500.0),
              Seconds(0.1));

  // Recovery takes cfg.recovery_epochs consecutive healthy epochs.
  for (int i = 0; i < cfg.recovery_epochs - 1; ++i) {
    c.notify_health(false, false);
    EXPECT_EQ(c.health(), HealthState::Recovering) << "epoch " << i;
    EXPECT_TRUE(c.degraded());
  }
  c.notify_health(false, false);
  EXPECT_EQ(c.health(), HealthState::Healthy);
  EXPECT_FALSE(c.degraded());

  // Healthy again: the same supply now yields a sprint.
  s = c.begin_epoch(lambda, Watts(500.0));
  EXPECT_NE(s, server::normal_mode());

  // A disturbance mid-recovery restarts the clock.
  c.end_epoch(Watts(500.0), c.demand(lambda, s), Watts(500.0),
              Seconds(0.1));
  c.notify_health(true, false);
  c.notify_health(false, false);
  EXPECT_EQ(c.health(), HealthState::Recovering);
  c.notify_health(true, false);  // relapse
  EXPECT_EQ(c.health(), HealthState::Degraded);
}

TEST(DegradedMode, StaleTelemetryAloneDegrades) {
  using namespace gs::core;
  const auto app = workload::specjbb();
  const workload::PerfModel perf{app};
  const server::ServerPowerModel power{Watts(76.0)};
  const ProfileTable table{perf, power};
  GreenSprintController c(app, table, power.idle_power(),
                          {StrategyKind::Hybrid, PredictorConfig{},
                           Seconds(60.0)});
  c.notify_health(false, /*stale_telemetry=*/true);
  EXPECT_TRUE(c.degraded());
}

}  // namespace
}  // namespace gs::sim
