#include <gtest/gtest.h>

#include "common/assert.hpp"

#include "core/hybrid.hpp"
#include "core/profile_table.hpp"
#include "sim/sweep.hpp"
#include "sim/sweep_grid.hpp"
#include "trace/solar.hpp"

namespace gs::sim {
namespace {

void clear_substrate_caches() {
  trace::clear_solar_cache();
  core::ProfileTable::clear_shared_cache();
  core::HybridStrategy::clear_seed_cache();
}

std::vector<Scenario> small_grid() {
  std::vector<Scenario> out;
  for (auto avail : {trace::Availability::Min, trace::Availability::Max}) {
    for (auto kind :
         {core::StrategyKind::Greedy, core::StrategyKind::Pacing}) {
      Scenario sc;
      sc.app = workload::specjbb();
      sc.green = re_sbatt();
      sc.strategy = kind;
      sc.availability = avail;
      sc.burst_duration = Seconds(600.0);
      out.push_back(sc);
    }
  }
  return out;
}

TEST(Sweep, ResultsAlignWithScenarios) {
  const auto scenarios = small_grid();
  const auto results = run_sweep(scenarios, 2);
  ASSERT_EQ(results.size(), scenarios.size());
  for (const auto& r : results) {
    EXPECT_GT(r.normalized_perf, 0.0);
    EXPECT_FALSE(r.epochs.empty());
  }
}

TEST(Sweep, IndependentOfThreadCount) {
  const auto scenarios = small_grid();
  const auto serial = sweep_normalized_perf(scenarios, 1);
  const auto parallel = sweep_normalized_perf(scenarios, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial[i], parallel[i]) << "cell " << i;
  }
}

std::vector<Scenario> all_strategy_grid() {
  // Includes Hybrid (exercises the seed-table cache) and two apps / seeds
  // (exercises the profile and solar caches on distinct keys).
  std::vector<Scenario> out;
  for (const auto& app : {workload::specjbb(), workload::memcached()}) {
    for (auto kind : core::sprinting_strategies()) {
      Scenario sc;
      sc.app = app;
      sc.green = re_sbatt();
      sc.strategy = kind;
      sc.availability = trace::Availability::Med;
      sc.burst_duration = Seconds(600.0);
      sc.seed = 7;
      out.push_back(sc);
    }
  }
  return out;
}

TEST(Sweep, BitIdenticalAcrossThreadCounts) {
  const auto scenarios = all_strategy_grid();
  const auto fp1 = sweep_fingerprint(run_sweep(scenarios, 1));
  const auto fp4 = sweep_fingerprint(run_sweep(scenarios, 4));
  EXPECT_EQ(fp1, fp4);
}

TEST(Sweep, CleanSweepMatchesGoldenDigest) {
  // perf_sweep's full grid with no faults: 144 BurstSim cells (3 apps x 3
  // availabilities x 4 strategies x 2 durations x 2 seeds) through Hybrid,
  // the scalar Battery and the PSS.
  const std::vector<Scenario> grid = perf_grid(false);
  ASSERT_EQ(grid.size(), 144u);
  for (const std::size_t threads : {std::size_t(1), std::size_t(4)}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    EXPECT_EQ(sweep_fingerprint(run_sweep(grid, threads)),
              0xcc9c9041d033048cull);
  }
}

TEST(Sweep, BitIdenticalWarmAndColdCaches) {
  const auto scenarios = all_strategy_grid();
  clear_substrate_caches();
  const auto cold = run_sweep(scenarios, 2);
  // The cold sweep populated the substrate caches; the warm sweep must
  // actually hit them and still reproduce every field bit-for-bit.
  const auto hits_before = trace::solar_cache_stats().hits;
  const auto warm = run_sweep(scenarios, 2);
  EXPECT_GT(trace::solar_cache_stats().hits, hits_before);
  ASSERT_EQ(cold.size(), warm.size());
  EXPECT_EQ(sweep_fingerprint(cold), sweep_fingerprint(warm));
  for (std::size_t i = 0; i < cold.size(); ++i) {
    EXPECT_DOUBLE_EQ(cold[i].normalized_perf, warm[i].normalized_perf);
    EXPECT_DOUBLE_EQ(cold[i].re_energy_used.value(),
                     warm[i].re_energy_used.value());
    EXPECT_DOUBLE_EQ(cold[i].final_battery_dod, warm[i].final_battery_dod);
    ASSERT_EQ(cold[i].epochs.size(), warm[i].epochs.size());
  }
}

TEST(Sweep, FingerprintDetectsDifferences) {
  const auto scenarios = all_strategy_grid();
  auto perturbed = scenarios;
  perturbed[0].seed += 1;
  EXPECT_NE(sweep_fingerprint(run_sweep(scenarios, 1)),
            sweep_fingerprint(run_sweep(perturbed, 1)));
}

TEST(Sweep, SharedCachesReuseSubstrates) {
  const auto scenarios = all_strategy_grid();
  clear_substrate_caches();
  (void)run_sweep(scenarios, 1);
  // 8 cells over 2 apps and one availability: one solar trace config per
  // availability band, one profile per app, one seed table per app.
  EXPECT_EQ(core::ProfileTable::shared_cache_stats().misses, 2u);
  EXPECT_EQ(core::HybridStrategy::seed_cache_stats().misses, 2u);
  EXPECT_GT(trace::solar_cache_stats().hits, 0u);
}

TEST(Sweep, EmptyInputYieldsEmptyOutput) {
  EXPECT_TRUE(run_sweep({}, 2).empty());
}

TEST(Sweep, PropagatesScenarioErrors) {
  auto scenarios = small_grid();
  scenarios[1].green.green_servers = 0;  // invalid
  EXPECT_THROW((void)(run_sweep(scenarios, 2)), gs::ContractError);
}

TEST(Sweep, MatchesIndividualRuns) {
  const auto scenarios = small_grid();
  const auto results = run_sweep(scenarios, 3);
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    EXPECT_DOUBLE_EQ(results[i].normalized_perf,
                     run_burst(scenarios[i]).normalized_perf);
  }
}

}  // namespace
}  // namespace gs::sim
