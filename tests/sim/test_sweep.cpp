#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>

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

/// sweep_fingerprint of perf_grid(false) and perf_grid(true): the digests
/// `gs_sweep` prints for the full and the `--smoke` grid.
constexpr std::uint64_t kPerfGridDigest = 0xcc9c9041d033048cull;
constexpr std::uint64_t kSmokeGridDigest = 0xed32a5c885a91ed8ull;

TEST(Sweep, CleanSweepMatchesGoldenDigest) {
  // The full sweep grid with no faults: 144 BurstSim cells (3 apps x 3
  // availabilities x 4 strategies x 2 durations x 2 seeds) through Hybrid,
  // the scalar Battery and the PSS.
  const std::vector<Scenario> grid = perf_grid(false);
  ASSERT_EQ(grid.size(), 144u);
  for (const std::size_t threads : {std::size_t(1), std::size_t(4)}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    EXPECT_EQ(sweep_fingerprint(run_sweep(grid, threads)), kPerfGridDigest);
  }
}

TEST(Sweep, SmokeGridIsIdenticalColdWarmAndSerial) {
  // Results must depend on neither the thread count nor the state of the
  // substrate caches: cold and warm at the default thread count, then warm
  // and cold on one thread.
  const std::vector<Scenario> grid = perf_grid(true);
  ASSERT_EQ(grid.size(), 8u);
  clear_substrate_caches();
  EXPECT_EQ(sweep_fingerprint(run_sweep(grid, 0)), kSmokeGridDigest)
      << "cold";
  EXPECT_EQ(sweep_fingerprint(run_sweep(grid, 0)), kSmokeGridDigest)
      << "warm";
  EXPECT_EQ(sweep_fingerprint(run_sweep(grid, 1)), kSmokeGridDigest)
      << "warm, one thread";
  clear_substrate_caches();
  EXPECT_EQ(sweep_fingerprint(run_sweep(grid, 1)), kSmokeGridDigest)
      << "cold, one thread";
}

TEST(Sweep, WarmPerfGridFloor) {
  // Throughput floor of the warm sweep engine: twice the 96.86 cells/s the
  // full grid ran at before the shared substrate caches and the
  // allocation-lean DES. A fast sweep with a wrong answer is no result, so
  // every timed run's digest is checked too. The best of three warm runs
  // is compared, so a test running alongside on the same cores cannot
  // fail it by stealing one window.
  constexpr double kFloorCellsPerSec = 2.0 * 96.86;
  constexpr int kTrials = 3;
  const std::vector<Scenario> grid = perf_grid(false);
  (void)run_sweep(grid);  // warms the solar, profile and seed caches
  double best_secs = 0.0;
  for (int trial = 0; trial < kTrials; ++trial) {
    const auto start = std::chrono::steady_clock::now();
    const auto warm = run_sweep(grid);
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    EXPECT_EQ(sweep_fingerprint(warm), kPerfGridDigest) << "trial " << trial;
    if (trial == 0 || secs < best_secs) best_secs = secs;
  }
  const double cells_per_sec = double(grid.size()) / best_secs;
  RecordProperty("cells_per_sec", std::to_string(cells_per_sec));
  EXPECT_GE(cells_per_sec, kFloorCellsPerSec);
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
