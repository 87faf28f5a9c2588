#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/assert.hpp"
#include "sim/day_runner.hpp"
#include "trace/solar.hpp"

namespace gs::sim {
namespace {

DayRunConfig base() {
  DayRunConfig cfg;
  cfg.days = 1;
  cfg.daily_bursts = default_daily_bursts();
  return cfg;
}

TEST(DayRunner, AccountsBurstsAndSprintTime) {
  const auto r = run_days(base());
  EXPECT_EQ(r.bursts_served, 3);  // morning / midday / evening
  EXPECT_GT(r.sprint_time.value(), 0.0);
  EXPECT_GT(r.sprint_hours_per_server, 0.0);
  // Upper bound: total burst time is 1200 + 1800 + 900 s ~ 1.08 h.
  EXPECT_LE(r.sprint_hours_per_server, 1.2);
}

TEST(DayRunner, BurstSpeedupIsMaterial) {
  const auto r = run_days(base());
  EXPECT_GT(r.burst_speedup, 2.0);
  EXPECT_LT(r.burst_speedup, 6.0);
}

TEST(DayRunner, EnergyBysourceIsPositive) {
  const auto r = run_days(base());
  // The midday burst rides the sun; the evening one needs the battery.
  EXPECT_GT(r.re_energy.value(), 0.0);
  EXPECT_GT(r.batt_energy.value(), 0.0);
}

TEST(DayRunner, NoBurstsNoSprinting) {
  auto cfg = base();
  cfg.daily_bursts.clear();
  const auto r = run_days(cfg);
  EXPECT_EQ(r.bursts_served, 0);
  EXPECT_DOUBLE_EQ(r.sprint_time.value(), 0.0);
  EXPECT_DOUBLE_EQ(r.burst_speedup, 0.0);
}

TEST(DayRunner, MultiDayAccumulates) {
  // The synthetic week forces day 0 clear and day 1 overcast, so sprint
  // hours are NOT linear in days — but bursts are served every day and
  // sprint time only accumulates.
  auto one = base();
  auto three = base();
  three.days = 3;
  const auto r1 = run_days(one);
  const auto r3 = run_days(three);
  EXPECT_EQ(r3.bursts_served, 3 * r1.bursts_served);
  EXPECT_GT(r3.sprint_hours_per_server, r1.sprint_hours_per_server);
  EXPECT_LE(r3.sprint_hours_per_server,
            3.0 * r1.sprint_hours_per_server + 1e-9);
}

TEST(DayRunner, YearlyExtrapolation) {
  const auto r = run_days(base());
  const double yearly = yearly_sprint_hours(r);
  EXPECT_NEAR(yearly, r.sprint_hours_per_server * 365.0, 1e-6);
  // Three bursts/day ~ 1 h/day of sprinting: deep into Fig. 11's
  // profitable region (>> 14 h/yr break-even).
  EXPECT_GT(yearly, 100.0);
}

TEST(DayRunner, BatteriesWearWithUse) {
  const auto r = run_days(base());
  EXPECT_GT(r.battery_cycles, 0.0);
  EXPECT_LT(r.battery_cycles, 10.0);  // a day of bursts, not a stress test
}

TEST(DayRunner, LiveFedSimBuildsNoSolarTrace) {
  // The serve daemon feeds irradiance through step_live: a sim driven only
  // that way never reads the synthetic trace, so it must not build one.
  const DayRunConfig cfg = base();
  const std::vector<LiveEpoch> plan = day_feed_plan(cfg);
  trace::clear_solar_cache();
  DaySim sim(cfg);
  for (const LiveEpoch& e : plan) sim.step_live(e);
  const DayRunResult live = sim.finish();
  EXPECT_EQ(trace::solar_cache_stats().misses, 0u);
  EXPECT_EQ(day_result_fingerprint(live),
            day_result_fingerprint(run_days(cfg)));
}

TEST(DayRunner, FirstStepBuildsTheTraceOnce) {
  const DayRunConfig cfg = base();
  const std::uint64_t want = day_result_fingerprint(run_days(cfg));
  trace::clear_solar_cache();
  DaySim sim(cfg);
  EXPECT_EQ(trace::solar_cache_stats().misses, 0u);
  sim.step();
  EXPECT_EQ(trace::solar_cache_stats().misses, 1u);
  while (!sim.done()) sim.step();
  // The sim keeps the trace it fetched: later epochs never look it up.
  EXPECT_EQ(trace::solar_cache_stats().misses, 1u);
  EXPECT_EQ(trace::solar_cache_stats().hits, 0u);
  EXPECT_EQ(day_result_fingerprint(sim.finish()), want);
}

TEST(DayRunner, InvalidConfigThrows) {
  auto cfg = base();
  cfg.days = 0;
  EXPECT_THROW((void)run_days(cfg), gs::ContractError);
}

}  // namespace
}  // namespace gs::sim
