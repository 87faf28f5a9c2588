#include <gtest/gtest.h>

#include <vector>

#include "core/profile_table.hpp"
#include "faults/correlation.hpp"
#include "faults/fault_spec.hpp"
#include "server/power_model.hpp"
#include "sim/burst_runner.hpp"
#include "sim/oracle_runner.hpp"
#include "workload/perf_model.hpp"

namespace gs::sim {
namespace {

Scenario make(trace::Availability a, double minutes, GreenConfig cfg,
              core::StrategyKind k = core::StrategyKind::Hybrid) {
  Scenario sc;
  sc.app = workload::specjbb();
  sc.green = std::move(cfg);
  sc.strategy = k;
  sc.availability = a;
  sc.burst_duration = Seconds(minutes * 60.0);
  return sc;
}

class OracleDominance
    : public ::testing::TestWithParam<
          std::tuple<core::StrategyKind, trace::Availability>> {};

TEST_P(OracleDominance, OracleIsAnUpperBound) {
  // The offline-optimal plan must (weakly) dominate every online strategy
  // on the same scenario. Small tolerance covers the profile-level
  // quantization differences between the two evaluation paths.
  const auto [kind, avail] = GetParam();
  const auto sc = make(avail, 30.0, re_sbatt(), kind);
  const auto online = run_burst(sc);
  const auto oracle = run_oracle(sc);
  EXPECT_GE(oracle.normalized_perf, online.normalized_perf - 0.05)
      << core::to_string(kind) << "/" << trace::to_string(avail);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, OracleDominance,
    ::testing::Combine(::testing::Values(core::StrategyKind::Greedy,
                                         core::StrategyKind::Parallel,
                                         core::StrategyKind::Pacing,
                                         core::StrategyKind::Hybrid),
                       ::testing::Values(trace::Availability::Min,
                                         trace::Availability::Med,
                                         trace::Availability::Max)),
    [](const auto& info) {
      return std::string(core::to_string(std::get<0>(info.param))) +
             trace::to_string(std::get<1>(info.param));
    });

TEST(OracleRunner, MaxAvailabilityMatchesOnline) {
  // With ample supply there is nothing for foresight to exploit: online
  // Greedy already sprints maximally, so the regret should be ~0.
  const auto sc = make(trace::Availability::Max, 15.0, re_batt(),
                       core::StrategyKind::Greedy);
  const auto online = run_burst(sc);
  const auto oracle = run_oracle(sc);
  EXPECT_NEAR(oracle.normalized_perf, online.normalized_perf, 0.05);
}

TEST(OracleRunner, PlanLengthMatchesEpochCount) {
  const auto sc = make(trace::Availability::Med, 30.0, re_sbatt());
  const auto oracle = run_oracle(sc);
  EXPECT_EQ(oracle.plan.settings.size(), 30u);
}

TEST(OracleRunner, NormalizationBaselineConsistent) {
  const auto sc = make(trace::Availability::Min, 15.0, re_only());
  const auto oracle = run_oracle(sc);
  const auto online = run_burst(sc);
  EXPECT_DOUBLE_EQ(oracle.normal_goodput, online.normal_goodput);
  // REOnly at night: even the oracle can only run Normal mode.
  EXPECT_NEAR(oracle.normalized_perf, 1.0, 1e-6);
}

std::vector<Watts> recorded_supply(const BurstResult& r) {
  std::vector<Watts> supply;
  for (const EpochRecord& e : r.epochs) supply.push_back(e.re_available);
  return supply;
}

TEST(OracleRunner, PlansAgainstTheCorrelatedFaultHistory) {
  // The bound must be planned against the failure history the online run
  // faced, correlated processes included. With solar faults only (no
  // fade), that history is exactly the faulted green supply BurstSim
  // records per epoch as re_available.
  auto sc = make(trace::Availability::Med, 60.0, re_sbatt());
  sc.faults = faults::FaultSpec::parse("panel=0.6,cloud=0.5,seed=11");
  sc.fault_correlation =
      faults::CorrelationSpec::parse("storm=0.9,cascade=0.5,regime_on=0.2");
  const auto supply = recorded_supply(run_burst(sc));

  // The correlated history must differ from the independent one, or this
  // test could not tell which one the oracle planned against.
  auto independent = sc;
  independent.fault_correlation = {};
  const auto independent_supply = recorded_supply(run_burst(independent));
  ASSERT_EQ(independent_supply.size(), supply.size());
  bool differs = false;
  for (std::size_t e = 0; e < supply.size(); ++e) {
    differs = differs || supply[e].value() != independent_supply[e].value();
  }
  ASSERT_TRUE(differs);

  const workload::PerfModel perf(sc.app);
  const server::ServerPowerModel pmodel(Watts(76.0));
  const auto profile = core::ProfileTable::shared(perf, pmodel);
  power::BatteryConfig bc;
  bc.capacity = sc.green.battery;
  const double lambda = perf.intensity_load(sc.burst_intensity);
  const auto expected = core::oracle_plan(*profile, supply, lambda, bc,
                                          sc.epoch, sc.app.normal_full_power);

  const auto oracle = run_oracle(sc);
  ASSERT_EQ(oracle.plan.settings.size(), expected.settings.size());
  for (std::size_t e = 0; e < expected.settings.size(); ++e) {
    EXPECT_EQ(oracle.plan.settings[e].cores, expected.settings[e].cores)
        << "epoch " << e;
    EXPECT_EQ(oracle.plan.settings[e].freq_idx, expected.settings[e].freq_idx)
        << "epoch " << e;
  }
  EXPECT_EQ(oracle.plan.total_goodput, expected.total_goodput);
}

}  // namespace
}  // namespace gs::sim
