#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/assert.hpp"
#include "sim/export.hpp"

namespace gs::sim {
namespace {

Scenario small_scenario() {
  Scenario sc;
  sc.app = workload::specjbb();
  sc.green = re_sbatt();
  sc.strategy = core::StrategyKind::Pacing;
  sc.availability = trace::Availability::Max;
  sc.burst_duration = Seconds(300.0);
  return sc;
}

TEST(Export, EpochCsvHasHeaderAndOneRowPerEpoch) {
  const auto r = run_burst(small_scenario());
  std::ostringstream os;
  export_epochs_csv(os, r);
  std::istringstream in(os.str());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, r.epochs.size() + 1);
  EXPECT_EQ(os.str().rfind("t_s,cores,freq_ghz", 0), 0u);
}

TEST(Export, EpochRowsCarryTheData) {
  const auto r = run_burst(small_scenario());
  std::ostringstream os;
  export_epochs_csv(os, r);
  // Max-availability Pacing: 12-core rows must appear (frequency is
  // formatted shortest-round-trip, so 2.0 GHz prints as "2").
  EXPECT_NE(os.str().find(",12,2,"), std::string::npos);
  EXPECT_NE(os.str().find("RenewableOnly"), std::string::npos);
}

TEST(Export, AvailabilityReportOnHealthyRunIsPerfect) {
  const auto r = run_burst(small_scenario());
  const auto rep = availability_report(r, Seconds(60.0));
  EXPECT_DOUBLE_EQ(rep.availability, 1.0);
  EXPECT_EQ(rep.incidents, 0u);
  EXPECT_DOUBLE_EQ(rep.downtime.value(), 0.0);
  EXPECT_DOUBLE_EQ(rep.impaired.value(), 0.0);
  EXPECT_DOUBLE_EQ(rep.observed.value(), 60.0 * double(r.epochs.size()));
  EXPECT_TRUE(rep.per_class.empty());
}

TEST(Export, AvailabilityReportUnderFaults) {
  auto sc = small_scenario();
  sc.burst_duration = Seconds(1800.0);
  sc.faults = faults::FaultSpec::uniform(0.4, 7);
  const auto r = run_burst(sc);
  const auto rep = availability_report(r, Seconds(60.0));
  ASSERT_GT(rep.incidents, 0u);
  EXPECT_LT(rep.availability, 1.0);
  EXPECT_GE(rep.availability, 0.0);
  // The union of impaired time never exceeds the window even when the
  // per-class sum does (concurrently active classes).
  EXPECT_LE(rep.impaired.value(), rep.observed.value() + 1e-9);
  EXPECT_GE(rep.downtime.value(), rep.impaired.value() - 1e-9);
  for (const auto& row : rep.per_class) {
    EXPECT_GT(row.incidents, 0u);
    EXPECT_GT(row.downtime.value(), 0.0);
    EXPECT_DOUBLE_EQ(row.mttr.value(),
                     row.downtime.value() / double(row.incidents));
    EXPECT_GE(row.mtbf.value(), 0.0);
  }
  EXPECT_DOUBLE_EQ(rep.mttr.value(),
                   rep.downtime.value() / double(rep.incidents));
}

TEST(Export, AvailabilityRejectsNonPositiveEpoch) {
  const auto r = run_burst(small_scenario());
  EXPECT_THROW((void)availability_report(r, Seconds(0.0)), gs::ContractError);
}

}  // namespace
}  // namespace gs::sim
