#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <unistd.h>

#include "common/assert.hpp"
#include "common/io.hpp"
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

TEST(Export, SummaryRowRoundTrips) {
  const auto sc = small_scenario();
  const auto r = run_burst(sc);
  std::ostringstream os;
  export_summary_header(os);
  export_summary_row(os, sc, r);
  const std::string out = os.str();
  EXPECT_NE(out.find("SPECjbb"), std::string::npos);
  EXPECT_NE(out.find("RE-SBatt"), std::string::npos);
  EXPECT_NE(out.find("Pacing"), std::string::npos);
  EXPECT_NE(out.find("Max"), std::string::npos);
  // Two lines: header + row.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 2);
}

TEST(Export, FileExport) {
  const auto r = run_burst(small_scenario());
  const std::string path = ::testing::TempDir() + "/gs_epochs_" +
                           std::to_string(::getpid()) + ".csv";
  export_epochs_csv_file(path, r);
  std::ifstream in(path);
  EXPECT_TRUE(in.good());
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header.rfind("t_s,", 0), 0u);
  std::remove(path.c_str());
}

TEST(Export, BadPathThrows) {
  const auto r = run_burst(small_scenario());
  // Exports commit through the gs::io shim, whose failures are IoError.
  EXPECT_THROW(export_epochs_csv_file("/nonexistent/dir/x.csv", r),
               gs::io::IoError);
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

TEST(Export, AvailabilityCsvHasPerClassAndTotalRows) {
  auto sc = small_scenario();
  sc.burst_duration = Seconds(1800.0);
  sc.faults = faults::FaultSpec::uniform(0.4, 7);
  const auto rep = availability_report(run_burst(sc), Seconds(60.0));
  std::ostringstream os;
  export_availability_csv(os, rep);
  const std::string out = os.str();
  EXPECT_EQ(out.rfind("fault_class,incidents,downtime_s", 0), 0u);
  EXPECT_NE(out.find("\ntotal,"), std::string::npos);
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'),
            std::ptrdiff_t(rep.per_class.size()) + 2);  // header + total
}

TEST(Export, AvailabilityCsvReportsNoFailuresInsteadOfZeroMtbf) {
  // Regression: a failure-free run has undefined MTTR/MTBF; the total row
  // must say so instead of printing 0.0 (which reads as instant failure).
  const auto rep = availability_report(run_burst(small_scenario()),
                                       Seconds(60.0));
  ASSERT_EQ(rep.incidents, 0u);
  std::ostringstream os;
  export_availability_csv(os, rep);
  const std::string out = os.str();
  EXPECT_NE(out.find("total,0,0,no-failures,no-failures,"),
            std::string::npos);
  // A faulted run keeps the numeric columns.
  auto sc = small_scenario();
  sc.burst_duration = Seconds(1800.0);
  sc.faults = faults::FaultSpec::uniform(0.4, 7);
  const auto faulted = availability_report(run_burst(sc), Seconds(60.0));
  ASSERT_GT(faulted.incidents, 0u);
  std::ostringstream os2;
  export_availability_csv(os2, faulted);
  EXPECT_EQ(os2.str().find("no-failures"), std::string::npos);
}

TEST(Export, AvailabilityRejectsNonPositiveEpoch) {
  const auto r = run_burst(small_scenario());
  EXPECT_THROW((void)availability_report(r, Seconds(0.0)), gs::ContractError);
}

}  // namespace
}  // namespace gs::sim
