#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <unistd.h>

#include "common/assert.hpp"
#include "trace/csv_io.hpp"

namespace gs::trace {
namespace {

TEST(CsvIo, RoundTripSyntheticTrace) {
  SolarTraceConfig cfg;
  cfg.days = 1;
  const auto original = generate_solar_trace(cfg);
  std::stringstream buf;
  save_solar_csv(buf, original);
  const auto loaded = load_solar_csv(buf);
  ASSERT_EQ(loaded.samples().size(), original.samples().size());
  for (std::size_t i = 0; i < loaded.samples().size(); ++i) {
    EXPECT_NEAR(loaded.samples()[i], original.samples()[i], 1e-6);
  }
}

TEST(CsvIo, SingleColumnNormalizedValues) {
  std::istringstream in("0.0\n0.5\n1.0\n0.25\n");
  const auto tr = load_solar_csv(in);
  ASSERT_EQ(tr.samples().size(), 4u);
  EXPECT_DOUBLE_EQ(tr.samples()[1], 0.5);
}

TEST(CsvIo, RawIrradianceIsNormalizedToPeak) {
  // Values above the raw threshold are treated as W/m^2.
  std::istringstream in("0\n250\n1000\n500\n");
  const auto tr = load_solar_csv(in);
  EXPECT_DOUBLE_EQ(tr.samples()[2], 1.0);
  EXPECT_DOUBLE_EQ(tr.samples()[1], 0.25);
}

TEST(CsvIo, TwoColumnTakesValueColumn) {
  std::istringstream in("0,0.1\n60,0.2\n120,0.3\n");
  const auto tr = load_solar_csv(in);
  ASSERT_EQ(tr.samples().size(), 3u);
  EXPECT_DOUBLE_EQ(tr.samples()[2], 0.3);
}

TEST(CsvIo, HeaderIsSkippedWhenConfigured) {
  std::istringstream in("time,ghi\n0,0.5\n60,0.7\n");
  SolarCsvOptions opts;
  opts.has_header = true;
  const auto tr = load_solar_csv(in, opts);
  ASSERT_EQ(tr.samples().size(), 2u);
  EXPECT_DOUBLE_EQ(tr.samples()[0], 0.5);
}

TEST(CsvIo, CrlfAndBlankLinesTolerated) {
  std::istringstream in("0.5\r\n\n0.75\r\n");
  const auto tr = load_solar_csv(in);
  ASSERT_EQ(tr.samples().size(), 2u);
  EXPECT_DOUBLE_EQ(tr.samples()[1], 0.75);
}

TEST(CsvIo, CustomSamplePeriod) {
  std::istringstream in("0.1\n0.2\n");
  SolarCsvOptions opts;
  opts.sample_period = Seconds(300.0);
  const auto tr = load_solar_csv(in, opts);
  EXPECT_DOUBLE_EQ(tr.period().value(), 300.0);
}

TEST(CsvIo, EmptyFileThrows) {
  std::istringstream in("");
  EXPECT_THROW((void)load_solar_csv(in), gs::ContractError);
}

TEST(CsvIo, MalformedValueThrows) {
  std::istringstream in("0.5\nnot-a-number\n");
  EXPECT_THROW((void)load_solar_csv(in), gs::ContractError);
}

TEST(CsvIo, NormalizedValueOutOfRangeThrows) {
  std::istringstream in("0.5\n1.5\n");
  // Peak 1.5 < raw threshold 2.0, so it is treated as a fraction and must
  // be rejected.
  EXPECT_THROW((void)load_solar_csv(in), gs::ContractError);
}

TEST(CsvIo, MissingFileThrows) {
  EXPECT_THROW((void)load_solar_csv_file("/nonexistent/path.csv"),
               gs::ContractError);
}

TEST(CsvIo, FileRoundTrip) {
  SolarTraceConfig cfg;
  cfg.days = 1;
  const auto original = generate_solar_trace(cfg);
  const std::string path = ::testing::TempDir() + "/gs_trace_" +
                           std::to_string(::getpid()) + ".csv";
  save_solar_csv_file(path, original);
  const auto loaded = load_solar_csv_file(path);
  EXPECT_EQ(loaded.samples().size(), original.samples().size());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gs::trace
