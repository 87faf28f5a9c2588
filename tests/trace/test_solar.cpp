#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "common/assert.hpp"
#include "common/keyed_cache.hpp"
#include "trace/solar.hpp"

namespace gs::trace {
namespace {

SolarTrace week(std::uint64_t seed = 42) {
  SolarTraceConfig cfg;
  cfg.seed = seed;
  return generate_solar_trace(cfg);
}

TEST(SolarTrace, WeekLongMinuteResolution) {
  const auto tr = week();
  EXPECT_EQ(tr.samples().size(), 7u * 24u * 60u);
  EXPECT_DOUBLE_EQ(tr.period().value(), 60.0);
  EXPECT_DOUBLE_EQ(tr.duration().value(), 7.0 * 86400.0);
}

TEST(SolarTrace, SamplesAreNormalized) {
  const auto tr = week();
  for (double s : tr.samples()) {
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

TEST(SolarTrace, NightIsDark) {
  const auto tr = week();
  // 2 AM on each day must produce nothing.
  for (int d = 0; d < 7; ++d) {
    EXPECT_DOUBLE_EQ(tr.at(Seconds(d * 86400.0 + 2.0 * 3600.0)), 0.0);
  }
}

TEST(SolarTrace, ClearNoonIsBright) {
  const auto tr = week();
  // Day 0 is forced Clear; noon should be close to full output.
  EXPECT_GT(tr.at(Seconds(12.0 * 3600.0)), 0.8);
}

TEST(SolarTrace, OvercastDayIsDim) {
  const auto tr = week();
  // Day 1 is forced Overcast; even noon stays low.
  EXPECT_LT(tr.at(Seconds(86400.0 + 12.0 * 3600.0)), 0.5);
}

TEST(SolarTrace, Deterministic) {
  const auto a = week(7);
  const auto b = week(7);
  EXPECT_EQ(a.samples(), b.samples());
}

TEST(SolarTrace, SeedsChangeWeather) {
  const auto a = week(1);
  const auto b = week(2);
  EXPECT_NE(a.samples(), b.samples());
}

TEST(SolarTrace, MeanOverWindow) {
  const auto tr = week();
  const double m = tr.mean(Seconds(0.0), Seconds(86400.0));
  EXPECT_GT(m, 0.0);
  EXPECT_LT(m, 1.0);
}

TEST(SolarTrace, AtClampsOutOfRange) {
  const auto tr = week();
  EXPECT_DOUBLE_EQ(tr.at(Seconds(-10.0)), tr.samples().front());
  EXPECT_DOUBLE_EQ(tr.at(Seconds(1e9)), tr.samples().back());
  // Indices outside size_t's range are compared as doubles, never
  // converted (that conversion is undefined).
  EXPECT_EQ(tr.at(Seconds(1e300)), tr.samples().back());
  EXPECT_EQ(tr.at(Seconds(-1e300)), tr.samples().front());
  EXPECT_EQ(tr.at(Seconds(std::numeric_limits<double>::infinity())),
            tr.samples().back());
}

TEST(SolarTrace, MeanOfAWindowOutsideTheTraceIsItsEdgeSample) {
  const auto tr = week();
  // Wholly before the trace: the first sample (midnight, dark), not the
  // whole-week mean a wrapped index would give.
  EXPECT_EQ(tr.mean(Seconds(-120.0), Seconds(60.0)), tr.samples().front());
  EXPECT_EQ(tr.mean(Seconds(-1e300), Seconds(60.0)), tr.samples().front());
  // Wholly after it: the last sample.
  EXPECT_EQ(tr.mean(Seconds(1e300), Seconds(60.0)), tr.samples().back());
  // A window that covers the trace and runs past size_t's range: the
  // mean of every sample.
  double sum = 0.0;
  for (double s : tr.samples()) sum += s;
  const double all = sum / double(tr.samples().size());
  EXPECT_EQ(tr.mean(Seconds(0.0), Seconds(1e300)), all);
  EXPECT_EQ(tr.mean(Seconds(-60.0), tr.duration() + Seconds(60.0)), all);
  // In range, a window straddling the start averages its samples from 0.
  EXPECT_EQ(tr.mean(Seconds(-60.0), Seconds(180.0)),
            (tr.samples()[0] + tr.samples()[1]) / 2.0);
}

/// Every sample's bit pattern, in order, and the count.
std::uint64_t samples_digest(const SolarTrace& tr) {
  std::uint64_t h = tr.samples().size();
  for (double s : tr.samples()) h = hash_combine(h, s);
  return h;
}

TEST(SolarTrace, GeneratorIsPinnedBitForBit) {
  // The sweep and day digests read only window and daytime samples; these
  // pin every sample of the generator, night and sample period included.
  // Recorded from the generator that evaluated the clear-sky envelope
  // once per sample rather than once per sample of the day.
  SolarTraceConfig cfg;
  EXPECT_EQ(samples_digest(generate_solar_trace(cfg)), 0xaec509f6bc6a9aa1ull)
      << "week";
  cfg.days = 1;
  EXPECT_EQ(samples_digest(generate_solar_trace(cfg)), 0x67ace10755c48037ull)
      << "1 day";
  cfg.days = 30;
  EXPECT_EQ(samples_digest(generate_solar_trace(cfg)), 0x72fe0ce6307f7610ull)
      << "30 days";
  cfg = {};
  cfg.sample_period = Seconds(90.0);
  EXPECT_EQ(samples_digest(generate_solar_trace(cfg)), 0x5ac2d10fd99aff7aull)
      << "90 s";
}

class FindWindowTest : public ::testing::TestWithParam<
                           std::tuple<Availability, double>> {};

TEST_P(FindWindowTest, FindsWindowForEveryClassAndDuration) {
  const auto [avail, minutes] = GetParam();
  const auto tr = week();
  const Seconds len(minutes * 60.0);
  const auto start = find_window(tr, len, avail);
  ASSERT_TRUE(start.has_value())
      << "no " << to_string(avail) << " window of " << minutes << " min";
  const double mean = tr.mean(*start, len);
  const AvailabilityBands bands;
  switch (avail) {
    case Availability::Min:
      EXPECT_LE(mean, bands.min_below);
      break;
    case Availability::Med:
      EXPECT_GE(mean, bands.med_low);
      EXPECT_LE(mean, bands.med_high);
      break;
    case Availability::Max:
      EXPECT_GE(mean, bands.max_above);
      break;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllClassesAllDurations, FindWindowTest,
    ::testing::Combine(::testing::Values(Availability::Min, Availability::Med,
                                         Availability::Max),
                       ::testing::Values(10.0, 15.0, 30.0, 60.0)),
    [](const auto& info) {
      return std::string(to_string(std::get<0>(info.param))) + "_" +
             std::to_string(int(std::get<1>(info.param))) + "min";
    });

TEST(FindWindow, ImpossibleWindowReturnsNullopt) {
  const auto tr = week();
  // A window longer than the whole trace cannot exist.
  EXPECT_FALSE(
      find_window(tr, Seconds(8.0 * 86400.0), Availability::Max).has_value());
  // Nor one whose sample count is past size_t's range.
  EXPECT_FALSE(find_window(tr, Seconds(1e300), Availability::Min).has_value());
}

TEST(SolarTraceConfig, InvalidConfigThrows) {
  SolarTraceConfig cfg;
  cfg.days = 0;
  EXPECT_THROW((void)(generate_solar_trace(cfg)), gs::ContractError);
  cfg = {};
  cfg.sunrise_h = 19.0;  // after sunset
  EXPECT_THROW((void)(generate_solar_trace(cfg)), gs::ContractError);
}

}  // namespace
}  // namespace gs::trace
