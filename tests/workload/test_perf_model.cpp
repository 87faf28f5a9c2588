#include <gtest/gtest.h>

#include "workload/perf_model.hpp"

namespace gs::workload {

// ctest names each PerfGainParam case after the printed parameter. gtest's
// default byte dump of an AppDescriptor includes its strings' heap
// pointers, which move from run to run, so print the name instead. It sits
// in the type's namespace so that gtest finds it by argument lookup.
void PrintTo(const AppDescriptor& app, std::ostream* os);
void PrintTo(const AppDescriptor& app, std::ostream* os) { *os << app.name; }

namespace {

using server::ServerSetting;

TEST(PerfModel, CapacityScalesWithCoresAndFrequency) {
  const PerfModel m(specjbb());
  const double normal = m.capacity(server::normal_mode());
  const double sprint = m.capacity(server::max_sprint());
  EXPECT_GT(sprint, normal);
  // Doubling cores at fixed frequency doubles raw capacity.
  EXPECT_NEAR(m.capacity({12, 4}) / m.capacity({6, 4}), 2.0, 1e-9);
}

TEST(PerfModel, SlaCapacityBelowRawCapacity) {
  const PerfModel m(specjbb());
  const server::SettingLattice lat;
  for (const auto& s : lat.all()) {
    EXPECT_LT(m.sla_capacity(s), m.capacity(s)) << server::to_string(s);
    EXPECT_GT(m.sla_capacity(s), 0.0) << server::to_string(s);
  }
}

TEST(PerfModel, SlaCapacityMemoizationIsConsistent) {
  const PerfModel m(websearch());
  const auto s = server::max_sprint();
  const double first = m.sla_capacity(s);
  const double second = m.sla_capacity(s);
  EXPECT_DOUBLE_EQ(first, second);
}

TEST(PerfModel, GoodputEqualsOfferedLoadBelowSlaCapacity) {
  const PerfModel m(specjbb());
  const auto s = server::max_sprint();
  const double c = m.sla_capacity(s);
  EXPECT_DOUBLE_EQ(m.goodput(s, 0.5 * c), 0.5 * c);
  EXPECT_DOUBLE_EQ(m.goodput(s, c), c);
}

TEST(PerfModel, GoodputCollapsesUnderOverload) {
  const PerfModel m(specjbb());
  const auto s = server::normal_mode();
  const double c = m.sla_capacity(s);
  const double g2 = m.goodput(s, 2.0 * c);
  const double g4 = m.goodput(s, 4.0 * c);
  EXPECT_LT(g2, c);
  EXPECT_LT(g4, g2);  // deeper overload, worse goodput
  EXPECT_GT(g4, 0.0);
}

TEST(PerfModel, GoodputMonotoneInSettingAtBurstLoad) {
  // At the saturating burst, more sprint intensity never hurts goodput.
  const PerfModel m(specjbb());
  const double lambda = m.intensity_load(12);
  const double normal = m.goodput(server::normal_mode(), lambda);
  const double mid = m.goodput({9, 4}, lambda);
  const double sprint = m.goodput(server::max_sprint(), lambda);
  EXPECT_LT(normal, mid);
  EXPECT_LT(mid, sprint);
}

TEST(PerfModel, LatencyMonotoneInLoad) {
  const PerfModel m(specjbb());
  const auto s = server::max_sprint();
  double prev = 0.0;
  for (double frac = 0.1; frac <= 2.0; frac += 0.1) {
    const double lat = m.latency(s, frac * m.capacity(s)).value();
    EXPECT_GE(lat, prev - 1e-12) << "frac=" << frac;
    prev = lat;
  }
}

TEST(PerfModel, LatencyFiniteInDeepOverload) {
  const PerfModel m(memcached());
  const double lat =
      m.latency(server::normal_mode(), 10.0 * m.capacity(server::normal_mode()))
          .value();
  EXPECT_GT(lat, m.app().qos.limit.value());
  EXPECT_LT(lat, 1e6);
}

TEST(PerfModel, UtilizationClamped) {
  const PerfModel m(specjbb());
  const auto s = server::normal_mode();
  EXPECT_DOUBLE_EQ(m.utilization(s, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(m.utilization(s, 10.0 * m.capacity(s)), 1.0);
  EXPECT_NEAR(m.utilization(s, 0.5 * m.capacity(s)), 0.5, 1e-12);
}

TEST(PerfModel, IntensityLoadMatchesDefinition) {
  // Int=k is the capability of k cores at maximum frequency.
  const PerfModel m(specjbb());
  EXPECT_NEAR(m.intensity_load(9),
              9.0 * m.app().service_rate(reference_frequency()), 1e-9);
  EXPECT_NEAR(m.intensity_load(12), m.capacity(server::max_sprint()), 1e-9);
}

class PerfGainParam : public ::testing::TestWithParam<AppDescriptor> {};

TEST_P(PerfGainParam, MaxSprintGainIsInPaperRange) {
  // The headline numbers: 4.8x (SPECjbb), 4.1x (Web-Search), 4.7x
  // (Memcached) at the saturating burst with ample power. Allow a band.
  const PerfModel m(GetParam());
  const double lambda = m.intensity_load(12);
  const double gain = m.goodput(server::max_sprint(), lambda) /
                      m.goodput(server::normal_mode(), lambda);
  EXPECT_GT(gain, 3.5) << m.app().name;
  EXPECT_LT(gain, 5.5) << m.app().name;
}

INSTANTIATE_TEST_SUITE_P(PaperApps, PerfGainParam,
                         ::testing::Values(specjbb(), websearch(),
                                           memcached()),
                         [](const auto& info) {
                           std::string n = info.param.name;
                           for (auto& ch : n) {
                             if (ch == '-') ch = '_';
                           }
                           return n;
                         });

}  // namespace
}  // namespace gs::workload
