#include <gtest/gtest.h>

#include "common/assert.hpp"

#include "workload/des.hpp"
#include "workload/perf_model.hpp"
#include "workload/queueing.hpp"

namespace gs::workload {
namespace {

TEST(Des, ZeroLoadProducesNothing) {
  Rng rng(1);
  const auto r =
      simulate_epoch(rng, specjbb(), server::max_sprint(), 0.0, Seconds(60.0));
  EXPECT_EQ(r.arrivals, 0u);
  EXPECT_EQ(r.completed, 0u);
  EXPECT_DOUBLE_EQ(r.goodput_rate, 0.0);
}

TEST(Des, ArrivalCountMatchesPoissonMean) {
  Rng rng(2);
  const double lambda = 100.0;
  const Seconds epoch(600.0);
  const auto r =
      simulate_epoch(rng, specjbb(), server::max_sprint(), lambda, epoch);
  const double expected = lambda * epoch.value();
  EXPECT_NEAR(double(r.arrivals), expected, 4.0 * std::sqrt(expected));
}

TEST(Des, StableSystemCompletesAlmostEverything) {
  Rng rng(3);
  const PerfModel m(specjbb());
  const auto s = server::max_sprint();
  const double lambda = 0.6 * m.capacity(s);
  const auto r = simulate_epoch(rng, specjbb(), s, lambda, Seconds(600.0));
  EXPECT_GT(double(r.completed) / double(r.arrivals), 0.99);
}

TEST(Des, UtilizationMatchesOfferedLoad) {
  Rng rng(4);
  const PerfModel m(specjbb());
  const auto s = server::max_sprint();
  const double rho = 0.6;
  const auto r = simulate_epoch(rng, specjbb(), s, rho * m.capacity(s),
                                Seconds(1200.0));
  EXPECT_NEAR(r.mean_utilization, rho, 0.05);
}

TEST(Des, UtilizationClampedUnderOverload) {
  // Deep overload: cores stay busy past the epoch boundary, but reported
  // utilization is a fraction of the epoch and must clamp at 1.0.
  Rng rng(40);
  const PerfModel m(specjbb());
  const auto s = server::normal_mode();
  const auto r = simulate_epoch(rng, specjbb(), s, 3.0 * m.capacity(s),
                                Seconds(120.0));
  EXPECT_LE(r.mean_utilization, 1.0);
  EXPECT_GT(r.mean_utilization, 0.95);
}

TEST(Des, TailLatencyMatchesAnalyticModel) {
  // Cross-validation of the DES against the M/M/k quantile formula.
  Rng rng(5);
  const auto app = specjbb();
  const server::ServerSetting s{12, 8};
  const double mu = app.service_rate(s.frequency());
  const double lambda = 0.85 * 12.0 * mu;
  const auto r = simulate_epoch(rng, app, s, lambda, Seconds(3000.0));
  const double analytic =
      latency_quantile(12, mu, lambda, app.qos.percentile).value();
  EXPECT_NEAR(r.tail_latency.value(), analytic, 0.12 * analytic);
}

TEST(Des, GoodputMatchesAnalyticModelBelowSla) {
  Rng rng(6);
  const PerfModel m(specjbb());
  const auto s = server::max_sprint();
  const double lambda = 0.8 * m.sla_capacity(s);
  const auto r = simulate_epoch(rng, specjbb(), s, lambda, Seconds(1800.0));
  EXPECT_NEAR(r.goodput_rate, m.goodput(s, lambda), 0.05 * lambda);
}

TEST(Des, OverloadCollapsesGoodput) {
  Rng rng(7);
  const PerfModel m(specjbb());
  const auto s = server::normal_mode();
  const double lambda = m.intensity_load(12);  // deep overload at Normal
  const auto r = simulate_epoch(rng, specjbb(), s, lambda, Seconds(600.0));
  // Completions are capped near capacity, and only the early ones meet SLA.
  EXPECT_LT(double(r.completed) / double(r.arrivals), 0.5);
  EXPECT_LT(r.goodput_rate, 0.2 * lambda);
}

TEST(Des, DeterministicForSameStream) {
  const auto app = memcached();
  Rng a = Rng::stream(9, {1});
  Rng b = Rng::stream(9, {1});
  const auto ra =
      simulate_epoch(a, app, server::max_sprint(), 3000.0, Seconds(60.0));
  const auto rb =
      simulate_epoch(b, app, server::max_sprint(), 3000.0, Seconds(60.0));
  EXPECT_EQ(ra.arrivals, rb.arrivals);
  EXPECT_EQ(ra.completed, rb.completed);
  EXPECT_DOUBLE_EQ(ra.goodput_rate, rb.goodput_rate);
}

TEST(Des, MoreCoresServeMoreUnderBurst) {
  const auto app = specjbb();
  const PerfModel m(app);
  const double lambda = m.intensity_load(12);
  Rng r1 = Rng::stream(11, {1});
  Rng r2 = Rng::stream(11, {1});
  const auto normal =
      simulate_epoch(r1, app, server::normal_mode(), lambda, Seconds(600.0));
  const auto sprint =
      simulate_epoch(r2, app, server::max_sprint(), lambda, Seconds(600.0));
  EXPECT_GT(sprint.goodput_rate, 2.0 * normal.goodput_rate);
}

TEST(Des, ContractsOnInputs) {
  Rng rng(13);
  EXPECT_THROW((void)simulate_epoch(rng, specjbb(), server::max_sprint(), -1.0,
                              Seconds(60.0)),
               gs::ContractError);
  EXPECT_THROW((void)simulate_epoch(rng, specjbb(), server::max_sprint(), 10.0,
                              Seconds(0.0)),
               gs::ContractError);
}

}  // namespace
}  // namespace gs::workload
