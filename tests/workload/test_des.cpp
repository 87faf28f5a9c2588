#include <gtest/gtest.h>

#include "common/assert.hpp"
#include "common/keyed_cache.hpp"
#include "sim/burst_runner.hpp"
#include "sim/sweep.hpp"
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

TEST(Des, EpochResultsArePinned) {
  // Every DesResult field, by bit pattern, over apps x {Normal, a middle
  // setting, max sprint} x {0.5, 0.9, 1.2} x capacity x {default options,
  // admission control, straggler derate}, plus two DES-mode bursts. Any
  // change to the draw order or to the arithmetic of the epoch loop moves
  // these digests; recapture them only for an intended behaviour change.
  std::uint64_t h = 0xde5ull;
  const auto add = [&h](auto v) { h = hash_combine(h, v); };
  const server::ServerSetting settings[] = {
      server::normal_mode(), server::ServerSetting{9, 4},
      server::max_sprint()};
  std::uint64_t cell = 0;
  for (const AppDescriptor& app : all_apps()) {
    const PerfModel m(app);
    for (const server::ServerSetting& s : settings) {
      for (const double load : {0.5, 0.9, 1.2}) {
        for (int variant = 0; variant < 3; ++variant) {
          DesOptions o;
          if (variant == 1) o.admit_wait_limit_s = 0.35;
          if (variant == 2) o.service_derate = 0.7;
          Rng rng = Rng::stream(17, {cell++});
          const DesResult r = simulate_epoch(
              rng, app, s, load * m.capacity(s), Seconds(10.0), o);
          add(r.arrivals);
          add(r.completed);
          add(r.sla_met);
          add(r.dropped);
          add(r.tail_latency.value());
          add(r.goodput_rate);
          add(r.mean_utilization);
        }
      }
    }
  }
  EXPECT_EQ(h, 0x12db89d10ff9bbb6ull) << std::hex << "got 0x" << h;

  // DES-mode bursts: admission control in every epoch and the DES-measured
  // Normal baseline; the faulted one also drives the straggler derate.
  sim::Scenario plain;
  plain.app = specjbb();
  plain.green = sim::re_batt();
  plain.strategy = core::StrategyKind::Hybrid;
  plain.availability = trace::Availability::Med;
  plain.burst_duration = Seconds(600.0);
  plain.use_des = true;
  sim::Scenario faulted = plain;
  faulted.app = websearch();
  faulted.green = sim::sre_sbatt();
  faulted.strategy = core::StrategyKind::Greedy;
  faulted.availability = trace::Availability::Min;
  faulted.burst_duration = Seconds(900.0);
  faulted.faults = faults::FaultSpec::uniform(0.4, 7);
  const std::uint64_t fp_plain = sim::sweep_fingerprint({run_burst(plain)});
  const std::uint64_t fp_faulted =
      sim::sweep_fingerprint({run_burst(faulted)});
  EXPECT_EQ(fp_plain, 0xf49b28f69eb4751dull)
      << std::hex << "got 0x" << fp_plain;
  EXPECT_EQ(fp_faulted, 0x90109dc866006ed7ull)
      << std::hex << "got 0x" << fp_faulted;
}

}  // namespace
}  // namespace gs::workload
