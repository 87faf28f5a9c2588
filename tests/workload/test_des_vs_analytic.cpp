// Property grid: the analytic M/M/k control-plane model must agree with
// the discrete-event ground truth across applications, settings and load
// levels in the stable regime — the core validity argument for using the
// fast path in the controller and the sweeps.
#include <gtest/gtest.h>

#include "workload/des.hpp"
#include "workload/perf_model.hpp"
#include "workload/queueing.hpp"

namespace gs::workload {
namespace {

struct GridCase {
  const char* app_name;
  int cores;
  int freq_idx;
  double rho;  ///< Offered load as a fraction of raw capacity.
};

// ctest names each case after the printed parameter. gtest's default byte
// dump would include the app_name pointer, which moves from run to run, so
// print the fields instead.
void PrintTo(const GridCase& c, std::ostream* os) {
  *os << c.app_name << ',' << c.cores << ',' << c.freq_idx << ',' << c.rho;
}

AppDescriptor app_by_name(const std::string& name) {
  for (auto& a : all_apps()) {
    if (a.name == name) return a;
  }
  return specjbb();
}

class DesVsAnalytic : public ::testing::TestWithParam<GridCase> {};

TEST_P(DesVsAnalytic, TailLatencyAgrees) {
  const auto p = GetParam();
  const auto app = app_by_name(p.app_name);
  const server::ServerSetting s{p.cores, p.freq_idx};
  const double mu = app.service_rate(s.frequency());
  const double lambda = p.rho * double(p.cores) * mu;
  // Long epoch for a tight tail estimate.
  Rng rng = Rng::stream(0xabc, {std::uint64_t(p.cores),
                                std::uint64_t(p.freq_idx),
                                std::uint64_t(p.rho * 100)});
  const auto des = simulate_epoch(rng, app, s, lambda, Seconds(2400.0));
  const double analytic =
      latency_quantile(p.cores, mu, lambda, app.qos.percentile).value();
  EXPECT_NEAR(des.tail_latency.value(), analytic, 0.2 * analytic)
      << app.name << " " << server::to_string(s) << " rho=" << p.rho;
}

TEST_P(DesVsAnalytic, GoodputAgrees) {
  const auto p = GetParam();
  const auto app = app_by_name(p.app_name);
  const PerfModel m(app);
  const server::ServerSetting s{p.cores, p.freq_idx};
  const double lambda = p.rho * m.capacity(s);
  Rng rng = Rng::stream(0xdef, {std::uint64_t(p.cores),
                                std::uint64_t(p.freq_idx),
                                std::uint64_t(p.rho * 100)});
  const auto des = simulate_epoch(rng, app, s, lambda, Seconds(2400.0));
  const double analytic = m.goodput(s, lambda);
  // Agreement within 10% of the offered load in the stable regime.
  EXPECT_NEAR(des.goodput_rate, analytic, 0.1 * lambda)
      << app.name << " " << server::to_string(s) << " rho=" << p.rho;
}

INSTANTIATE_TEST_SUITE_P(
    StableGrid, DesVsAnalytic,
    ::testing::Values(
        GridCase{"SPECjbb", 6, 0, 0.5}, GridCase{"SPECjbb", 6, 0, 0.8},
        GridCase{"SPECjbb", 12, 8, 0.5}, GridCase{"SPECjbb", 12, 8, 0.8},
        GridCase{"SPECjbb", 9, 4, 0.7},
        GridCase{"Web-Search", 6, 8, 0.6}, GridCase{"Web-Search", 12, 8, 0.8},
        GridCase{"Web-Search", 12, 0, 0.7},
        GridCase{"Memcached", 12, 8, 0.8}, GridCase{"Memcached", 6, 0, 0.6},
        GridCase{"Memcached", 12, 4, 0.7}),
    [](const auto& info) {
      std::string n = std::string(info.param.app_name) + "_c" +
                      std::to_string(info.param.cores) + "_f" +
                      std::to_string(info.param.freq_idx) + "_r" +
                      std::to_string(int(info.param.rho * 100));
      for (auto& ch : n) {
        if (ch == '-') ch = '_';
      }
      return n;
    });

}  // namespace
}  // namespace gs::workload
