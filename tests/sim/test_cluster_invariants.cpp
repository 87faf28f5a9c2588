// Physical invariants of every GreenCluster burst epoch, over seeded random
// day campaigns with and without injected faults:
//
//  * energy balance: the sources never deliver more than the servers
//    demand, and on fault-free epochs they deliver exactly that, except
//    where the cluster sprints into a settlement deficit (below);
//  * grid budget: the cluster's grid draw stays within what power::Grid
//    allows, its budget times the brownout derate plus the overload
//    allowance;
//  * DoD cap: with batteries fitted, the mean state of charge never drops
//    below 1 - max_dod.
//
// The cluster is stepped exactly as DaySim steps it (day_feed_plan inputs,
// the same array and injector), which the energy totals cross-check
// against run_days bit for bit.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "common/rng.hpp"
#include "faults/fault_injector.hpp"
#include "power/battery.hpp"
#include "power/grid.hpp"
#include "power/solar_array.hpp"
#include "sim/day_runner.hpp"
#include "sim/green_cluster.hpp"
#include "workload/app.hpp"

namespace gs::sim {
namespace {

constexpr int kConfigs = 20;

DayRunConfig random_config(Rng& rng) {
  constexpr auto kKinds = std::uint64_t(core::StrategyKind::Efficiency) + 1;
  DayRunConfig cfg;
  cfg.days = 1;
  cfg.daily_bursts = default_daily_bursts();
  cfg.cluster.servers = 1 + int(rng.uniform_int(16));
  cfg.cluster.battery_per_server =
      rng.uniform() < 0.25 ? AmpHours(0.0) : AmpHours(rng.uniform(1.0, 11.0));
  cfg.cluster.strategy = core::StrategyKind(rng.uniform_int(kKinds));
  cfg.cluster.allocation = rng.uniform() < 0.5 ? ReAllocation::EqualShare
                                               : ReAllocation::Waterfall;
  cfg.panels = int(rng.uniform_int(8));
  return cfg;
}

std::string describe(const DayRunConfig& cfg) {
  std::ostringstream os;
  os << cfg.cluster.servers << " servers, "
     << cfg.cluster.battery_per_server.value() << " Ah, "
     << core::to_string(cfg.cluster.strategy) << ", "
     << to_string(cfg.cluster.allocation) << ", " << cfg.panels
     << " panels, faults " << (cfg.faults.any() ? "on" : "off");
  return os.str();
}

struct Checked {
  std::size_t epochs = 0;
  /// Fault-free epochs that settled into a deficit.
  std::size_t clean_deficits = 0;
};

/// Steps a GreenCluster through the campaign's feed and checks every burst
/// epoch.
Checked check_campaign(const DayRunConfig& cfg) {
  const workload::AppDescriptor app = workload::specjbb();
  GreenCluster cluster(app, cfg.cluster);
  const power::SolarArray array({cfg.panels, Watts(275.0), 0.77});
  const Seconds epoch = cfg.cluster.epoch;
  const faults::FaultInjector injector(cfg.faults,
                                       Seconds(double(cfg.days) * 86400.0),
                                       epoch, cfg.cluster.servers);
  // The budget GreenCluster provisions: Normal mode plus charging headroom
  // for every green server.
  const power::GridConfig grid_cfg;
  const Watts budget =
      (app.normal_full_power + Watts(80.0)) * double(cfg.cluster.servers);
  const double soc_floor = 1.0 - power::BatteryConfig{}.max_dod;
  const bool has_battery = cfg.cluster.battery_per_server.value() > 0.0;
  const double tol = 1e-6 * double(cfg.cluster.servers);

  Joules re{0.0};
  Joules batt{0.0};
  Joules grid{0.0};
  Checked checked;
  Seconds t{0.0};
  for (const LiveEpoch& in : day_feed_plan(cfg)) {
    faults::EpochFaults ef;
    const faults::EpochFaults* ef_ptr = nullptr;
    Watts re_total = array.ac_output(in.irradiance);
    if (injector.enabled()) {
      ef = injector.at(t);
      ef_ptr = &ef;
      re_total = re_total * ef.solar_factor;
    }
    if (in.in_burst) {
      const ClusterEpoch ep = cluster.step(re_total, in.lambda, true, ef_ptr);
      const double delivered =
          (ep.re_used + ep.batt_used + ep.grid_used).value();
      const double demand = ep.total_demand.value();
      const std::string at = describe(cfg) + ", t=" + std::to_string(t.value());
      EXPECT_LE(delivered, demand + tol) << at;
      if (!(injector.enabled() && ef.any()) && delivered < demand - tol) {
        // Unlike BurstSim, the cluster has no second fallback to Normal: a
        // replanned sprint that still draws more than its green supply
        // settles into a deficit (green_cluster.hpp). Only a sprinting
        // server can, since a server at Normal mode is backed by the grid.
        EXPECT_GT(ep.servers_sprinting, 0) << at;
        ++checked.clean_deficits;
      }
      const double derate = injector.enabled() ? ef.grid_budget_factor : 1.0;
      EXPECT_LE(ep.grid_used.value(),
                budget.value() * derate * grid_cfg.overload_factor + tol)
          << at;
      if (has_battery) {
        EXPECT_GE(cluster.mean_soc(), soc_floor - 1e-12) << at;
      }
      re += ep.re_used * epoch;
      batt += ep.batt_used * epoch;
      grid += ep.grid_used * epoch;
      ++checked.epochs;
    } else {
      cluster.idle_step(re_total, in.lambda, ef_ptr);
    }
    t += epoch;
  }

  // The loop above is the day runner's: same inputs, same totals.
  const DayRunResult ref = run_days(cfg);
  EXPECT_EQ(re.value(), ref.re_energy.value()) << describe(cfg);
  EXPECT_EQ(batt.value(), ref.batt_energy.value()) << describe(cfg);
  EXPECT_EQ(grid.value(), ref.grid_energy.value()) << describe(cfg);
  return checked;
}

TEST(ClusterInvariants, EveryBurstEpochOnRandomCampaigns) {
  Rng rng(0xc1a55e7ull);
  std::size_t epochs = 0;
  std::size_t clean_deficits = 0;
  for (int i = 0; i < kConfigs; ++i) {
    DayRunConfig cfg = random_config(rng);
    for (const bool faulted : {false, true}) {
      if (faulted) cfg.faults = faults::FaultSpec::uniform(0.3, rng());
      const Checked c = check_campaign(cfg);
      epochs += c.epochs;
      clean_deficits += c.clean_deficits;
    }
  }
  // 65 burst epochs a day (default_daily_bursts), two runs per config.
  EXPECT_EQ(epochs, std::size_t(kConfigs) * 2 * 65);
  // One clean deficit in these campaigns: the first midday epoch of the
  // 5-server Greedy cluster without batteries (775 W demanded, 726 W
  // delivered). A change to the cluster's fallback rule moves this count.
  EXPECT_EQ(clean_deficits, 1u);
}

}  // namespace
}  // namespace gs::sim
