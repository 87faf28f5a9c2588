#include "sim/oracle_runner.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "faults/fault_injector.hpp"
#include "power/solar_array.hpp"
#include "server/power_model.hpp"
#include "workload/perf_model.hpp"

namespace gs::sim {

OracleResult run_oracle(const Scenario& sc) {
  GS_REQUIRE(sc.green.green_servers > 0, "scenario needs green servers");
  trace::SolarTraceConfig trace_cfg;
  trace_cfg.seed = sc.seed;
  const auto solar_ptr = trace::shared_solar_trace(trace_cfg);
  const trace::SolarTrace& solar = *solar_ptr;
  const auto window = trace::shared_solar_window(trace_cfg, sc.burst_duration,
                                                 sc.availability);
  GS_REQUIRE(window.has_value(),
             "solar trace has no window of the requested availability");

  const power::SolarArray array({sc.green.panels, Watts(275.0), 0.77});
  const workload::PerfModel perf(sc.app);
  const server::ServerPowerModel pmodel(Watts(76.0));
  const auto profile_ptr = core::ProfileTable::shared(perf, pmodel);
  const core::ProfileTable& profile = *profile_ptr;

  // Fault injection: the oracle is clairvoyant, so it plans against the
  // *faulted* renewable supply (per-epoch solar derate) and the worst
  // battery fade seen over the burst — the offline-optimal bound under the
  // same failure history the online strategies face, correlated processes
  // included (built exactly as BurstSim builds its injector). The all-zero
  // default spec keeps the exact fault-free arithmetic.
  const faults::FaultInjector injector(sc.faults, sc.fault_correlation,
                                       sc.burst_duration, sc.epoch,
                                       /*servers=*/1);
  double min_battery_factor = 1.0;

  const auto n_epochs =
      std::size_t(sc.burst_duration.value() / sc.epoch.value());
  std::vector<Watts> supply;
  supply.reserve(n_epochs);
  for (std::size_t e = 0; e < n_epochs; ++e) {
    const Seconds t = *window + sc.epoch * double(e);
    Watts s = array.ac_output(solar.at(t)) / double(sc.green.green_servers);
    if (injector.enabled()) {
      const faults::EpochFaults ef = injector.at(sc.epoch * double(e));
      s = s * ef.solar_factor;
      min_battery_factor =
          std::min(min_battery_factor, ef.battery_capacity_factor);
    }
    supply.push_back(s);
  }

  power::BatteryConfig bc;
  // A zero-capacity battery is represented by a vanishing unit (the DP
  // then has no battery energy to spend).
  bc.capacity = sc.green.battery.value() > 0.0 ? sc.green.battery
                                               : AmpHours(1e-9);
  if (injector.enabled()) {
    bc.capacity = AmpHours(bc.capacity.value() * min_battery_factor);
  }

  const double lambda = perf.intensity_load(sc.burst_intensity);
  OracleResult out;
  out.plan = core::oracle_plan(profile, supply, lambda, bc, sc.epoch,
                               sc.app.normal_full_power);
  out.normal_goodput = perf.goodput(server::normal_mode(), lambda);
  out.normalized_perf = out.normal_goodput > 0.0
                            ? out.plan.mean_goodput / out.normal_goodput
                            : 0.0;
  return out;
}

}  // namespace gs::sim
