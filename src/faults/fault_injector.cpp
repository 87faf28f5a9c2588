#include "faults/fault_injector.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/assert.hpp"
#include "common/rng.hpp"

namespace gs::faults {

bool EpochFaults::any() const {
  if (grid_budget_factor < 1.0 || solar_factor < 1.0 ||
      battery_capacity_factor < 1.0 || charge_efficiency_factor < 1.0 ||
      battery_offline || switch_latency_fraction > 0.0 ||
      sensor_load_factor != 1.0 || sensor_dropout) {
    return true;
  }
  for (bool c : server_crashed) {
    if (c) return true;
  }
  for (double s : server_speed) {
    if (s < 1.0) return true;
  }
  return false;
}

FaultInjector::FaultInjector(const FaultSpec& spec, Seconds horizon,
                             Seconds epoch, int servers)
    : FaultInjector(spec, CorrelationSpec{}, horizon, epoch, servers) {}

FaultInjector::FaultInjector(const FaultSpec& spec,
                             const CorrelationSpec& corr, Seconds horizon,
                             Seconds epoch, int servers)
    : schedule_(FaultSchedule::generate(spec, corr, horizon, epoch, servers)),
      servers_(servers),
      // Correlation only modulates the spec's intensities; an all-zero spec
      // stays disabled like the plain constructor.
      enabled_(spec.any()) {}

FaultInjector::FaultInjector(FaultSchedule schedule, int servers)
    : schedule_(std::move(schedule)),
      servers_(servers),
      enabled_(!schedule_.empty()) {
  GS_REQUIRE(servers >= 1, "fault injector needs at least one server");
}

EpochFaults FaultInjector::at(Seconds t) const {
  EpochFaults f;
  if (!enabled_) return f;
  const auto servers = std::size_t(std::max(servers_, 0));
  // One walk over the events covering t fills per-class survival products
  // and active flags, the per-server crash flags, and the per-server
  // straggler survival products (held in server_speed until the end).
  std::array<double, kNumFaultClasses> survive;
  survive.fill(1.0);
  std::array<bool, kNumFaultClasses> active{};
  f.server_crashed.resize(servers, false);
  f.server_speed.resize(servers, 1.0);
  schedule_.for_each_covering(t, [&](const FaultEvent& ev) {
    survive[std::size_t(ev.cls)] *= 1.0 - ev.magnitude;
    active[std::size_t(ev.cls)] = true;
    const bool crash = ev.cls == FaultClass::ServerCrash;
    if (!crash && ev.cls != FaultClass::ServerStraggler) return;
    // Target -1 hits every server; a target past the last server hits none.
    const std::size_t first = ev.target < 0 ? 0 : std::size_t(ev.target);
    const std::size_t last =
        ev.target < 0 ? servers : std::min(first + 1, servers);
    for (std::size_t s = first; s < last; ++s) {
      if (crash) {
        f.server_crashed[s] = true;
      } else {
        f.server_speed[s] *= 1.0 - ev.magnitude;
      }
    }
  });
  const auto magnitude = [&survive](FaultClass c) {
    return 1.0 - survive[std::size_t(c)];
  };
  f.grid_budget_factor = 1.0 - magnitude(FaultClass::GridBrownout);
  f.solar_factor = (1.0 - magnitude(FaultClass::PanelDropout)) *
                   (1.0 - magnitude(FaultClass::CloudTransient));
  f.battery_capacity_factor = 1.0 - magnitude(FaultClass::BatteryFade);
  f.charge_efficiency_factor = 1.0 - magnitude(FaultClass::ChargeLoss);
  f.battery_offline = active[std::size_t(FaultClass::PssStuck)];
  // A settlement still needs a sliver of the epoch: cap the lost slice.
  f.switch_latency_fraction = std::min(0.5, magnitude(FaultClass::PssLatency));
  f.sensor_dropout = active[std::size_t(FaultClass::SensorDropout)];
  const double noise_sigma = magnitude(FaultClass::SensorNoise);
  if (noise_sigma > 0.0) {
    // Per-epoch hashed stream: the draw depends only on (seed, t), not on
    // how many epochs were queried before this one.
    Rng noise = Rng::stream(
        schedule_.spec().seed,
        {0x5e45ull, std::uint64_t(std::llround(t.value() * 1000.0))});
    f.sensor_load_factor =
        std::max(0.0, 1.0 + 0.5 * noise_sigma * noise.normal());
  }
  // Straggler speed is 1 - magnitude, as magnitude_at would report it.
  for (double& speed : f.server_speed) speed = 1.0 - (1.0 - speed);
  return f;
}

}  // namespace gs::faults
