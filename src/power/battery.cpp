#include "power/battery.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "power/battery_math.hpp"

namespace gs::power {

Battery::Battery(BatteryConfig cfg) : cfg_(cfg) {
  GS_REQUIRE(cfg_.capacity.value() > 0.0, "battery capacity must be positive");
  GS_REQUIRE(cfg_.peukert_exponent >= 1.0, "Peukert exponent must be >= 1");
  GS_REQUIRE(cfg_.max_dod > 0.0 && cfg_.max_dod <= 1.0,
             "DoD cap must be in (0,1]");
  GS_REQUIRE(cfg_.charge_efficiency > 0.0 && cfg_.charge_efficiency <= 1.0,
             "charge efficiency must be in (0,1]");
}

// All arithmetic lives in power/battery_math.hpp, shared bit-for-bit with
// the structure-of-arrays BatteryBank; this class is the per-object view.

Amps Battery::rated_current() const {
  return Amps(battmath::rated_current(cfg_));
}

Amps Battery::effective_current(Amps i) const {
  return Amps(battmath::effective_current(cfg_, i.value()));
}

double Battery::depth_of_discharge() const {
  return used_ah_ / cfg_.capacity.value();
}

double Battery::state_of_charge() const { return 1.0 - depth_of_discharge(); }

bool Battery::exhausted() const {
  return usable_remaining().value() <= 1e-9;
}

double Battery::faded_capacity_ah() const {
  return battmath::faded_capacity_ah(cfg_, capacity_fade_);
}

AmpHours Battery::usable_remaining() const {
  return AmpHours(
      battmath::usable_remaining_ah(cfg_, used_ah_, capacity_fade_));
}

Watts Battery::max_discharge_power(Seconds dt) const {
  return Watts(battmath::max_discharge_power_w(cfg_, used_ah_, capacity_fade_,
                                               dt.value()));
}

Joules Battery::discharge(Watts p, Seconds dt) {
  return Joules(battmath::discharge_j(cfg_, used_ah_, lifetime_discharge_ah_,
                                      capacity_fade_, p.value(), dt.value()));
}

Watts Battery::charge(Watts p, Seconds dt) {
  return Watts(
      battmath::charge_w(cfg_, used_ah_, charge_derate_, p.value(),
                         dt.value()));
}

Seconds Battery::supply_time_from_full(Watts p) const {
  return Seconds(
      battmath::supply_time_from_full_s(cfg_, capacity_fade_, p.value()));
}

AmpHours Battery::delivered_capacity(Amps i) const {
  return AmpHours(battmath::delivered_capacity_ah(cfg_, i.value()));
}

double Battery::equivalent_cycles() const {
  return battmath::equivalent_cycles(cfg_, lifetime_discharge_ah_);
}

void Battery::reset_full() { used_ah_ = 0.0; }

void Battery::set_capacity_fade(double factor) {
  GS_REQUIRE(factor > 0.0 && factor <= 1.0,
             "capacity fade factor must be in (0,1]");
  capacity_fade_ = factor;
}

void Battery::set_charge_derate(double factor) {
  GS_REQUIRE(factor > 0.0 && factor <= 1.0,
             "charge derate factor must be in (0,1]");
  charge_derate_ = factor;
}

}  // namespace gs::power
