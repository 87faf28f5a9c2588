#include "power/pss.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace gs::power {

const char* to_string(PowerCase c) {
  switch (c) {
    case PowerCase::Idle:
      return "Idle";
    case PowerCase::RenewableOnly:
      return "RenewableOnly";
    case PowerCase::RenewableBattery:
      return "RenewableBattery";
    case PowerCase::BatteryOnly:
      return "BatteryOnly";
    case PowerCase::GridFallback:
      return "GridFallback";
  }
  return "?";
}

namespace {

// One settlement body for both battery representations (scalar Battery and
// BatteryBank element): the instantiations run the same statements in the
// same order, so the representations cannot drift apart numerically.
template <typename BatteryLike>
PssSettlement settle_impl(const PssConfig& cfg, Watts demand, Watts re_supply,
                          BatteryLike& battery, Grid& grid, Seconds dt,
                          bool bursting, Watts grid_fallback_cap,
                          const PssFaultState& fault) {
  GS_REQUIRE(dt.value() > 0.0, "dt must be positive");
  GS_REQUIRE(demand.value() >= 0.0, "demand must be non-negative");
  GS_REQUIRE(re_supply.value() >= 0.0, "RE supply must be non-negative");
  GS_REQUIRE(fault.switch_latency_fraction >= 0.0 &&
                 fault.switch_latency_fraction < 1.0,
             "PSS switch latency fraction must be in [0,1)");

  PssSettlement s;
  s.demand = demand;
  s.re_available = re_supply;

  // Switch latency burns a slice of the epoch before the green sources
  // engage: their deliverable epoch-average power shrinks accordingly.
  const Watts re_deliverable =
      fault.switch_latency_fraction > 0.0
          ? re_supply * (1.0 - fault.switch_latency_fraction)
          : re_supply;

  // 1) Renewable first (Case 1).
  s.re_used = std::min(demand, re_deliverable);
  Watts residual = demand - s.re_used;

  // 2) Battery covers the shortfall (Cases 2/3), limited by what it can
  //    sustain for the whole epoch. A stuck source selector can cut the
  //    battery path entirely. With no shortfall the Peukert solve is
  //    skipped: min(0, capable) is the zero residual either way.
  if (residual.value() > 0.0) {
    Watts batt_capable =
        fault.battery_offline ? Watts(0.0) : battery.max_discharge_power(dt);
    if (fault.switch_latency_fraction > 0.0) {
      batt_capable = batt_capable * (1.0 - fault.switch_latency_fraction);
    }
    s.batt_used = std::min(residual, batt_capable);
    residual -= s.batt_used;
  }

  // 3) Grid backstop for the green group (bounded; normally sized to keep
  //    the green servers at Normal mode only).
  if (residual.value() > 1e-9 && grid_fallback_cap.value() > 0.0) {
    const Watts want = std::min(residual, grid_fallback_cap);
    s.grid_used = grid.draw(want, dt);
    residual -= s.grid_used;
  }
  s.shortfall = std::max(residual, Watts(0.0));

  // Execute the battery discharge decided above.
  if (s.batt_used.value() > 0.0) {
    battery.discharge(s.batt_used, dt);
  }

  // 4) Charging. Surplus renewable charges the battery whenever present
  //    (Case 1 tail); the grid recharges it only outside bursts (Case 3).
  //    A stuck selector blocks the charge path along with discharge.
  const Watts surplus_re = re_deliverable - s.re_used;
  if (surplus_re.value() > 1e-9 && !fault.battery_offline) {
    s.re_to_battery = battery.charge(surplus_re, dt);
  }
  if (!bursting && cfg.grid_charging && !fault.battery_offline &&
      battery.depth_of_discharge() > 1e-9) {
    const Watts offer = battery.config().max_charge_power;
    const Watts granted = grid.draw(offer, dt);
    if (granted.value() > 0.0) {
      s.grid_to_battery = battery.charge(granted, dt);
    }
  }

  // Classify the epoch.
  const bool re = s.re_used.value() > 1e-9;
  const bool bat = s.batt_used.value() > 1e-9;
  const bool gr = s.grid_used.value() > 1e-9;
  if (demand.value() <= 1e-9) {
    s.power_case = PowerCase::Idle;
  } else if (gr) {
    s.power_case = PowerCase::GridFallback;
  } else if (re && bat) {
    s.power_case = PowerCase::RenewableBattery;
  } else if (re) {
    s.power_case = PowerCase::RenewableOnly;
  } else if (bat) {
    s.power_case = PowerCase::BatteryOnly;
  } else {
    s.power_case = PowerCase::GridFallback;  // all-shortfall epoch
  }
  return s;
}

}  // namespace

PssSettlement PowerSourceSelector::settle(Watts demand, Watts re_supply,
                                          Battery& battery, Grid& grid,
                                          Seconds dt, bool bursting,
                                          Watts grid_fallback_cap,
                                          const PssFaultState& fault) const {
  return settle_impl(cfg_, demand, re_supply, battery, grid, dt, bursting,
                     grid_fallback_cap, fault);
}

PssSettlement PowerSourceSelector::settle(Watts demand, Watts re_supply,
                                          BatteryRef battery, Grid& grid,
                                          Seconds dt, bool bursting,
                                          Watts grid_fallback_cap,
                                          const PssFaultState& fault) const {
  return settle_impl(cfg_, demand, re_supply, battery, grid, dt, bursting,
                     grid_fallback_cap, fault);
}

}  // namespace gs::power
