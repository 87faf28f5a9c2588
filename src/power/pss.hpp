// Power Source Selector (paper Section III-A, Figure 4).
//
// Each scheduling epoch the PSS settles the green server group's demand
// against the three sources, in the paper's priority order:
//
//   Case 1  renewable power alone covers the demand; surplus charges the
//           battery (T1-T2 in Fig. 4),
//   Case 2  renewable is insufficient; the battery discharges to cover the
//           shortfall (T2-T3),
//   Case 3  renewable unavailable; the battery sustains sprinting alone
//           and, once the burst completes, the battery is recharged from
//           the grid (T3-T4).
//
// A bounded grid fallback covers green servers running at Normal mode when
// both green sources are dead (the paper's REOnly/min case, "all servers
// return to the Normal mode powered by the grid utility"). If demand still
// cannot be met the settlement reports a deficit and the PMK must lower the
// sprint intensity.
#pragma once

#include "common/units.hpp"
#include "power/battery.hpp"
#include "power/battery_bank.hpp"
#include "power/grid.hpp"

namespace gs::power {

enum class PowerCase {
  Idle,              ///< No demand this epoch.
  RenewableOnly,     ///< Case 1: RE covers everything.
  RenewableBattery,  ///< Case 2: RE + battery.
  BatteryOnly,       ///< Case 3: battery alone.
  GridFallback,      ///< Grid backs the green servers (Normal mode).
};

[[nodiscard]] const char* to_string(PowerCase c);

struct PssSettlement {
  PowerCase power_case = PowerCase::Idle;
  Watts demand{0.0};
  Watts re_available{0.0};
  Watts re_used{0.0};
  Watts batt_used{0.0};
  Watts grid_used{0.0};
  Watts re_to_battery{0.0};
  Watts grid_to_battery{0.0};
  /// Demand the sources could not cover; > 0 forces a PMK downgrade.
  Watts shortfall{0.0};
  [[nodiscard]] bool deficit() const { return shortfall.value() > 1e-6; }
};

struct PssConfig {
  /// Charge the battery from the grid when not bursting (Case 3 tail).
  bool grid_charging = true;
};

/// Fault state applied to one settlement (src/faults). The default is
/// healthy and leaves the settlement arithmetic untouched.
struct PssFaultState {
  /// Stuck source selector: the battery path is unreachable — no
  /// discharge, no charging — for the epoch.
  bool battery_offline = false;
  /// Fraction of the epoch lost to source switching; the green sources
  /// deliver only the remaining fraction of their power over the epoch.
  double switch_latency_fraction = 0.0;
};

class PowerSourceSelector {
 public:
  explicit PowerSourceSelector(PssConfig cfg = {}) : cfg_(cfg) {}

  /// Settle one epoch: mutates the battery (discharge/charge) and draws
  /// from the grid. `bursting` gates grid charging per the paper (charge
  /// from grid only in anticipation of future sprints, after the burst).
  /// `grid_fallback_cap` is the grid power available to the green group
  /// this epoch — n_green * normal-mode power when the servers run at
  /// Normal mode, ~0 while they sprint on the dedicated green bus.
  PssSettlement settle(Watts demand, Watts re_supply, Battery& battery,
                       Grid& grid, Seconds dt, bool bursting,
                       Watts grid_fallback_cap = Watts(0.0),
                       const PssFaultState& fault = {}) const;

  /// Settle against one element of a structure-of-arrays BatteryBank. The
  /// body is one shared template over the battery representation, so this
  /// overload is bit-identical to the scalar one by construction.
  PssSettlement settle(Watts demand, Watts re_supply, BatteryRef battery,
                       Grid& grid, Seconds dt, bool bursting,
                       Watts grid_fallback_cap = Watts(0.0),
                       const PssFaultState& fault = {}) const;

  [[nodiscard]] const PssConfig& config() const { return cfg_; }

 private:
  PssConfig cfg_;
};

}  // namespace gs::power
