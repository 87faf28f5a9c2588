// Server-level VRLA lead-acid battery model (paper Section II, "Battery").
//
// Two effects dominate sprint-scale battery behaviour and both are modeled:
//
//  * Peukert's law (exponent 1.15 for lead-acid): delivered capacity drops
//    at high discharge currents. We use the standard effective-current
//    formulation I_eff = I * (I / I_rated)^(k-1), where I_rated = C / H at
//    the rated H-hour (20 h) discharge rate. The paper's own calibration
//    point — a 24 Ah battery delivering only ~12 Ah at a 12-minute rate —
//    is a unit test.
//  * Depth-of-discharge cap: discharging stops at DoD = 40% to preserve the
//    ~1300-cycle lifetime; the model counts equivalent cycles for the TCO
//    analysis (Fig. 11).
#pragma once

#include "common/units.hpp"

namespace gs::power {

struct BatteryConfig {
  AmpHours capacity{10.0};      ///< Rated capacity at the H-hour rate.
  Volts nominal_voltage{12.0};
  double peukert_exponent = 1.15;
  double rated_hours = 20.0;    ///< H of the rated capacity.
  double max_dod = 0.40;        ///< Discharge stops at this depth.
  double charge_efficiency = 0.90;
  Watts max_charge_power{60.0};
  /// Discharge current ceiling as a multiple of capacity (C-rate). VRLA
  /// units tolerate high pulse rates; 20C comfortably covers full-sprint
  /// draw and the binding constraint remains Peukert energy.
  double max_discharge_c_rate = 20.0;
};

class Battery {
 public:
  explicit Battery(BatteryConfig cfg);

  /// Fraction of rated capacity consumed so far (0 = full).
  [[nodiscard]] double depth_of_discharge() const;
  /// State of charge (1 = full).
  [[nodiscard]] double state_of_charge() const;
  [[nodiscard]] bool exhausted() const;  ///< DoD cap reached.

  /// Effective Ah still usable before the DoD cap.
  [[nodiscard]] AmpHours usable_remaining() const;

  /// Greatest constant power the battery can deliver for the whole of dt
  /// without crossing the DoD cap or the current ceiling (Peukert-aware).
  [[nodiscard]] Watts max_discharge_power(Seconds dt) const;

  /// Draw `p` for dt. p must not exceed max_discharge_power(dt) (contract).
  /// Returns the energy delivered.
  Joules discharge(Watts p, Seconds dt);

  /// Offer `p` of charging power for dt; returns the power actually
  /// accepted (limited by the charge-rate cap and remaining headroom).
  Watts charge(Watts p, Seconds dt);

  /// Peukert supply time from *full* at constant power draw `p` (ignores
  /// current state; the classic datasheet curve).
  [[nodiscard]] Seconds supply_time_from_full(Watts p) const;

  /// Capacity actually delivered when fully drained at constant current I
  /// (the paper's 24 Ah -> 12 Ah illustration).
  [[nodiscard]] AmpHours delivered_capacity(Amps i) const;

  /// Cumulative equivalent full DoD-cycles (for lifetime / TCO accounting).
  [[nodiscard]] double equivalent_cycles() const;

  [[nodiscard]] const BatteryConfig& config() const { return cfg_; }

  /// Refill to full instantly (test / scenario setup helper).
  void reset_full();

  // --- Fault hooks (src/faults) -------------------------------------------
  // Capacity fade shrinks the *usable* window (the DoD cap applies to the
  // faded capacity) so depth_of_discharge stays a fraction of the rated
  // capacity and the 40% lifetime cap remains a hard invariant even while
  // faulted. Both factors are 1.0 in healthy operation, where every
  // computation reduces exactly to the unfaulted formulas.

  /// Set the usable-capacity multiplier in (0, 1].
  void set_capacity_fade(double factor);
  [[nodiscard]] double capacity_fade() const { return capacity_fade_; }

  /// Set the charge-efficiency multiplier in (0, 1].
  void set_charge_derate(double factor);
  [[nodiscard]] double charge_derate() const { return charge_derate_; }

 private:
  /// Effective (Peukert-corrected) current for a real current draw.
  [[nodiscard]] Amps effective_current(Amps i) const;
  [[nodiscard]] Amps rated_current() const;
  /// Rated capacity times the current fade factor.
  [[nodiscard]] double faded_capacity_ah() const;

  BatteryConfig cfg_;
  double used_ah_ = 0.0;             ///< Effective Ah consumed since full.
  double lifetime_discharge_ah_ = 0.0;
  double capacity_fade_ = 1.0;
  double charge_derate_ = 1.0;
};

}  // namespace gs::power
