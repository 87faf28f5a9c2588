// gs:hot-path — structure-of-arrays battery state for the epoch kernel.
//
// A BatteryBank holds the per-battery charge / Peukert state of a whole
// green group in four parallel arrays (used Ah, lifetime Ah, capacity
// fade, charge derate) under one shared BatteryConfig. Every operation
// routes through power/battery_math.hpp — the same functions the scalar
// `Battery` calls — so a bank and a vector<Battery> driven by the same
// operation sequence hold bit-identical state at every step.
//
// `BatteryRef` is a Battery-shaped view of one bank element; the PSS
// settlement template accepts either representation through it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ckpt/fwd.hpp"
#include "common/units.hpp"
#include "power/battery.hpp"
#include "power/battery_math.hpp"

namespace gs::power {

class BatteryBank {
 public:
  BatteryBank(BatteryConfig cfg, std::size_t n);

  [[nodiscard]] std::size_t size() const { return used_ah_.size(); }
  [[nodiscard]] const BatteryConfig& config() const { return cfg_; }

  [[nodiscard]] double depth_of_discharge(std::size_t i) const {
    return used_ah_[i] / cfg_.capacity.value();
  }
  [[nodiscard]] double state_of_charge(std::size_t i) const {
    return 1.0 - depth_of_discharge(i);
  }
  [[nodiscard]] Watts max_discharge_power(std::size_t i, Seconds dt) const {
    return Watts(battmath::max_discharge_power_w(cfg_, used_ah_[i], fade_[i],
                                                 dt.value()));
  }
  Joules discharge(std::size_t i, Watts p, Seconds dt) {
    return Joules(battmath::discharge_j(cfg_, used_ah_[i], lifetime_ah_[i],
                                        fade_[i], p.value(), dt.value()));
  }
  Watts charge(std::size_t i, Watts p, Seconds dt) {
    return Watts(battmath::charge_w(cfg_, used_ah_[i], derate_[i], p.value(),
                                    dt.value()));
  }
  [[nodiscard]] double equivalent_cycles(std::size_t i) const {
    return battmath::equivalent_cycles(cfg_, lifetime_ah_[i]);
  }

  /// Fault factors apply bank-wide (the injector derates the whole green
  /// group; GreenCluster sets them from each faulted epoch's EpochFaults).
  void set_capacity_fade_all(double factor);
  void set_charge_derate_all(double factor);

  /// Sum of per-battery state of charge (the kernel's mean_soc numerator).
  [[nodiscard]] double total_soc() const;
  [[nodiscard]] double total_equivalent_cycles() const;

  // Raw arrays for the branch-lean kernel loops.
  [[nodiscard]] const std::vector<double>& used_ah() const { return used_ah_; }
  [[nodiscard]] const std::vector<double>& capacity_fade() const {
    return fade_;
  }

  // --- Checkpoint/restore (src/ckpt) --------------------------------------
  // One element's snapshot is byte-identical to Battery::save_state, so a
  // bank-backed cluster reads (and writes) the same cluster snapshots as
  // the historical vector<Battery> layout.
  void save_state_element(ckpt::StateWriter& w, std::size_t i) const;
  void load_state_element(ckpt::StateReader& r, std::size_t i);

 private:
  BatteryConfig cfg_;
  std::vector<double> used_ah_;      ///< Effective Ah consumed since full.
  std::vector<double> lifetime_ah_;  ///< Cumulative discharge Ah.
  std::vector<double> fade_;         ///< Capacity-fade factor in (0,1].
  std::vector<double> derate_;       ///< Charge-derate factor in (0,1].
};

/// Battery-shaped view of one BatteryBank element (for code templated
/// over the battery representation, e.g. the PSS settlement).
class BatteryRef {
 public:
  BatteryRef(BatteryBank& bank, std::size_t i) : bank_(&bank), i_(i) {}

  [[nodiscard]] Watts max_discharge_power(Seconds dt) const {
    return bank_->max_discharge_power(i_, dt);
  }
  Joules discharge(Watts p, Seconds dt) { return bank_->discharge(i_, p, dt); }
  Watts charge(Watts p, Seconds dt) { return bank_->charge(i_, p, dt); }
  [[nodiscard]] double depth_of_discharge() const {
    return bank_->depth_of_discharge(i_);
  }
  [[nodiscard]] const BatteryConfig& config() const { return bank_->config(); }

 private:
  BatteryBank* bank_;
  std::size_t i_;
};

}  // namespace gs::power
