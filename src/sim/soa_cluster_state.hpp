// gs:hot-path — structure-of-arrays per-server state for the epoch loop.
//
// SoaClusterState holds what GreenCluster keeps per server: the renewable
// allocation arrays (each server's claim and the share the policy grants)
// and the cross-epoch state — the previous faulted epoch's shortfall flags
// and, through the embedded BatteryBank, the per-battery charge / Peukert
// state.
//
// Lifetime rules: the arrays are sized once at cluster construction and
// never resized, so steady-state epochs perform no heap allocation here.
// `want_w` and `share_w` are rewritten every epoch; `prev_deficit` and the
// battery bank carry state across epochs (both are checkpointed).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "power/battery_bank.hpp"

namespace gs::sim {

struct SoaClusterState {
  SoaClusterState(power::BatteryConfig battery_cfg, std::size_t n)
      : want_w(n, 0.0),
        share_w(n, 0.0),
        prev_deficit(n, 0),
        batteries(battery_cfg, n) {}

  [[nodiscard]] std::size_t size() const { return want_w.size(); }

  // --- Epoch scratch (rewritten every step, index = server) ---------------
  std::vector<double> want_w;    ///< Allocation claim (max-sprint demand).
  std::vector<double> share_w;   ///< Renewable share granted by the policy.

  // --- Cross-epoch state (checkpointed) ------------------------------------
  /// Per-server shortfall flags from the previous faulted epoch (feeds the
  /// degraded-mode hysteresis; untouched on fault-free steps).
  std::vector<std::uint8_t> prev_deficit;
  /// Per-battery charge / Peukert state, structure-of-arrays.
  power::BatteryBank batteries;
};

}  // namespace gs::sim
