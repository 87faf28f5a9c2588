// FaultInjector: evaluates the FaultSchedule at component boundaries.
//
// Runners query `at(t)` once per epoch and get an EpochFaults bundle of
// multiplicative derates and boolean outages to apply to the substrate:
// grid budget, solar output, battery capacity / charge efficiency, PSS
// path health, per-server crash/straggle state, and telemetry quality.
// A default-constructed (or all-zero-spec) injector is `enabled() ==
// false` and returns the neutral bundle — runners must gate every
// mutation on enabled() so that fault-free runs stay bit-identical to a
// build without the subsystem.
#pragma once

#include <vector>

#include "common/units.hpp"
#include "faults/fault_schedule.hpp"

namespace gs::faults {

/// The fault state in effect for one epoch. All factors are neutral (1.0 /
/// false / 0.0) when nothing is active.
struct EpochFaults {
  double grid_budget_factor = 1.0;        ///< Grid budget multiplier.
  double solar_factor = 1.0;              ///< Solar AC output multiplier.
  double battery_capacity_factor = 1.0;   ///< Usable-capacity multiplier.
  double charge_efficiency_factor = 1.0;  ///< Charge-efficiency multiplier.
  bool battery_offline = false;           ///< PSS stuck: battery unreachable.
  double switch_latency_fraction = 0.0;   ///< Epoch fraction lost switching.
  double sensor_load_factor = 1.0;        ///< Multiplier on the load sample.
  bool sensor_dropout = false;            ///< Telemetry stale this epoch.
  std::vector<bool> server_crashed;       ///< Per green server.
  std::vector<double> server_speed;       ///< Per-server service multiplier.

  [[nodiscard]] bool crashed(int server) const {
    return server >= 0 && std::size_t(server) < server_crashed.size() &&
           server_crashed[std::size_t(server)];
  }
  [[nodiscard]] double speed(int server) const {
    return server >= 0 && std::size_t(server) < server_speed.size()
               ? server_speed[std::size_t(server)]
               : 1.0;
  }
  /// Anything non-neutral this epoch?
  [[nodiscard]] bool any() const;
};

class FaultInjector {
 public:
  FaultInjector() = default;  ///< Disabled: at() always returns neutral.

  /// Build the schedule for a run: `horizon` is the faulted span, `epoch`
  /// the scheduling quantum, `servers` the green-server count. Times
  /// passed to at() are run-relative (0 = first faulted epoch).
  FaultInjector(const FaultSpec& spec, Seconds horizon, Seconds epoch,
                int servers);

  /// As above with correlated fault processes layered on (weather fronts,
  /// rack cascades, burst regimes); a disabled `corr` makes this identical
  /// to the plain spec constructor.
  FaultInjector(const FaultSpec& spec, const CorrelationSpec& corr,
                Seconds horizon, Seconds epoch, int servers);

  /// Adopt a pre-built (e.g. CSV-replayed) schedule.
  FaultInjector(FaultSchedule schedule, int servers);

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] const FaultSchedule& schedule() const { return schedule_; }

  /// Fault state for the epoch starting at run-relative time t. The
  /// sensor-noise multiplier is drawn from a per-epoch hashed stream so
  /// the result depends only on (spec.seed, t) — replays are exact.
  [[nodiscard]] EpochFaults at(Seconds t) const;

 private:
  FaultSchedule schedule_;
  int servers_ = 0;
  bool enabled_ = false;
};

}  // namespace gs::faults
