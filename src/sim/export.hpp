// Result exports: the per-epoch CSV (machine-readable, for external
// plotting of the paper's figures; greensprint_cli --csv prints it) and
// the availability (MTTR/MTBF) report over a burst's fault telemetry.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <vector>

#include "sim/burst_runner.hpp"

namespace gs::sim {

/// One row per epoch: time, setting, power case, per-source watts, SoC,
/// goodput, latency. Numbers are formatted with TextTable::exact, so the
/// CSV re-ingests without losing bits.
void export_epochs_csv(std::ostream& os, const BurstResult& result);

// --- Availability (MTTR/MTBF) reporting -----------------------------------

/// Availability of one fault class over a burst.
struct AvailabilityRow {
  faults::FaultClass cls = faults::FaultClass(0);
  std::size_t incidents = 0;   ///< Activation edges of the class.
  Seconds downtime{0.0};       ///< Epochs the class was active.
  Seconds mttr{0.0};           ///< downtime / incidents.
  Seconds mtbf{0.0};           ///< (observed - downtime) / incidents.
};

/// MTTR/MTBF summary derived from a BurstResult's per-class incident and
/// downtime telemetry. Downtime of concurrently-active classes is counted
/// once per class, so the class-summed `downtime` can exceed the
/// observation window; the aggregate availability therefore uses the
/// *union* of impaired time (epochs with any fault active or the server
/// crashed, from the epoch flags), like an SRE availability report.
struct AvailabilityReport {
  Seconds observed{0.0};       ///< Burst length (epochs x epoch).
  Seconds downtime{0.0};       ///< Summed over every class (may overlap).
  Seconds impaired{0.0};       ///< Union: epochs with any class active.
  std::size_t incidents = 0;
  double availability = 1.0;   ///< 1 - impaired/observed, in [0,1].
  Seconds mttr{0.0};
  Seconds mtbf{0.0};
  std::vector<AvailabilityRow> per_class;  ///< Classes with incidents only.
};

/// Build the report; `epoch` is the scenario's scheduling-epoch length
/// (the result records downtime in whole epochs).
[[nodiscard]] AvailabilityReport availability_report(const BurstResult& result,
                                                     Seconds epoch);

}  // namespace gs::sim
