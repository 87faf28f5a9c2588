#include "sim/export.hpp"

#include <algorithm>
#include <string>

#include "common/assert.hpp"
#include "common/table.hpp"

namespace gs::sim {

void export_epochs_csv(std::ostream& os, const BurstResult& result) {
  CsvWriter csv(os);
  csv.row({"t_s", "cores", "freq_ghz", "power_case", "demand_w", "re_w",
           "batt_w", "grid_w", "soc", "offered_load", "goodput",
           "latency_s", "downgraded", "faulted", "crashed", "degraded"});
  for (const auto& e : result.epochs) {
    csv.row({TextTable::exact((e.time - result.window_start).value()),
             std::to_string(e.setting.cores),
             TextTable::exact(e.setting.frequency().value()),
             power::to_string(e.power_case),
             TextTable::exact(e.demand.value()),
             TextTable::exact(e.re_used.value()),
             TextTable::exact(e.batt_used.value()),
             TextTable::exact(e.grid_used.value()),
             TextTable::exact(e.battery_soc),
             TextTable::exact(e.offered_load),
             TextTable::exact(e.goodput),
             TextTable::exact(e.latency.value()),
             e.downgraded ? "1" : "0",
             e.faulted ? "1" : "0",
             e.crashed ? "1" : "0",
             e.degraded ? "1" : "0"});
  }
}

AvailabilityReport availability_report(const BurstResult& result,
                                       Seconds epoch) {
  GS_REQUIRE(epoch.value() > 0.0, "epoch must be positive");
  AvailabilityReport rep;
  rep.observed = epoch * double(result.epochs.size());
  for (const auto& e : result.epochs) {
    if (e.faulted || e.crashed) rep.impaired += epoch;
  }
  for (const faults::FaultClass cls : faults::all_fault_classes()) {
    const auto idx = std::size_t(cls);
    const std::size_t incidents = result.fault_incidents[idx];
    const Seconds downtime = result.fault_class_downtime[idx];
    rep.incidents += incidents;
    rep.downtime += downtime;
    if (incidents == 0) continue;
    AvailabilityRow row;
    row.cls = cls;
    row.incidents = incidents;
    row.downtime = downtime;
    row.mttr = Seconds(downtime.value() / double(incidents));
    row.mtbf = Seconds(
        std::max(0.0, (rep.observed - downtime).value()) / double(incidents));
    rep.per_class.push_back(row);
  }
  if (rep.observed.value() > 0.0) {
    rep.availability = std::clamp(
        1.0 - rep.impaired.value() / rep.observed.value(), 0.0, 1.0);
  }
  if (rep.incidents > 0) {
    rep.mttr = Seconds(rep.downtime.value() / double(rep.incidents));
    rep.mtbf = Seconds(std::max(0.0, (rep.observed - rep.downtime).value()) /
                       double(rep.incidents));
  }
  return rep;
}

}  // namespace gs::sim
