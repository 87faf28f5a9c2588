// gs:durable-io
#include "sim/export.hpp"

#include <algorithm>
#include <array>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <system_error>

#include "common/assert.hpp"
#include "common/io.hpp"
#include "common/table.hpp"
#include "sim/tsdb_sink.hpp"
#include "tsdb/engine.hpp"
#include "tsdb/error.hpp"

namespace gs::sim {

namespace {

// Temp-file + rename, mirroring ckpt::write_snapshot_file: a crash (or
// disk-full failure) mid-export never leaves a truncated CSV at the
// destination path.
/// Failpoint site on every CSV export commit.
constexpr const char* kFailpointCsvWrite = "sim.export.write";

void write_csv_atomic(const std::string& path,
                      const std::function<void(std::ostream&)>& emit) {
  std::ostringstream body;
  emit(body);
  GS_REQUIRE(body.good(), "failed rendering export for: " + path);
  io::WriteOptions opts;
  // Bulk analysis exports are regenerable from the engine; they keep the
  // atomic rename but skip the fsync discipline checkpoints pay for.
  opts.durability = io::Durability::None;
  opts.site = kFailpointCsvWrite;
  io::atomic_write_file(std::filesystem::path(path), std::move(body).str(),
                        opts);
}

const std::array<const char*, 16> kEpochCsvHeader = {
    "t_s",    "cores",        "freq_ghz", "power_case", "demand_w",
    "re_w",   "batt_w",       "grid_w",   "soc",        "offered_load",
    "goodput", "latency_s",   "downgraded", "faulted",  "crashed",
    "degraded"};

std::vector<std::string> header_row() {
  return std::vector<std::string>(kEpochCsvHeader.begin(),
                                  kEpochCsvHeader.end());
}

}  // namespace

void export_epochs_csv(std::ostream& os, const BurstResult& result) {
  CsvWriter csv(os);
  csv.row(header_row());
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

void export_epochs_csv_file(const std::string& path,
                            const BurstResult& result) {
  write_csv_atomic(path,
                   [&](std::ostream& os) { export_epochs_csv(os, result); });
}

void export_epochs_csv(std::ostream& os, tsdb::Engine& engine,
                       std::uint32_t rack, std::uint32_t server,
                       Seconds window_start) {
  // Pull each metric column into its own time-aligned vector. The sink
  // appends every column at the same epoch timestamp, so the columns must
  // agree sample-for-sample; anything else means the engine holds partial
  // or foreign telemetry for this coordinate.
  std::array<std::vector<tsdb::Sample>, kNumTsdbEpochMetrics> cols;
  for (std::size_t m = 0; m < kNumTsdbEpochMetrics; ++m) {
    tsdb::Cursor cur =
        engine.query(kTsdbEpochMetrics[m], rack, tsdb::kMinTimestamp,
                     tsdb::kMaxTimestamp, server);
    tsdb::CursorRow row;
    while (cur.next(row)) cols[m].push_back(row.sample);
    if (cols[m].size() != cols[0].size()) {
      throw tsdb::TsdbError(
          std::string("epoch telemetry misaligned: metric '") +
          kTsdbEpochMetrics[m] + "' has " + std::to_string(cols[m].size()) +
          " samples, expected " + std::to_string(cols[0].size()));
    }
  }
  CsvWriter csv(os);
  csv.row(header_row());
  for (std::size_t i = 0; i < cols[0].size(); ++i) {
    const tsdb::Timestamp t = cols[0][i].time;
    for (std::size_t m = 1; m < kNumTsdbEpochMetrics; ++m) {
      if (cols[m][i].time != t) {
        throw tsdb::TsdbError(
            std::string("epoch telemetry misaligned: metric '") +
            kTsdbEpochMetrics[m] + "' timestamp diverges at row " +
            std::to_string(i));
      }
    }
    // Columns 0..14 of cols are the post-t_s CSV columns in order (see
    // kTsdbEpochMetrics). cores and power_case were stored as small exact
    // integers; the flags as 0.0/1.0; everything else bit-exact, so each
    // formatter below reproduces the legacy column byte-for-byte.
    const auto v = [&](std::size_t m) { return cols[m][i].value; };
    csv.row({TextTable::exact(tsdb::to_seconds(t) - window_start.value()),
             std::to_string(int(v(0))),
             TextTable::exact(v(1)),
             power::to_string(power::PowerCase(int(v(2)))),
             TextTable::exact(v(3)),
             TextTable::exact(v(4)),
             TextTable::exact(v(5)),
             TextTable::exact(v(6)),
             TextTable::exact(v(7)),
             TextTable::exact(v(8)),
             TextTable::exact(v(9)),
             TextTable::exact(v(10)),
             v(11) != 0.0 ? "1" : "0",
             v(12) != 0.0 ? "1" : "0",
             v(13) != 0.0 ? "1" : "0",
             v(14) != 0.0 ? "1" : "0"});
  }
}

void export_summary_header(std::ostream& os) {
  CsvWriter csv(os);
  csv.row({"app", "config", "strategy", "availability", "minutes",
           "intensity", "normalized_perf", "mean_goodput", "re_wh",
           "batt_wh", "grid_wh", "battery_dod", "faults",
           "degraded_epochs", "crash_epochs", "fault_downtime_s"});
}

void export_summary_row(std::ostream& os, const Scenario& scenario,
                        const BurstResult& result) {
  CsvWriter csv(os);
  csv.row({scenario.app.name, scenario.green.name,
           core::to_string(scenario.strategy),
           trace::to_string(scenario.availability),
           TextTable::exact(scenario.burst_duration.value() / 60.0),
           std::to_string(scenario.burst_intensity),
           TextTable::exact(result.normalized_perf),
           TextTable::exact(result.mean_goodput),
           TextTable::exact(to_watt_hours(result.re_energy_used).value()),
           TextTable::exact(to_watt_hours(result.batt_energy_used).value()),
           TextTable::exact(to_watt_hours(result.grid_energy_used).value()),
           TextTable::exact(result.final_battery_dod),
           scenario.faults.any() ? scenario.faults.to_string() : "none",
           std::to_string(result.degraded_epochs),
           std::to_string(result.crash_epochs),
           TextTable::exact(result.fault_downtime.value())});
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

void export_availability_csv(std::ostream& os, const AvailabilityReport& rep) {
  CsvWriter csv(os);
  csv.row({"fault_class", "incidents", "downtime_s", "mttr_s", "mtbf_s",
           "availability"});
  for (const AvailabilityRow& row : rep.per_class) {
    const double avail =
        rep.observed.value() > 0.0
            ? std::clamp(1.0 - row.downtime.value() / rep.observed.value(),
                         0.0, 1.0)
            : 1.0;
    csv.row({faults::to_string(row.cls), std::to_string(row.incidents),
             TextTable::exact(row.downtime.value()),
             TextTable::exact(row.mttr.value()),
             TextTable::exact(row.mtbf.value()),
             TextTable::exact(avail)});
  }
  // A zero-incident run has no repairs to average: MTTR/MTBF are
  // undefined, not 0.0 — report "no-failures" so downstream tooling does
  // not mistake a perfect run for an instantly-failing one.
  const bool failure_free = rep.incidents == 0;
  csv.row({"total", std::to_string(rep.incidents),
           TextTable::exact(rep.downtime.value()),
           failure_free ? "no-failures"
                        : TextTable::exact(rep.mttr.value()),
           failure_free ? "no-failures"
                        : TextTable::exact(rep.mtbf.value()),
           TextTable::exact(rep.availability)});
}

void export_availability_csv_file(const std::string& path,
                                  const AvailabilityReport& rep) {
  write_csv_atomic(
      path, [&](std::ostream& os) { export_availability_csv(os, rep); });
}

}  // namespace gs::sim
