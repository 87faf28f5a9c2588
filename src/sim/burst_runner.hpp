// The epoch-loop simulator that executes one burst scenario end to end:
// Monitor -> Predictor -> PSS case selection -> PMK strategy -> power
// settlement (battery / grid mutation) -> workload evaluation. The paper's
// Monitor role is the EpochRecord stream: one record per epoch, appended
// to the result and forwarded to an attached telemetry sink. It follows
// the paper's prototype methodology (Section IV):
//
//  * the burst saturates the cluster; the analysis focuses on the
//    green-provisioned servers, which sprint exclusively from the green
//    bus (renewable + server battery) while the grid conservatively
//    carries the rest of the rack,
//  * when the green sources cannot carry even Normal mode, the green
//    servers fall back to the grid at Normal mode,
//  * performance is the mean SLA-goodput over the burst, normalized to the
//    same burst executed entirely in Normal mode.
//
// The loop is exposed two ways: run_burst() executes a scenario in one
// call, and BurstSim is the stepwise form behind it — construct, step()
// per epoch, finish() — whose save_state/load_state snapshots make long
// campaigns resumable after a kill (src/ckpt).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "ckpt/fwd.hpp"
#include "common/rng.hpp"
#include "core/greensprint.hpp"
#include "faults/fault_injector.hpp"
#include "power/battery.hpp"
#include "power/grid.hpp"
#include "power/pss.hpp"
#include "power/solar_array.hpp"
#include "server/power_model.hpp"
#include "sim/scenario.hpp"
#include "sim/tsdb_sink.hpp"
#include "thermal/pcm.hpp"
#include "trace/solar.hpp"
#include "workload/perf_model.hpp"

namespace gs::sim {

/// Telemetry for one scheduling epoch of one green server.
struct EpochRecord {
  Seconds time{0.0};               ///< Start of the epoch (trace time).
  server::ServerSetting setting;
  power::PowerCase power_case = power::PowerCase::Idle;
  double offered_load = 0.0;       ///< Arrival rate (req/s).
  double goodput = 0.0;            ///< SLA-goodput (req/s).
  Seconds latency{0.0};            ///< Achieved tail latency.
  Watts demand{0.0};               ///< Server electrical demand.
  Watts re_used{0.0};
  Watts batt_used{0.0};
  Watts grid_used{0.0};
  Watts re_available{0.0};         ///< Green supply before settlement.
  double battery_soc = 1.0;
  bool downgraded = false;         ///< Emergency PMK downgrade fired.
  bool faulted = false;            ///< Any fault event active this epoch.
  bool crashed = false;            ///< Green server down this epoch.
  bool degraded = false;           ///< Controller clamped to Normal.
};

/// Result of one scenario run.
struct BurstResult {
  std::vector<EpochRecord> epochs;       ///< Burst epochs, per green server.
  double mean_goodput = 0.0;             ///< Over the burst (req/s/server).
  double normal_goodput = 0.0;           ///< Normal-mode baseline.
  double normalized_perf = 0.0;          ///< mean_goodput / normal_goodput.
  double final_battery_dod = 0.0;
  double battery_cycles = 0.0;           ///< Equivalent cycles consumed.
  Joules re_energy_used{0.0};
  Joules batt_energy_used{0.0};
  Joules grid_energy_used{0.0};
  Seconds window_start{0.0};             ///< Trace time the burst started.
  // Fault / degraded-mode telemetry (all zero on fault-free runs).
  std::size_t degraded_epochs = 0;       ///< Epochs clamped to Normal.
  std::size_t crash_epochs = 0;          ///< Epochs the server was down.
  Seconds fault_downtime{0.0};           ///< Downtime over all fault classes.
  /// Per-class availability telemetry: activation edges (incidents) and
  /// accumulated downtime. Feed export.hpp's availability_report for the
  /// MTTR/MTBF summary. Not part of sweep_fingerprint (which predates it).
  std::array<std::size_t, faults::kNumFaultClasses> fault_incidents{};
  std::array<Seconds, faults::kNumFaultClasses> fault_class_downtime{};
  /// Correlated-burst edges per class (Storm/Cascade-origin activity,
  /// faults/correlation.hpp) and epochs spent per controller health state
  /// (index = core::HealthState). Recorded only while fault injection is
  /// enabled; not part of sweep_fingerprint.
  std::array<std::size_t, faults::kNumFaultClasses> correlated_bursts{};
  std::array<std::size_t, 3> health_state_epochs{};
};

/// Stepwise burst simulation. Equivalent to run_burst() when driven to
/// completion; additionally checkpointable between epochs:
///
///   BurstSim sim(sc);                  // substrate setup + warmup
///   while (!sim.done()) sim.step();    // one scheduling epoch each
///   BurstResult r = sim.finish();
///
/// save_state() captures every mutable field (battery, grid, controller,
/// DES RNG, PCM, fault edges, the result recorded so far); a fresh
/// BurstSim over the same Scenario + load_state() continues bit-identically,
/// which is the kill-at-any-epoch resume guarantee the ckpt subsystem and
/// the resume-integrity CI lane enforce. The snapshot embeds
/// scenario_fingerprint(), so loading against a different scenario throws
/// ckpt::SnapshotError.
class BurstSim {
 public:
  explicit BurstSim(const Scenario& scenario);

  [[nodiscard]] std::size_t epoch_index() const { return epoch_; }
  [[nodiscard]] std::size_t num_epochs() const { return n_epochs_; }
  [[nodiscard]] bool done() const { return epoch_ >= n_epochs_; }

  /// Simulate the next scheduling epoch. Requires !done().
  void step();

  /// Stream every subsequent epoch's telemetry into `engine` (which must
  /// outlive this sim) under fleet coordinate (rack, server). Not part of
  /// the checkpoint state: re-attach after a load_state() restore.
  void attach_tsdb(tsdb::Engine* engine, std::uint32_t rack = 0,
                   std::uint32_t server = 0) {
    tsdb_ = TsdbSink(engine, rack, server);
  }

  /// Aggregate the burst statistics. Requires done().
  [[nodiscard]] BurstResult finish();

  // --- Checkpoint/restore (src/ckpt). v2 adds the correlated-burst edge
  // detector state; v3 drops the nested monitor section, whose counters
  // now accumulate in the in-progress result.
  static constexpr std::uint32_t kStateVersion = 3;
  void save_state(ckpt::StateWriter& w) const;
  void load_state(ckpt::StateReader& r);

 private:
  [[nodiscard]] Watts re_share(Seconds t) const;
  /// Append the epoch's record to the result and the attached sink.
  void record(const EpochRecord& rec);
  [[nodiscard]] power::Battery& batt() {
    return battery_ ? *battery_ : dummy_battery_;
  }
  [[nodiscard]] const power::Battery& batt() const {
    return battery_ ? *battery_ : dummy_battery_;
  }

  Scenario sc_;
  std::shared_ptr<const trace::SolarTrace> solar_;
  Seconds start_{0.0};
  power::SolarArray array_;
  std::optional<power::Battery> battery_;
  /// Stand-in when the scenario has no battery (RE-only provisioning);
  /// near-zero capacity so every settlement sees an exhausted source.
  power::Battery dummy_battery_;
  workload::PerfModel perf_;
  server::ServerPowerModel pmodel_;
  std::shared_ptr<const core::ProfileTable> profile_;
  core::GreenSprintController controller_;
  power::Grid grid_;
  power::PowerSourceSelector pss_;
  server::ServerSetting normal_;
  double lambda_peak_ = 0.0;
  double lambda_background_ = 0.0;
  std::size_t n_epochs_ = 0;
  std::size_t epoch_ = 0;

  TsdbSink tsdb_;
  Rng des_rng_;
  faults::FaultInjector injector_;
  bool prev_disturbance_ = false;
  double last_sensed_load_ = 0.0;
  thermal::PcmBuffer pcm_;
  bool thermal_limited_ = false;
  double normal_goodput_sum_ = 0.0;
  /// Previous epoch's per-class activity, for incident (rising-edge)
  /// detection feeding the MTTR/MTBF telemetry.
  std::array<bool, faults::kNumFaultClasses> prev_fault_active_{};
  /// Same, restricted to correlated (Storm/Cascade-origin) activity.
  std::array<bool, faults::kNumFaultClasses> prev_corr_active_{};
  /// The result so far: the epoch records plus the fault and health
  /// counters, which step() bumps as it goes. finish() derives the rest.
  BurstResult result_;
};

/// Execute the scenario. Throws gs::ContractError if the solar trace has
/// no window of the requested availability class (never happens with the
/// default generator, which forces one clear and one overcast day).
[[nodiscard]] BurstResult run_burst(const Scenario& scenario);

/// Convenience: normalized performance only.
[[nodiscard]] double normalized_performance(const Scenario& scenario);

/// Binary round-trip of a finished BurstResult (the per-cell snapshot the
/// checkpointed sweep writes for completed cells).
void save_burst_result(ckpt::StateWriter& w, const BurstResult& r);
[[nodiscard]] BurstResult load_burst_result(ckpt::StateReader& r);

}  // namespace gs::sim
