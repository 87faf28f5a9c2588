// Multi-day simulation: replays a diurnal workload (Fig. 1) with injected
// bursts against a weekly solar trace on the per-server green cluster.
// Outside bursts the servers run Normal mode on the grid while the PSS
// recharges the batteries; during bursts the cluster sprints from the
// green bus. The run accounts sprint-hours, energy by source, battery
// wear, and the goodput uplift — the inputs of the paper's TCO analysis
// (Fig. 11), measured instead of assumed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "ckpt/fwd.hpp"
#include "faults/fault_injector.hpp"
#include "faults/fault_spec.hpp"
#include "power/solar_array.hpp"
#include "sim/green_cluster.hpp"
#include "trace/solar.hpp"
#include "trace/workload_trace.hpp"
#include "tsdb/fwd.hpp"

namespace gs::sim {

struct DayRunConfig {
  int days = 1;
  GreenClusterConfig cluster;
  int panels = 3;
  /// Bursts injected per day (start times are within-day offsets).
  std::vector<trace::BurstPattern> daily_bursts;
  trace::DiurnalConfig diurnal;
  std::uint64_t solar_seed = 42;
  /// Background load fraction of Normal capacity between bursts.
  double background_load = 0.3;
  /// Fault-injection spec (src/faults). All-zero default = no injection
  /// and a bit-identical fault-free run. Fault times are run-relative
  /// (t = 0 at the first simulated epoch).
  faults::FaultSpec faults;
};

struct DayRunResult {
  Seconds simulated{0.0};
  Seconds sprint_time{0.0};          ///< Aggregate server-sprint time.
  double sprint_hours_per_server = 0.0;
  double mean_burst_goodput = 0.0;   ///< Per server, during bursts.
  double normal_goodput = 0.0;       ///< Baseline during the same bursts.
  double burst_speedup = 0.0;        ///< Ratio of the two.
  Joules re_energy{0.0};
  Joules batt_energy{0.0};
  Joules grid_energy{0.0};
  double battery_cycles = 0.0;       ///< Summed over the green servers.
  int bursts_served = 0;
  // Fault telemetry (zero on fault-free runs).
  std::size_t crash_epochs = 0;      ///< Server-epochs lost to crashes.
  std::size_t degraded_epochs = 0;   ///< Server-epochs clamped to Normal.
};

/// Returns the default burst schedule used by the examples: morning,
/// midday and evening bursts as in the paper's Fig. 1 narrative.
[[nodiscard]] std::vector<trace::BurstPattern> default_daily_bursts();

/// Digest over every DayRunConfig field that influences the run; day
/// snapshots embed it so a checkpoint cannot resume a different campaign.
[[nodiscard]] std::uint64_t day_run_fingerprint(const DayRunConfig& cfg);

/// Digest over every DayRunResult field, bit-exact on the doubles. Two
/// campaigns ran identically iff their result fingerprints match — the
/// daemon-e2e equivalence check (replayed feed, SIGTERM + resume, vs. one
/// uninterrupted batch run) compares exactly this.
[[nodiscard]] std::uint64_t day_result_fingerprint(const DayRunResult& r);

/// One epoch's exogenous inputs, exactly as DaySim::step() synthesizes
/// them internally: the per-server arrival rate, the solar trace output as
/// a capacity fraction (SolarArray::ac_output input), and the burst flag.
/// The serve daemon feeds these from a socket; feeding the planned values
/// back through step_live() reproduces the batch run bit-identically.
struct LiveEpoch {
  double lambda = 0.0;
  double irradiance = 0.0;
  bool in_burst = false;
};

/// The canonical feed of a campaign: the LiveEpoch the batch runner would
/// synthesize for every epoch, in order (horizon / epoch entries). This is
/// what `gs_feed --gen` serializes for replay against greensprintd.
[[nodiscard]] std::vector<LiveEpoch> day_feed_plan(const DayRunConfig& cfg);

/// Stepwise multi-day simulation behind run_days(): construct, step() one
/// epoch at a time until done(), then finish(). save_state/load_state
/// snapshot the full dynamic state (cluster batteries and controllers,
/// accumulators, clock), so a killed campaign resumes bit-identically on a
/// DaySim constructed from the same config (src/ckpt).
class DaySim {
 public:
  explicit DaySim(const DayRunConfig& cfg);

  [[nodiscard]] Seconds now() const { return t_; }
  [[nodiscard]] Seconds horizon() const { return horizon_; }
  [[nodiscard]] bool done() const { return !(t_ < horizon_); }

  /// Simulate the next epoch (burst or idle). Requires !done().
  /// Equivalent to step_live(planned_epoch(now())).
  void step();

  /// The exogenous inputs step() would synthesize for epoch time `t`.
  /// Does not advance the sim. The first call fetches the campaign's
  /// synthetic solar trace from the substrate cache (built on a miss), so
  /// a sim fed only through step_live() never builds one; hence non-const.
  [[nodiscard]] LiveEpoch planned_epoch(Seconds t);

  /// Simulate the next epoch from externally supplied inputs (the serve
  /// daemon's socket feed). Requires !done(). Feeding back planned_epoch
  /// values reproduces step() bit-identically; any other inputs simulate
  /// the cluster's closed-loop response to that live feed.
  void step_live(const LiveEpoch& in);

  /// Replace the live fault-injection spec from this epoch on (the
  /// daemon's `fault-inject <spec>` command). The schedule is rebuilt
  /// deterministically from the spec's own seed over the full horizon, so
  /// a checkpointed run restores the same remaining fault stream. The
  /// campaign config (and its fingerprint) is not touched. Injecting the
  /// currently active spec is a strict no-op.
  void set_faults(const faults::FaultSpec& spec);
  [[nodiscard]] const faults::FaultSpec& live_faults() const {
    return live_faults_;
  }

  /// Live strategy switch across the green cluster (see
  /// GreenCluster::set_strategy). Returns true when the kind changed.
  bool set_strategy(core::StrategyKind kind) {
    return cluster_.set_strategy(kind);
  }

  [[nodiscard]] const DayRunConfig& config() const { return cfg_; }
  [[nodiscard]] const GreenCluster& cluster() const { return cluster_; }
  [[nodiscard]] Seconds epoch() const { return epoch_; }
  [[nodiscard]] int bursts_served() const { return out_.bursts_served; }

  /// Stream every burst epoch's cluster aggregates into `engine` (which
  /// must outlive this sim) under `rack`. Runtime plumbing, not state:
  /// re-attach after a load_state() restore.
  void attach_tsdb(tsdb::Engine* engine, std::uint32_t rack = 0) {
    tsdb_ = engine;
    tsdb_rack_ = rack;
  }

  /// Aggregate the campaign statistics. Requires done().
  [[nodiscard]] DayRunResult finish();

  // --- Checkpoint/restore (src/ckpt). v2 appends the live overrides the
  // serve daemon can apply mid-run (active strategy kind, live fault
  // spec), so a daemon snapshot restores them before the cluster state.
  static constexpr std::uint32_t kStateVersion = 2;
  void save_state(ckpt::StateWriter& w) const;
  void load_state(ckpt::StateReader& r);

 private:
  DayRunConfig cfg_;
  /// Null until the first planned_epoch() call.
  std::shared_ptr<const trace::SolarTrace> solar_;
  power::SolarArray array_;
  GreenCluster cluster_;
  double lambda_burst_ = 0.0;
  double lambda_background_ = 0.0;
  Seconds epoch_{60.0};
  Seconds horizon_{0.0};
  faults::FaultSpec live_faults_;
  faults::FaultInjector injector_;
  Seconds t_{0.0};
  tsdb::Engine* tsdb_ = nullptr;
  std::uint32_t tsdb_rack_ = 0;
  bool in_burst_prev_ = false;
  double burst_goodput_sum_ = 0.0;
  std::size_t burst_epochs_ = 0;
  DayRunResult out_;
};

[[nodiscard]] DayRunResult run_days(const DayRunConfig& cfg);

/// Extrapolate a run's sprint activity to a year (for Fig. 11): yearly
/// sprint hours per KW of sprint (green) provision.
[[nodiscard]] double yearly_sprint_hours(const DayRunResult& r);

}  // namespace gs::sim
