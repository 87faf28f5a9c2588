// Per-server simulation of the green group: each green server owns its own
// battery (the paper adopts Google-style *server-level* batteries) and its
// own GreenSprint controller; the rack's renewable output is divided among
// them by an allocation policy.
//
//  * EqualShare — every green server receives RE/n (the paper's implicit
//    symmetric setup). A one-server EqualShare cluster replays
//    burst_runner's single-representative-server model bit for bit on
//    clean epochs, with one exception: when the replanned setting still
//    draws more than the green supply, BurstSim falls back to Normal while
//    the cluster sprints into a settlement deficit (2 of 1728 clean cells;
//    tests/sim/test_green_cluster.cpp).
//  * Waterfall  — servers are filled in priority order: the first server
//    gets renewable power up to its demand, the remainder flows to the
//    next. Concentrates scarce supply in a few fully-sprinting servers
//    instead of spreading it thin. bench/abl_re_allocation quantifies the
//    difference.
//
// One epoch loop serves clean and faulted epochs: a single pass over the
// servers in index order (the grid budget is shared, so draw order is part
// of the contract). The allocation arrays and the battery bank live in
// sim/soa_cluster_state.hpp; tests/sim/test_green_cluster.cpp pins the
// loop's results against golden digests.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ckpt/fwd.hpp"
#include "core/greensprint.hpp"
#include "faults/fault_injector.hpp"
#include "power/grid.hpp"
#include "power/pss.hpp"
#include "sim/soa_cluster_state.hpp"

namespace gs::sim {

enum class ReAllocation { EqualShare, Waterfall };

[[nodiscard]] const char* to_string(ReAllocation a);

struct GreenClusterConfig {
  int servers = 3;
  AmpHours battery_per_server{3.2};
  core::StrategyKind strategy = core::StrategyKind::Hybrid;
  ReAllocation allocation = ReAllocation::EqualShare;
  Seconds epoch{60.0};
  /// Recharge batteries from the grid between bursts (paper Case 3: "we
  /// charge the battery with grid power in anticipation of future
  /// sprints"). Off = renewable-only charging (greener, slower recovery;
  /// bench/abl_charge_policy).
  bool grid_charging = true;
  /// Forwarded into every per-server core::ControllerConfig: Hybrid
  /// controllers learn recovery actions from the health dimension instead
  /// of clamping to Normal while degraded. Default off (bit-identical).
  bool health_aware = false;
};

/// Result of one cluster epoch.
struct ClusterEpoch {
  std::vector<server::ServerSetting> settings;  ///< Per green server.
  double total_goodput = 0.0;
  Watts total_demand{0.0};
  Watts re_used{0.0};
  Watts batt_used{0.0};
  Watts grid_used{0.0};
  int servers_sprinting = 0;
  int servers_crashed = 0;   ///< Injected ServerCrash outages this epoch.
  int servers_degraded = 0;  ///< Controllers clamped to Normal.
};

class GreenCluster {
 public:
  GreenCluster(const workload::AppDescriptor& app, GreenClusterConfig cfg);

  /// Advance one epoch: per-server arrival rate `lambda`, rack-level
  /// renewable output `re_total`, `bursting` gates grid charging.
  /// `epoch_faults` (optional) is this epoch's injected fault state; its
  /// component factors stay applied until the next faulted call.
  ClusterEpoch step(Watts re_total, double lambda, bool bursting,
                    const faults::EpochFaults* epoch_faults = nullptr);

  /// Heterogeneous variant (paper Section III-B models per-server L_j and
  /// S_j): one arrival rate per green server. Waterfall allocation sizes
  /// each server's claim by its own maximal-sprint demand at its level.
  ClusterEpoch step_hetero(Watts re_total,
                           const std::vector<double>& lambdas,
                           bool bursting,
                           const faults::EpochFaults* epoch_faults = nullptr);

  /// Same as step_hetero. Kept only because gs_bench/layers.cpp times it
  /// under this name (sim.cluster_step_ref_us); drop it together with that
  /// call.
  ClusterEpoch step_hetero_reference(
      Watts re_total, const std::vector<double>& lambdas, bool bursting,
      const faults::EpochFaults* epoch_faults = nullptr);

  /// Idle epoch (no burst): servers at Normal on grid; surplus RE and the
  /// grid recharge the batteries. `epoch_faults` (optional) applies the
  /// epoch's component fault factors, as in step().
  void idle_step(Watts re_total, double background_lambda,
                 const faults::EpochFaults* epoch_faults = nullptr);

  /// Live strategy switch across every green server's controller (the
  /// daemon's `strategy <name>` command). Same-kind requests are strict
  /// no-ops; a real switch rebuilds each controller's PMK from scratch
  /// (learned state starts over). Call between epochs only. Returns true
  /// when the kind changed.
  bool set_strategy(core::StrategyKind kind);

  [[nodiscard]] int servers() const { return cfg_.servers; }
  [[nodiscard]] double mean_soc() const;
  [[nodiscard]] double total_equivalent_cycles() const;
  [[nodiscard]] const GreenClusterConfig& config() const { return cfg_; }
  [[nodiscard]] const workload::PerfModel& perf() const { return perf_; }

  // --- Checkpoint/restore (src/ckpt) --------------------------------------
  // The snapshot carries the dynamic state only (batteries, controllers,
  // grid, deficit flags); load_state requires a cluster constructed from
  // the same (app, config) and throws ckpt::SnapshotError on a server-count
  // mismatch. Each green server's battery is one BatteryBank element
  // section (power/battery_bank.hpp).
  static constexpr std::uint32_t kStateVersion = 1;
  void save_state(ckpt::StateWriter& w) const;
  void load_state(ckpt::StateReader& r);

 private:
  /// Fill soa_.want_w and run the allocation policy into soa_.share_w for
  /// this epoch.
  void prepare_epoch(Watts re_total, const std::vector<double>& lambdas);
  /// RE split for this epoch according to the policy (want_w -> share_w).
  void allocate_into(Watts re_total);
  /// Apply component-level fault factors (battery fade / charge derate on
  /// every green battery, grid brownout derate) for the coming epoch.
  /// Every faulted epoch passes its factors, so a recovered component gets
  /// the neutral factors back.
  void apply_component_faults(const faults::EpochFaults& epoch_faults);
  /// The per-server epoch loop, in server index order.
  ClusterEpoch step_servers(const std::vector<double>& lambdas,
                            bool bursting,
                            const faults::EpochFaults* epoch_faults);

  GreenClusterConfig cfg_;
  workload::AppDescriptor app_;
  workload::PerfModel perf_;
  server::ServerPowerModel power_model_;
  core::ProfileTable profile_;
  power::PowerSourceSelector pss_;
  std::vector<std::unique_ptr<core::GreenSprintController>> controllers_;
  power::Grid grid_;
  /// Per-server allocation arrays plus the checkpointed battery bank and
  /// prev-deficit flags.
  SoaClusterState soa_;
};

}  // namespace gs::sim
