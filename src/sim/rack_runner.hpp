// Whole-rack co-simulation: the paper's 10-server prototype in one step
// loop. During a burst the 7 grid-powered servers sprint sub-optimally
// within the 1000 W grid budget (Section IV-A: "the grid can
// conservatively support the other 7 servers sprinting at sub-optimal
// performance") while the 3 green servers sprint from the green bus via
// GreenCluster. Reports cluster-level goodput and the rack's aggregate
// power draw — the quantities behind Fig. 1's emergency ovals and the
// cluster-wide speedup the per-green-server figures do not show.
#pragma once

#include "faults/fault_injector.hpp"
#include "sim/cluster.hpp"
#include "sim/green_cluster.hpp"

namespace gs::sim {

struct RackConfig {
  ClusterConfig cluster;       ///< 10 servers, 3 green, 1000 W budget.
  GreenClusterConfig green;    ///< Strategy/batteries of the green group
                               ///< (servers forced to cluster.green_servers).
  int panels = 3;
};

struct RackEpoch {
  server::ServerSetting grid_setting;  ///< Uniform sub-optimal sprint.
  ClusterEpoch green;                  ///< Per-server green-group epoch.
  double grid_goodput = 0.0;           ///< All grid servers together.
  double cluster_goodput = 0.0;        ///< Whole rack.
  Watts grid_servers_power{0.0};
  Watts rack_power{0.0};               ///< Grid servers + green group.
};

class RackRunner {
 public:
  RackRunner(const workload::AppDescriptor& app, RackConfig cfg);

  /// One burst epoch at per-server offered load `lambda` under rack-level
  /// renewable output `re_total`. `epoch_faults` (optional) is this epoch's
  /// injected fault state: a grid brownout shrinks the PDU share carrying
  /// the grid servers, and the green group sees the full per-server fault
  /// set through GreenCluster::step. Null keeps the exact fault-free path.
  RackEpoch step(Watts re_total, double lambda,
                 const faults::EpochFaults* epoch_faults = nullptr);

  /// Idle epoch: everything at Normal, batteries recharge.
  void idle_step(Watts re_total, double background_lambda);

  /// Whole-rack goodput if every server ran Normal mode (baseline).
  [[nodiscard]] double normal_cluster_goodput(double lambda) const;

  [[nodiscard]] const RackConfig& config() const { return cfg_; }
  [[nodiscard]] GreenCluster& green_cluster() { return green_; }

 private:
  RackConfig cfg_;
  workload::AppDescriptor app_;
  workload::PerfModel perf_;
  server::ServerPowerModel power_model_;
  GreenCluster green_;
};

}  // namespace gs::sim
