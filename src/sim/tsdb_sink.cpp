#include "sim/tsdb_sink.hpp"

#include "sim/green_cluster.hpp"
#include "tsdb/engine.hpp"

namespace gs::sim {

const std::array<const char*, kNumTsdbClusterMetrics> kTsdbClusterMetrics = {
    "cluster_goodput",   "cluster_demand_w", "cluster_re_w",
    "cluster_batt_w",    "cluster_grid_w",   "servers_sprinting",
    "servers_crashed",   "servers_degraded",
};

void record_cluster_epoch(tsdb::Engine& engine, std::uint32_t rack,
                          double t_s, const ClusterEpoch& ep) {
  const std::array<double, kNumTsdbClusterMetrics> values = {
      ep.total_goodput,
      ep.total_demand.value(),
      ep.re_used.value(),
      ep.batt_used.value(),
      ep.grid_used.value(),
      double(ep.servers_sprinting),
      double(ep.servers_crashed),
      double(ep.servers_degraded),
  };
  const tsdb::Timestamp t = tsdb::to_timestamp(t_s);
  for (std::size_t m = 0; m < kNumTsdbClusterMetrics; ++m) {
    engine.append_at(
        engine.series(kTsdbClusterMetrics[m], rack, kTsdbAggregateServer), t,
        values[m]);
  }
}

}  // namespace gs::sim
