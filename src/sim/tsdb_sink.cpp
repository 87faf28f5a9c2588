#include "sim/tsdb_sink.hpp"

#include "common/assert.hpp"
#include "sim/burst_runner.hpp"
#include "sim/green_cluster.hpp"
#include "tsdb/engine.hpp"

namespace gs::sim {

const std::array<const char*, kNumTsdbEpochMetrics> kTsdbEpochMetrics = {
    "cores",     "freq_ghz",     "power_case", "demand_w",
    "re_w",      "batt_w",       "grid_w",     "soc",
    "offered_load", "goodput",   "latency_s",  "downgraded",
    "faulted",   "crashed",      "degraded",
};

double tsdb_epoch_metric_value(const EpochRecord& rec, std::size_t metric) {
  switch (metric) {
    case 0: return double(rec.setting.cores);
    case 1: return rec.setting.frequency().value();
    case 2: return double(std::uint8_t(rec.power_case));
    case 3: return rec.demand.value();
    case 4: return rec.re_used.value();
    case 5: return rec.batt_used.value();
    case 6: return rec.grid_used.value();
    case 7: return rec.battery_soc;
    case 8: return rec.offered_load;
    case 9: return rec.goodput;
    case 10: return rec.latency.value();
    case 11: return rec.downgraded ? 1.0 : 0.0;
    case 12: return rec.faulted ? 1.0 : 0.0;
    case 13: return rec.crashed ? 1.0 : 0.0;
    case 14: return rec.degraded ? 1.0 : 0.0;
    default: break;
  }
  GS_REQUIRE(false, "tsdb epoch metric index out of range");
  return 0.0;
}

TsdbSink::TsdbSink(tsdb::Engine* engine, std::uint32_t rack,
                   std::uint32_t server)
    : engine_(engine), rack_(rack), server_(server) {
  GS_REQUIRE(engine_ != nullptr, "tsdb sink needs an engine");
  for (std::size_t m = 0; m < kNumTsdbEpochMetrics; ++m) {
    ids_[m] = engine_->series(kTsdbEpochMetrics[m], rack_, server_);
  }
}

void TsdbSink::record(const EpochRecord& rec) const {
  GS_REQUIRE(engine_ != nullptr, "record() on a disabled tsdb sink");
  const tsdb::Timestamp t = tsdb::to_timestamp(rec.time);
  for (std::size_t m = 0; m < kNumTsdbEpochMetrics; ++m) {
    engine_->append_at(ids_[m], t, tsdb_epoch_metric_value(rec, m));
  }
}

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
