// Bridge from BurstSim's epoch telemetry into the embedded time-series
// engine (src/tsdb). A sink binds one (rack, server) coordinate of one
// Engine and fans each EpochRecord out into the fifteen per-epoch metric
// series listed in kTsdbEpochMetrics — the exact column set (and order) of
// export_epochs_csv, so a CSV exported back out of the engine reproduces
// the legacy export byte for byte. Sample values are stored losslessly
// (doubles bit-exact, enums and flags as small exact integers) on the
// engine's order-preserving timestamp key, which is why the round trip is
// exact rather than approximate.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "tsdb/fwd.hpp"

namespace gs::sim {

struct EpochRecord;
struct ClusterEpoch;

inline constexpr std::size_t kNumTsdbEpochMetrics = 15;

/// Per-epoch metric names, in export_epochs_csv column order (after the
/// t_s time axis, which becomes the engine's timestamp).
extern const std::array<const char*, kNumTsdbEpochMetrics> kTsdbEpochMetrics;

/// Value of one metric column for a record (index into kTsdbEpochMetrics).
[[nodiscard]] double tsdb_epoch_metric_value(const EpochRecord& rec,
                                             std::size_t metric);

/// Copyable handle BurstSim forwards its epoch records through. A
/// default-constructed sink is disabled (records nothing).
class TsdbSink {
 public:
  TsdbSink() = default;
  /// Interns the fifteen series for (rack, server) in `engine`, which must
  /// outlive the sink. `engine` may be shared by many sinks (the engine is
  /// internally synchronized).
  TsdbSink(tsdb::Engine* engine, std::uint32_t rack, std::uint32_t server);

  [[nodiscard]] explicit operator bool() const { return engine_ != nullptr; }
  [[nodiscard]] std::uint32_t rack() const { return rack_; }
  [[nodiscard]] std::uint32_t server() const { return server_; }

  /// Append the record's metrics at its (absolute) epoch time.
  void record(const EpochRecord& rec) const;

 private:
  tsdb::Engine* engine_ = nullptr;
  std::uint32_t rack_ = 0;
  std::uint32_t server_ = 0;
  std::array<tsdb::SeriesId, kNumTsdbEpochMetrics> ids_{};
};

// --- Cluster-aggregate telemetry (Day/Rack runners) -------------------------

/// Server coordinate for cluster-aggregate series: these describe the
/// whole green group, not one machine, so they live outside the real
/// server-id range.
inline constexpr std::uint32_t kTsdbAggregateServer = 0xffffffffu;

inline constexpr std::size_t kNumTsdbClusterMetrics = 8;

/// Cluster-aggregate metric names, in ClusterEpoch field order.
extern const std::array<const char*, kNumTsdbClusterMetrics>
    kTsdbClusterMetrics;

/// Append one ClusterEpoch's aggregates at time `t_s` seconds under
/// (rack, kTsdbAggregateServer).
void record_cluster_epoch(tsdb::Engine& engine, std::uint32_t rack,
                          double t_s, const ClusterEpoch& ep);

}  // namespace gs::sim
