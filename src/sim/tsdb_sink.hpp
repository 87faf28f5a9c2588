// Bridge from the day runner's cluster epochs into the embedded
// time-series engine (src/tsdb): each ClusterEpoch fans out into the eight
// aggregate series listed in kTsdbClusterMetrics. Sample values are stored
// losslessly (doubles bit-exact, counts as small exact integers) on the
// engine's order-preserving timestamp key.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "tsdb/fwd.hpp"

namespace gs::sim {

struct ClusterEpoch;

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
