// Discrete-event per-request simulation of one epoch on one server: Poisson
// arrivals, exponential service on k cores, FCFS. This is the fidelity
// path; tests cross-validate it against the analytic M/M/k model and the
// epoch simulator can run on it instead of the analytic goodput.
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "server/setting.hpp"
#include "workload/app.hpp"

namespace gs::workload {

struct DesResult {
  std::uint64_t arrivals = 0;
  std::uint64_t completed = 0;   ///< Finished within the epoch.
  std::uint64_t sla_met = 0;     ///< Completed within the QoS latency limit.
  std::uint64_t dropped = 0;     ///< Shed by admission control.
  Seconds tail_latency{0.0};     ///< QoS-percentile latency of completions.
  double goodput_rate = 0.0;     ///< sla_met / epoch length (req/s).
  double mean_utilization = 0.0; ///< Busy core-time / (k * epoch).
};

struct DesOptions {
  /// Admission control: shed an arrival whose queueing delay would exceed
  /// this many seconds (0 = unbounded queue). Interactive services bound
  /// their queues so admitted requests finish near the SLA; an unbounded
  /// overloaded queue serves almost nothing within SLA.
  double admit_wait_limit_s = 0.0;
  /// Straggler fault (src/faults): service rate multiplier in (0, 1]. A
  /// straggling server completes requests at `service_derate` of the
  /// healthy rate for the epoch.
  double service_derate = 1.0;
};

/// Simulate `epoch` seconds of a k-core server under Poisson(lambda)
/// arrivals with per-core service rate app.service_rate(f). The queue
/// starts empty (bursts arrive at an idle sprint configuration) and
/// requests still in flight at the epoch end are counted as arrivals but
/// not completions.
[[nodiscard]] DesResult simulate_epoch(Rng& rng, const AppDescriptor& app,
                                       const server::ServerSetting& setting,
                                       double lambda, Seconds epoch,
                                       DesOptions options = {});

}  // namespace gs::workload
