// gs:hot-path — per-request epoch loop; no heap allocation inside.
#include "workload/des.hpp"

#include <algorithm>
#include <functional>
#include <vector>

#include "common/assert.hpp"
#include "common/stats.hpp"

namespace gs::workload {

namespace {

// Per-thread scratch reused across epochs: the sweep runner calls the DES
// once per epoch per cell, and the backing stores (core heap, latency
// samples) would otherwise be reallocated each call. Each epoch refills
// them with assign() / clear(), which keep their capacity, so once both
// reach their high-water mark the per-request loop performs zero heap
// allocation. thread_local keeps the reuse safe under the sweep pool
// without sharing state across cells.
struct DesScratch {
  std::vector<double> free_at;    ///< Min-heap of core free times.
  std::vector<double> latencies;  ///< Completion latency samples.
};

DesScratch& des_scratch() {
  thread_local DesScratch scratch;
  return scratch;
}

}  // namespace

DesResult simulate_epoch(Rng& rng, const AppDescriptor& app,
                         const server::ServerSetting& setting, double lambda,
                         Seconds epoch, DesOptions options) {
  GS_REQUIRE(lambda >= 0.0, "arrival rate must be non-negative");
  GS_REQUIRE(epoch.value() > 0.0, "epoch must be positive");
  if (lambda == 0.0) return DesResult{};
  GS_REQUIRE(options.service_derate > 0.0 && options.service_derate <= 1.0,
             "service derate must be in (0,1]");
  const double mu = app.service_rate(setting.frequency()) *
                    options.service_derate;
  const double mean_service = 1.0 / mu;
  GS_REQUIRE(mean_service > 0.0, "mean service time must be positive");
  // Service draws use the rate 1 / mean_service, not mu: the two can
  // differ in the last bit, and the draws are pinned by bit pattern.
  const double service_rate = 1.0 / mean_service;
  const double horizon = epoch.value();

  DesResult res;

  // FCFS M/M/k dispatch: each arrival goes to the earliest-free
  // core. A min-heap of core free times implements this exactly for FCFS;
  // the heap lives in reused scratch storage with std::push_heap /
  // std::pop_heap in place of a per-call std::priority_queue.
  auto& scratch = des_scratch();
  auto& free_at = scratch.free_at;
  // Reused scratch: allocates only until the high-water mark.
  // gs-lint: allow(hot-path-alloc)
  free_at.assign(std::size_t(setting.cores), 0.0);
  const auto heap_cmp = std::greater<>{};

  auto& latencies = scratch.latencies;
  latencies.clear();

  double busy_core_time = 0.0;
  double t = rng.exponential(lambda);
  while (t < horizon) {
    ++res.arrivals;
    const double core_free = free_at.front();
    // Admission control: shed the request if its queueing delay alone
    // would blow the admission budget.
    if (options.admit_wait_limit_s > 0.0 &&
        core_free - t > options.admit_wait_limit_s) {
      ++res.dropped;
      t += rng.exponential(lambda);
      continue;
    }
    std::pop_heap(free_at.begin(), free_at.end(), heap_cmp);
    const double start = std::max(t, core_free);
    const double service = rng.exponential(service_rate);
    const double done = start + service;
    free_at.back() = done;
    std::push_heap(free_at.begin(), free_at.end(), heap_cmp);
    if (done <= horizon) {
      ++res.completed;
      busy_core_time += service;
      const double latency = done - t;
      // Reused sample store. gs-lint: allow(hot-path-alloc)
      latencies.push_back(latency);
      if (latency <= app.qos.limit.value()) ++res.sla_met;
    }
    t += rng.exponential(lambda);
  }

  if (!latencies.empty()) {
    std::sort(latencies.begin(), latencies.end());
    const double tail = quantile_sorted(latencies.data(), latencies.size(),
                                        app.qos.percentile);
    res.tail_latency = Seconds(tail);
  }
  res.goodput_rate = double(res.sla_met) / horizon;
  // Service straddling the epoch boundary can nudge the busy-time ratio
  // past 1, so clamp it.
  res.mean_utilization = std::min(
      1.0, busy_core_time / (double(setting.cores) * horizon));
  return res;
}

}  // namespace gs::workload
