// The sweep and day workloads: repeat one unit (a cold+warm sweep rep, or
// one day campaign) for the pass's budget and check every unit's result
// fingerprint against a batch reference computed before timing starts.
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "sim/sweep.hpp"

namespace gs::bench {

namespace {

/// Drives the warmup / minimum-duration / minimum-units loop.
class UnitLoop {
 public:
  explicit UnitLoop(const Budget& b) : b_(b) {}

  /// True while another unit should run; `measured()` tells whether the
  /// unit about to run counts.
  bool next() {
    if (unit_ == b_.warmup) start_ = Clock::now();
    if (unit_ < b_.warmup) return true;
    const int measured_units = unit_ - b_.warmup;
    return measured_units < b_.min_units ||
           seconds_between(start_, Clock::now()) < b_.seconds;
  }
  [[nodiscard]] bool measured() const { return unit_ >= b_.warmup; }
  [[nodiscard]] std::uint32_t unit() const { return std::uint32_t(unit_); }
  void done() { ++unit_; }

 private:
  Budget b_;
  int unit_ = 0;
  Clock::time_point start_ = Clock::now();
};

}  // namespace

Report sweep_e2e(const Options& o, const Budget& b) {
  Report r;
  const std::vector<sim::Scenario> grid = sweep_grid(o.seed);
  const std::size_t threads = sweep_threads();
  const double cells = double(grid.size());

  // Reference: a cold single-thread sweep (results must not depend on the
  // thread count or on cache state).
  clear_substrate_caches();
  const std::uint64_t ref =
      reference(sim::sweep_fingerprint(sim::run_sweep(grid, 1)), o);

  // Latency is summarised per block of kBlockReps consecutive reps: the
  // block's median warm campaign and its slowest one (the straggler-bound
  // case a user waiting on one sweep sees).
  constexpr std::size_t kBlockReps = 10;
  Samples warm_cps, setup_s, block_p50_us, block_max_us, block;
  for (UnitLoop loop(b); loop.next(); loop.done()) {
    ScopedSpan rep("gs_bench.sweep_rep", loop.unit());
    {
      ScopedSpan s("gs_bench.clear_substrate_caches", loop.unit());
      clear_substrate_caches();
    }
    const auto t0 = Clock::now();
    std::vector<sim::BurstResult> cold;
    {
      ScopedSpan s("sim.run_sweep.cold", loop.unit());
      cold = sim::run_sweep(grid, threads);
    }
    const auto t1 = Clock::now();
    std::vector<sim::BurstResult> warm;
    {
      ScopedSpan s("sim.run_sweep.warm", loop.unit());
      warm = sim::run_sweep(grid, threads);
    }
    const auto t2 = Clock::now();
    {
      ScopedSpan s("sim.sweep_fingerprint", loop.unit());
      r.check(sim::sweep_fingerprint(cold) == ref,
              "sweep rep " + std::to_string(loop.unit()) +
                  ": cold fingerprint differs from the threads=1 reference");
      r.check(sim::sweep_fingerprint(warm) == ref,
              "sweep rep " + std::to_string(loop.unit()) +
                  ": warm fingerprint differs from the threads=1 reference");
    }
    if (!loop.measured()) continue;
    const double cold_s = seconds_between(t0, t1);
    const double warm_s = seconds_between(t1, t2);
    warm_cps.add(cells / warm_s);
    setup_s.add(cold_s - warm_s);
    block.add(warm_s * 1e6);
    if (block.n() == kBlockReps) {
      block_p50_us.add(block.median());
      block_max_us.add(block.max());
      block = Samples{};
    }
  }
  if (block_p50_us.empty()) {  // a run shorter than one block
    block_p50_us.add(block.median());
    block_max_us.add(block.max());
  }
  r.add_fast("throughput", "1/s", std::move(warm_cps), true);
  r.add_fast("latency_p50_us", "us", std::move(block_p50_us), false);
  r.add_fast("latency_tail_us", "us", std::move(block_max_us), false);
  r.add_fast("setup_s", "s", std::move(setup_s), false);
  return r;
}

Report day_e2e(const Options& o, const Budget& b, bool storm) {
  Report r;
  const sim::DayRunConfig cfg = day_config(o.seed, storm);
  const std::uint64_t ref =
      reference(sim::day_result_fingerprint(sim::run_days(cfg)), o);

  Samples throughput, step_p50_us, step_p99_us, setup_s;
  std::vector<double> step_ns;  // one campaign's per-epoch latencies
  for (UnitLoop loop(b); loop.next(); loop.done()) {
    ScopedSpan campaign("gs_bench.day_campaign", loop.unit());
    clear_substrate_caches();
    const auto t0 = Clock::now();
    std::optional<sim::DaySim> sim;
    {
      ScopedSpan s("sim.DaySim::DaySim", loop.unit());
      sim.emplace(cfg);
    }
    const auto t1 = Clock::now();
    step_ns.clear();
    {
      ScopedSpan s("sim.DaySim::step", loop.unit());
      auto prev = Clock::now();
      while (!sim->done()) {
        sim->step();
        const auto now = Clock::now();
        step_ns.push_back(double(
            std::chrono::duration_cast<std::chrono::nanoseconds>(now - prev)
                .count()));
        prev = now;
      }
      s.set_count(std::uint32_t(step_ns.size()));
    }
    const auto t2 = Clock::now();
    {
      ScopedSpan s("sim.day_result_fingerprint", loop.unit());
      r.check(sim::day_result_fingerprint(sim->finish()) == ref,
              "day campaign " + std::to_string(loop.unit()) +
                  ": fingerprint differs from run_days");
    }
    if (!loop.measured()) continue;
    Samples steps;
    for (double ns : step_ns) steps.add(ns / 1e3);
    setup_s.add(seconds_between(t0, t1));
    throughput.add(double(cfg.cluster.servers) * double(step_ns.size()) /
                   seconds_between(t1, t2));
    step_p50_us.add(steps.median());
    step_p99_us.add(steps.quantile(0.99));
  }
  r.add_fast("throughput", "1/s", std::move(throughput), true);
  r.add_fast("latency_p50_us", "us", std::move(step_p50_us), false);
  r.add_fast("latency_tail_us", "us", std::move(step_p99_us), false);
  r.add_fast("setup_s", "s", std::move(setup_s), false);
  return r;
}

}  // namespace gs::bench
