// gs_sweep: run the fixed sweep grid (sim/sweep_grid.hpp) as a
// checkpointed campaign, through one of the two entry points in src/sim.
//
//   gs_sweep --dir D [grid] [--resume]
//       one process (run_sweep_checkpointed): every completed cell lands
//       in D as a cell snapshot; --resume loads them and runs the rest.
//   gs_sweep --dir D [grid] --worker [--stale-after S]
//       one cooperative worker (run_sweep_worker); any number of them may
//       share D through lease files, and a later
//       `gs_sweep --dir D [grid] --resume` merges their cells.
//
// Grid flags: --smoke (the 8-cell grid), --cells N (replicate to exactly
// N cells), --storm (correlated fault storms on every cell), and
// --failpoints SPEC [--failpoint-seed N] (induced IO failures).
//
// Prints one line, `gs_sweep: cells=… resumed=… run=… fp=<16 hex>`, or in
// worker mode `gs_sweep: cells=… run=… stale_leases_taken=…`. Exit status:
// 0 done; 1 the sweep threw (an IO failure: rerun with --resume); 121 a
// failpoint crashed the process (failpoint::kCrashExitCode); 2 bad usage.
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/failpoint.hpp"
#include "sim/sweep_grid.hpp"
#include "sim/sweep_mp.hpp"

namespace {

using namespace gs;

constexpr const char* kUsage =
    "usage: gs_sweep --dir DIR [--smoke] [--cells N] [--storm]\n"
    "                [--failpoints SPEC] [--failpoint-seed N] MODE\n"
    "  MODE (default):  [--resume]\n"
    "       --worker    [--stale-after SECONDS]\n";

struct Options {
  bool worker = false;
  std::string dir;
  bool resume = false;
  double stale_after_s = 0.0;
  std::vector<sim::Scenario> grid;
};

/// Parse and validate the whole command line (and arm --failpoints).
/// Every exception it throws is a usage error: UsageError, ContractError
/// (a malformed number) or failpoint::SpecError.
Options parse(int argc, char** argv) {
  const CliArgs args(argc, argv);
  args.validate({"dir", "cells", "failpoints", "failpoint-seed",
                 "stale-after"},
                {"smoke", "storm", "resume", "worker"});

  Options o;
  o.worker = args.flag("worker");
  if (o.worker && args.has("resume")) {
    throw UsageError("--resume does not apply to --worker");
  }
  if (!o.worker && args.has("stale-after")) {
    throw UsageError("--stale-after applies to --worker only");
  }

  o.dir = args.get("dir", std::string());
  if (o.dir.empty()) throw UsageError("--dir is required");
  o.resume = args.flag("resume");
  o.stale_after_s =
      args.get("stale-after", sim::SweepWorkerOptions{}.stale_after_s);
  if (!(o.stale_after_s > 0.0)) {
    throw UsageError("--stale-after must be positive");
  }
  if (args.has("failpoint-seed") && !args.has("failpoints")) {
    throw UsageError("--failpoint-seed needs --failpoints");
  }
  const int failpoint_seed = args.get("failpoint-seed", 0);
  if (failpoint_seed < 0) {
    throw UsageError("--failpoint-seed must not be negative");
  }
  if (args.has("failpoints")) {
    failpoint::configure(args.get("failpoints", std::string()),
                         std::uint64_t(failpoint_seed));
  }

  o.grid = sim::perf_grid(args.flag("smoke"));
  if (args.has("cells")) {
    const int cells = args.get("cells", 1);
    if (cells < 1) throw UsageError("--cells must be at least 1");
    o.grid = sim::replicate_grid(o.grid, std::size_t(cells));
  }
  if (args.flag("storm")) sim::add_storms(o.grid);
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  try {
    o = parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gs_sweep: %s\n%s", e.what(), kUsage);
    return 2;
  }

  try {
    if (o.worker) {
      sim::SweepWorkerOptions opts;
      opts.dir = o.dir;
      opts.stale_after_s = o.stale_after_s;
      const auto stats = sim::run_sweep_worker(o.grid, opts);
      std::printf("gs_sweep: cells=%zu run=%zu stale_leases_taken=%zu\n",
                  stats.cells_total, stats.cells_run,
                  stats.leases_taken_over);
      return 0;
    }
    sim::SweepCheckpointStats stats;
    const auto results = sim::run_sweep_checkpointed(
        o.grid, {o.dir, o.resume}, /*threads=*/0, &stats);
    std::printf("gs_sweep: cells=%zu resumed=%zu run=%zu fp=%016llx\n",
                stats.cells_total, stats.cells_resumed, stats.cells_run,
                static_cast<unsigned long long>(
                    sim::sweep_fingerprint(results)));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gs_sweep: %s\n", e.what());
    return 1;
  }
  return 0;
}
