// gs_sweep: run the fixed sweep grid (sim/sweep_grid.hpp) as a
// checkpointed campaign, through one of the three entry points in src/sim.
//
//   gs_sweep --dir D [grid] [--resume] [--checkpoint-every N]
//       one process (run_sweep_checkpointed): every completed cell lands
//       in D as a cell snapshot; --resume loads them and runs the rest.
//   gs_sweep --dir D [grid] --workers N [--resume]
//       N forked workers share D through lease files, then this process
//       merges their cells (run_sweep_multiprocess).
//   gs_sweep --dir D [grid] --worker [--stale-after S]
//       one cooperative worker (run_sweep_worker); any number of them may
//       share D, and a later `gs_sweep --dir D [grid] --resume` merges.
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
#include <stdexcept>
#include <set>
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
    "  MODE (default):  [--resume] [--checkpoint-every N]\n"
    "       --workers N [--resume]\n"
    "       --worker    [--stale-after SECONDS]\n";

/// A command line gs_sweep refuses.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

enum class Mode { Single, Workers, Worker };

struct Options {
  Mode mode = Mode::Single;
  std::string dir;
  bool resume = false;
  int workers = 0;
  double stale_after_s = 0.0;
  std::size_t every = 1;
  std::vector<sim::Scenario> grid;
};

int at_least_one(const CliArgs& args, const std::string& key) {
  const int v = args.get(key, 1);
  if (v < 1) throw UsageError("--" + key + " must be at least 1");
  return v;
}

/// Parse and validate the whole command line (and arm --failpoints).
/// Every exception it throws is a usage error: UsageError, ContractError
/// (a malformed number) or failpoint::SpecError.
Options parse(int argc, char** argv) {
  const std::set<std::string> value_keys = {
      "dir",     "cells",       "failpoints", "failpoint-seed",
      "workers", "stale-after", "checkpoint-every"};
  const std::set<std::string> flag_keys = {"smoke", "storm", "resume",
                                           "worker"};
  const CliArgs args(argc, argv);
  if (!args.positional().empty()) {
    throw UsageError("unexpected argument '" + args.positional()[0] + "'");
  }
  for (const std::string& key : args.keys()) {
    const bool takes_value = value_keys.count(key) > 0;
    if (!takes_value && flag_keys.count(key) == 0) {
      throw UsageError("unknown option --" + key);
    }
    if (takes_value != args.value(key).has_value()) {
      throw UsageError("--" + key +
                       (takes_value ? " needs a value" : " takes no value"));
    }
  }

  Options o;
  o.mode = args.flag("worker")   ? Mode::Worker
           : args.has("workers") ? Mode::Workers
                                 : Mode::Single;
  const char* mode_name = o.mode == Mode::Worker    ? "--worker"
                          : o.mode == Mode::Workers ? "--workers"
                                                    : "the default mode";
  const auto only_in = [&](const char* key, bool allowed) {
    if (!allowed && args.has(key)) {
      throw UsageError(std::string("--") + key + " does not apply to " +
                       mode_name);
    }
  };
  only_in("workers", o.mode != Mode::Worker);
  only_in("resume", o.mode != Mode::Worker);
  only_in("checkpoint-every", o.mode == Mode::Single);
  only_in("stale-after", o.mode == Mode::Worker);

  o.dir = args.get("dir", std::string());
  if (o.dir.empty()) throw UsageError("--dir is required");
  o.resume = args.flag("resume");
  if (o.mode == Mode::Workers) o.workers = at_least_one(args, "workers");
  o.every = std::size_t(at_least_one(args, "checkpoint-every"));
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
    o.grid = sim::replicate_grid(o.grid,
                                 std::size_t(at_least_one(args, "cells")));
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
    if (o.mode == Mode::Worker) {
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
    std::vector<sim::BurstResult> results;
    if (o.mode == Mode::Workers) {
      sim::SweepMpOptions opts;
      opts.dir = o.dir;
      opts.workers = o.workers;
      opts.resume = o.resume;
      results = sim::run_sweep_multiprocess(o.grid, opts, &stats);
    } else {
      sim::SweepCheckpointOptions opts;
      opts.dir = o.dir;
      opts.resume = o.resume;
      opts.every = o.every;
      results = sim::run_sweep_checkpointed(o.grid, opts, 0, &stats);
    }
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
