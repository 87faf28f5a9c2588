// greensprintd: the live serving daemon. Hosts a DaySim campaign behind a
// GSRV/1 socket (src/serve), stepping one controller epoch per feed tick,
// wall-clock paced by --sim-speed, with tsdb telemetry queries and live
// control (strategy / fault-inject / checkpoint / stat / drain) over the
// same connection.
//
// Serve:  greensprintd --socket /tmp/gs.sock [--tcp PORT] [--sim-speed X]
//           [--stall-grace EPOCHS] [--checkpoint PATH]
//           [--checkpoint-every N] [--checkpoint-keep K] [--resume PATH]
//           [--tsdb memory|wal|compressed] [--tsdb-dir DIR]
//           [--queue-cap N] [--failpoints SPEC] [--failpoint-seed N]
//           [scenario flags]
// Batch:  greensprintd --batch [scenario flags]
//           runs the same campaign inline (sim::run_days) and prints the
//           result fingerprint — the e2e reference the daemon must match.
//
// SIGTERM/SIGINT write to a self-pipe wired into DaemonConfig::stop_fd:
// the daemon drains its queue, flushes telemetry, writes the final
// checkpoint, and exits 0. A later --resume continues bit-identically.
//
// Exit status: 0 done, 1 the campaign or daemon failed, 2 bad usage.
#include <csignal>
#include <cstdio>
#include <exception>
#include <set>
#include <string>

#include <unistd.h>

#include "common/failpoint.hpp"
#include "serve/daemon.hpp"
#include "serve_scenario.hpp"
#include "sim/day_runner.hpp"
#include "tsdb/strategy.hpp"

namespace {

using namespace gs;

int g_stop_pipe[2] = {-1, -1};

void on_signal(int) {
  const char byte = 1;
  [[maybe_unused]] const ssize_t n = ::write(g_stop_pipe[1], &byte, 1);
}

void print_usage() {
  std::fprintf(stderr,
               "usage: greensprintd --socket PATH [--tcp PORT] "
               "[--sim-speed X] [--stall-grace EPOCHS]\n  [--checkpoint PATH] "
               "[--checkpoint-every N] [--checkpoint-keep K] "
               "[--resume PATH]\n  "
               "[--tsdb memory|wal|compressed] [--tsdb-dir DIR] "
               "[--queue-cap N]\n  [--failpoints SPEC] "
               "[--failpoint-seed N]\n  %s\n"
               "   or: greensprintd --batch [scenario flags]\n",
               tools::kScenarioUsage);
}

struct Options {
  bool batch = false;
  serve::DaemonConfig cfg;
};

/// Parse and validate the whole command line (and arm --failpoints).
/// Every exception it throws is a usage error.
Options parse(int argc, char** argv) {
  const CliArgs args(argc, argv);
  std::set<std::string> value_keys = {
      "socket", "tcp", "sim-speed", "stall-grace", "checkpoint",
      "checkpoint-every", "checkpoint-keep", "resume", "queue-cap", "tsdb",
      "tsdb-dir", "failpoints", "failpoint-seed"};
  value_keys.insert(tools::kScenarioKeys.begin(), tools::kScenarioKeys.end());
  args.validate(value_keys, {"batch"});

  if (args.has("failpoints")) {
    failpoint::configure(args.get("failpoints", std::string()),
                         std::uint64_t(args.get("failpoint-seed", 0)));
  }
  Options o;
  o.batch = args.flag("batch");
  serve::DaemonConfig& cfg = o.cfg;
  cfg.day = tools::scenario_from_cli(args);
  cfg.socket_path = args.get("socket", std::string());
  if (!o.batch && cfg.socket_path.empty()) {
    throw UsageError("--socket is required");
  }
  cfg.tcp_port = args.get("tcp", 0);
  cfg.sim_speed = args.get("sim-speed", 0.0);
  cfg.stall_grace_epochs = args.get("stall-grace", cfg.stall_grace_epochs);
  cfg.checkpoint_path = args.get("checkpoint", std::string());
  cfg.checkpoint_every =
      std::uint64_t(args.get("checkpoint-every", 0));
  cfg.checkpoint_keep =
      std::uint32_t(args.get("checkpoint-keep", int(cfg.checkpoint_keep)));
  cfg.resume_from = args.get("resume", std::string());
  cfg.queue_capacity =
      std::size_t(args.get("queue-cap", int(cfg.queue_capacity)));
  const std::string tsdb_name = args.get("tsdb", std::string("memory"));
  cfg.tsdb.strategy = tsdb::strategy_from_string(tsdb_name);
  cfg.tsdb.dir = args.get("tsdb-dir", std::string());
  if (cfg.tsdb.strategy != tsdb::Strategy::MEMORY && cfg.tsdb.dir.empty()) {
    throw UsageError("--tsdb " + tsdb_name + " needs --tsdb-dir");
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  try {
    o = parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "greensprintd: %s\n", e.what());
    print_usage();
    return 2;
  }

  serve::DaemonConfig& cfg = o.cfg;
  try {
    if (o.batch) {
      const sim::DayRunResult res = sim::run_days(cfg.day);
      std::printf("batch fp %llx bursts %d\n",
                  (unsigned long long)sim::day_result_fingerprint(res),
                  res.bursts_served);
      return 0;
    }
    if (::pipe(g_stop_pipe) != 0) {
      std::perror("pipe");
      return 1;
    }
    cfg.stop_fd = g_stop_pipe[0];
    std::signal(SIGTERM, on_signal);
    std::signal(SIGINT, on_signal);
    std::signal(SIGPIPE, SIG_IGN);

    const bool resumed = !cfg.resume_from.empty();
    const std::string socket_path = cfg.socket_path;
    serve::ServeDaemon daemon(std::move(cfg));
    std::printf("greensprintd: serving %s%s\n", socket_path.c_str(),
                resumed ? " (resumed)" : "");
    std::fflush(stdout);
    const serve::DaemonReport rep = daemon.run();
    std::printf(
        "greensprintd: %s epochs %llu ingested %llu stale_epochs %llu "
        "completed %d fp %llx\n",
        rep.drained ? "drained" : "stopped",
        (unsigned long long)rep.epochs, (unsigned long long)rep.ingested,
        (unsigned long long)rep.stale_epochs, rep.completed ? 1 : 0,
        (unsigned long long)(rep.completed ? rep.result_fingerprint : 0));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "greensprintd: %s\n", e.what());
    return 1;
  }
}
