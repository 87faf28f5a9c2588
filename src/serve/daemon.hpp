// greensprintd's engine room: a two-thread, epoll-based serving loop that
// drives a DaySim campaign closed-loop from a live socket feed.
//
//   IO thread (run() caller)          epoch thread
//   ------------------------          ------------------------------
//   epoll: listeners, conns,          one controller epoch per tick
//     wake eventfd, stop fd           (wall-clock paced by sim_speed;
//   decode frames, parse requests     unpaced when sim_speed == 0)
//   feed events  --SPSC queue-->      admit via LiveFeed, step_live()
//   control cmds --mutex deque-->     handle between epochs
//   replies     <--outbox+eventfd--   stat/query/strategy/... replies
//
// The SPSC ring is the only hot-path hand-off and is lock-free; when it
// fills, the IO thread parks on the feed connection (stops reading), so
// backpressure propagates to the feeder through the socket instead of
// dropping events. Control commands are rare and take the mutex path.
//
// Graceful shutdown: `drain` consumes every queued feed event, seals and
// flushes the tsdb engine, writes the final checkpoint, replies with the
// result fingerprint, and exits. SIGTERM (via DaemonConfig::stop_fd) or
// request_stop() does the same minus the reply. A daemon restarted from
// the checkpoint resumes bit-identically: the snapshot carries the sim,
// the feed sequencing/fallback state, and the telemetry engine.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>

#include "ckpt/fwd.hpp"

#include "common/thread_annotations.hpp"
#include "serve/live_feed.hpp"
#include "serve/protocol.hpp"
#include "serve/spsc_queue.hpp"
#include "sim/day_runner.hpp"
#include "tsdb/engine.hpp"

namespace gs::serve {

struct DaemonConfig {
  sim::DayRunConfig day;
  /// Unix-domain socket path (required; created, owned, unlinked).
  std::string socket_path;
  /// Optional TCP listener on 127.0.0.1:<tcp_port>; 0 disables.
  int tcp_port = 0;
  /// Wall-clock pacing: one epoch every epoch/sim_speed seconds. 0 runs
  /// unpaced — an epoch fires as soon as its feed event is available
  /// (tests, the perf gate); the stall fallback never fires unpaced.
  double sim_speed = 0.0;
  /// Paced mode: epochs of wall-clock silence past the tick deadline
  /// before the EWMA fallback synthesizes the epoch.
  double stall_grace_epochs = 2.0;
  /// Checkpoint *rotation base* written on drain/stop (and by
  /// --checkpoint-every): generations land beside it as base.gNNNNNN
  /// plus a base.current pointer (see ckpt/rotation.hpp); empty disables
  /// final checkpoints. The `checkpoint <path>` command rotates at
  /// whatever base it names, regardless.
  std::string checkpoint_path;
  /// Periodic checkpoint to checkpoint_path every N epochs; 0 disables.
  std::uint64_t checkpoint_every = 0;
  /// Rotation generations kept per checkpoint base.
  std::uint32_t checkpoint_keep = 4;
  /// Checkpoint to restore before serving (daemon restart): a rotation
  /// base resolved to its newest intact generation (last-known-good), or
  /// a plain pre-rotation snapshot file.
  std::string resume_from;
  /// Telemetry engine under the daemon (MEMORY by default).
  tsdb::EngineOptions tsdb;
  /// Feed ring capacity (power of two).
  std::size_t queue_capacity = std::size_t(1) << 14;
  /// File descriptor that signals termination when readable (the tool
  /// wires its SIGTERM/SIGINT handler's pipe here); -1 disables.
  int stop_fd = -1;
};

struct DaemonReport {
  std::uint64_t epochs = 0;          ///< Epochs actually stepped.
  bool completed = false;            ///< Campaign reached its horizon.
  bool drained = false;              ///< Clean `drain` exit (vs. stop).
  std::uint64_t result_fingerprint = 0;  ///< Valid when completed.
  sim::DayRunResult result;          ///< Valid when completed.
  std::uint64_t ingested = 0;
  std::uint64_t stale_drops = 0;
  std::uint64_t gap_drops = 0;
  std::uint64_t stale_epochs = 0;    ///< EWMA-fallback epochs.
};

class ServeDaemon {
 public:
  explicit ServeDaemon(DaemonConfig cfg);
  ~ServeDaemon();

  ServeDaemon(const ServeDaemon&) = delete;
  ServeDaemon& operator=(const ServeDaemon&) = delete;

  /// Serve until drain or stop; blocks the calling thread (it becomes the
  /// IO thread). Call at most once.
  DaemonReport run();

  /// Async stop from another thread (the in-process SIGTERM equivalent):
  /// the epoch thread writes the final checkpoint and both threads exit.
  void request_stop() GS_EXCLUDES(mu_);

  /// Telemetry surface (valid while and after run()).
  [[nodiscard]] tsdb::Engine& engine() { return *engine_; }

  // --- Checkpoint/restore (src/ckpt): the container snapshot nests the
  // live feed, the sim, and the telemetry engine, prefixed with the wire
  // protocol version so a daemon never resumes a foreign dialect.
  static constexpr std::uint32_t kStateVersion = 1;
  void save_state(ckpt::StateWriter& w) const;
  void load_state(ckpt::StateReader& r);

 private:
  struct QueuedFeed {
    std::uint64_t conn_id = 0;
    FeedEvent ev;
  };
  struct Command {
    std::uint64_t conn_id = 0;
    Request req;
  };
  struct Outgoing {
    std::uint64_t conn_id = 0;
    std::string payload;
  };
  struct Conn;
  struct IoState;

  void epoch_loop();
  void process_commands() GS_EXCLUDES(mu_);
  void handle_command(const Command& cmd);
  [[nodiscard]] std::string stat_reply() const;
  [[nodiscard]] std::string query_reply(const Request& req);
  /// Resolve resume_from (plain snapshot file or rotation base) to its
  /// payload; logs last-known-good fallback notes to stderr.
  static std::string load_resume_payload(const std::string& from);
  void write_checkpoint(const std::string& path);
  /// Rotate a checkpoint when the epoch count crosses a checkpoint_every
  /// boundary; a failed write logs and keeps serving (the previous
  /// generation stands). Called from both the paced epoch loop and the
  /// bulk drain path so a crash mid-drain also resumes from a recent
  /// generation.
  void maybe_periodic_checkpoint();
  void finish_if_done();
  void post_reply(std::uint64_t conn_id, std::string payload)
      GS_EXCLUDES(mu_);
  void wake_io();
  /// Epoch thread, ring empty: park until wake_epoch() or a short cap,
  /// whichever comes first (DESIGN.md §16 has the handshake).
  void wait_for_work() GS_EXCLUDES(mu_);
  /// After a feed push, a queued command or a stop: end wait_for_work()
  /// early. Takes mu_ only when the epoch thread is parked.
  void wake_epoch() GS_EXCLUDES(mu_);
  void drain_feed_queue();

  // IO-thread helpers (defined over IoState in daemon.cpp).
  void io_loop(IoState& io) GS_EXCLUDES(mu_);
  void handle_payload(Conn& conn, const std::string& payload)
      GS_EXCLUDES(mu_);

  DaemonConfig cfg_;
  std::unique_ptr<tsdb::Engine> engine_;
  sim::DaySim sim_;
  LiveFeed feed_;
  SpscQueue<QueuedFeed> queue_;
  tsdb::SeriesId stale_series_ = 0;

  mutable Mutex mu_;
  std::deque<Command> commands_ GS_GUARDED_BY(mu_);
  std::deque<Outgoing> outbox_ GS_GUARDED_BY(mu_);
  CondVar work_cv_;  ///< wait_for_work() parks here, under mu_
  std::atomic<std::uint64_t> work_seq_{0};  ///< bumped by wake_epoch()
  std::atomic<std::uint32_t> parked_{0};    ///< epoch thread is parked

  std::atomic<bool> terminate_{false};  ///< stop requested (no reply)
  std::atomic<bool> draining_{false};   ///< drain accepted
  std::atomic<bool> stopped_{false};    ///< epoch thread exited
  std::atomic<std::uint64_t> epoch_hint_{0};  ///< next epoch (hello reply)
  int wake_fd_ = -1;

  DaemonReport report_;
  std::uint64_t drain_conn_ = 0;  ///< connection owed the drain reply
  bool last_admit_gap_ = false;
};

}  // namespace gs::serve
