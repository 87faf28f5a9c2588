// ServeDaemon end-to-end over a real unix socket, all unpaced (sim_speed
// 0) so nothing depends on wall-clock timing: protocol/session errors,
// closed-loop fingerprint equivalence with the batch runner, live strategy
// switches, and checkpoint/resume from both the `checkpoint` command and
// the stop-path final snapshot.
#include "serve/daemon.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/rotation.hpp"
#include "serve/protocol.hpp"
#include "sim/day_runner.hpp"

namespace gs::serve {
namespace {

sim::DayRunConfig scenario() {
  sim::DayRunConfig cfg;
  cfg.days = 1;
  cfg.daily_bursts = sim::default_daily_bursts();
  return cfg;
}

std::string test_socket_path(const char* tag) {
  return "/tmp/gs_test_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + ".sock";
}

/// Minimal synchronous GSRV client for the tests.
class Client {
 public:
  explicit Client(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    // The daemon binds asynchronously; retry briefly.
    for (int i = 0; i < 200; ++i) {
      if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof addr) == 0) {
        return;
      }
      ::usleep(10000);
    }
    ADD_FAILURE() << "cannot connect " << path;
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }

  void send(const std::string& payload) { send_raw(encode_frame(payload)); }

  /// Unframed bytes, for injecting malformed headers.
  void send_raw(const std::string& wire) {
    std::size_t off = 0;
    while (off < wire.size()) {
      const ssize_t n = ::write(fd_, wire.data() + off, wire.size() - off);
      ASSERT_GT(n, 0) << "daemon hung up";
      off += std::size_t(n);
    }
  }

  /// Block until a frame arrives; nullopt on EOF.
  std::optional<std::string> recv() {
    std::string payload;
    char buf[4096];
    for (;;) {
      if (dec_.next(payload)) return payload;
      if (dec_.error()) return std::nullopt;
      const ssize_t n = ::read(fd_, buf, sizeof buf);
      if (n <= 0) return std::nullopt;
      dec_.feed(std::string_view(buf, std::size_t(n)));
    }
  }

  /// hello handshake; returns the daemon's current epoch.
  std::uint64_t hello() {
    send("hello " + protocol_id());
    const auto reply = recv();
    EXPECT_TRUE(reply && reply->rfind("ok hello ", 0) == 0)
        << reply.value_or("(eof)");
    return field_u64(*reply, "epoch");
  }

  static std::uint64_t field_u64(const std::string& reply,
                                 const std::string& name) {
    const std::string marker = " " + name + " ";
    const auto at = reply.find(marker);
    if (at == std::string::npos) return 0;
    const auto start = at + marker.size();
    const auto end = reply.find(' ', start);
    return parse_u64(reply.substr(start, end - start)).value_or(0);
  }

  static std::uint64_t field_hex(const std::string& reply,
                                 const std::string& name) {
    const std::string marker = " " + name + " ";
    const auto at = reply.find(marker);
    if (at == std::string::npos) return 0;
    const auto start = at + marker.size();
    const auto end = reply.find(' ', start);
    const std::string tok = reply.substr(start, end - start);
    std::uint64_t v = 0;
    for (const char c : tok) {
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= std::uint64_t(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= std::uint64_t(c - 'a') + 10;
      } else {
        return 0;
      }
    }
    return v;
  }

 private:
  int fd_ = -1;
  FrameDecoder dec_;
};

/// Poll hello until the daemon reports at least `floor` committed epochs
/// (or a minute passes) and return the last reported epoch. A test that
/// stops mid-stream waits first: request_stop() drops the events still
/// queued, by design, so the stop alone guarantees no progress.
std::uint64_t wait_for_epoch(Client& c, std::uint64_t floor) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  std::uint64_t epoch = c.hello();
  while (epoch < floor && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    epoch = c.hello();
  }
  return epoch;
}

/// Feed events straight from the plan (what gs_feed --gen would write).
std::vector<FeedEvent> plan_events(const sim::DayRunConfig& cfg) {
  const auto plan = sim::day_feed_plan(cfg);
  std::vector<FeedEvent> out;
  out.reserve(plan.size());
  std::uint64_t seq = 0;
  for (const auto& e : plan) {
    FeedEvent ev;
    ev.seq = seq++;
    ev.lambda = e.lambda;
    ev.irradiance = e.irradiance;
    ev.burst = e.in_burst;
    out.push_back(ev);
  }
  return out;
}

struct RunningDaemon {
  explicit RunningDaemon(DaemonConfig cfg)
      : socket_path(cfg.socket_path), daemon(std::move(cfg)) {
    runner = std::thread([this] { report = daemon.run(); });
  }
  ~RunningDaemon() {
    if (runner.joinable()) {
      daemon.request_stop();
      runner.join();
    }
  }
  void join() { runner.join(); }

  std::string socket_path;
  ServeDaemon daemon;
  DaemonReport report;
  std::thread runner;
};

/// Removes a rotating checkpoint when the test's scope ends, early ASSERT
/// returns included: every generation, the pointer file and the base path.
struct RemoveCheckpointOnExit {
  std::filesystem::path base;
  ~RemoveCheckpointOnExit() {
    namespace fs = std::filesystem;
    std::error_code ec;
    try {
      for (const auto& [gen, path] :
           ckpt::RotatingSnapshot::list_generations(base)) {
        (void)gen;
        fs::remove(path, ec);
      }
    } catch (const fs::filesystem_error& e) {
      ADD_FAILURE() << "cannot list checkpoint generations: " << e.what();
    }
    fs::remove(ckpt::RotatingSnapshot::pointer_path(base), ec);
    fs::remove(base, ec);
  }
};

TEST(ServeDaemon, SessionErrorsAreTyped) {
  DaemonConfig cfg;
  cfg.day = scenario();
  cfg.socket_path = test_socket_path("errors");
  RunningDaemon d(std::move(cfg));
  {
    Client c(d.socket_path);
    // Command before hello.
    c.send("stat");
    auto reply = c.recv();
    ASSERT_TRUE(reply);
    EXPECT_EQ(reply->rfind("err need-hello", 0), 0u) << *reply;
    ASSERT_EQ(c.hello(), 0u);
    // Unknown verb.
    c.send("reboot");
    reply = c.recv();
    ASSERT_TRUE(reply);
    EXPECT_EQ(reply->rfind("err unknown-command", 0), 0u) << *reply;
    // Bad strategy name.
    c.send("strategy warp9");
    reply = c.recv();
    ASSERT_TRUE(reply);
    EXPECT_EQ(reply->rfind("err bad-argument", 0), 0u) << *reply;
    // Bad fault spec.
    c.send("fault-inject warp=-2");
    reply = c.recv();
    ASSERT_TRUE(reply);
    EXPECT_EQ(reply->rfind("err bad-argument", 0), 0u) << *reply;
    // Feed gap (epoch 0 never fed).
    c.send("feed 5 1.0 0 0");
    reply = c.recv();
    ASSERT_TRUE(reply);
    EXPECT_EQ(reply->rfind("err feed-gap", 0), 0u) << *reply;
  }
  {
    // A poisoned frame stream gets a typed error, then the connection dies.
    Client c(d.socket_path);
    const std::string garbage = "zzzzzz stat";
    c.send("hello " + protocol_id());
    ASSERT_TRUE(c.recv());
    // Bypass send()'s framing to inject the malformed header.
    c.send_raw(garbage);
    const auto reply = c.recv();
    ASSERT_TRUE(reply);
    EXPECT_EQ(reply->rfind("err bad-frame", 0), 0u) << *reply;
    EXPECT_FALSE(c.recv());  // daemon closed the connection
  }
}

TEST(ServeDaemon, DrainFingerprintMatchesBatch) {
  const sim::DayRunConfig day = scenario();
  const std::uint64_t batch_fp =
      sim::day_result_fingerprint(sim::run_days(day));

  DaemonConfig cfg;
  cfg.day = day;
  cfg.socket_path = test_socket_path("drain");
  RunningDaemon d(std::move(cfg));
  Client c(d.socket_path);
  ASSERT_EQ(c.hello(), 0u);
  for (const FeedEvent& ev : plan_events(day)) c.send(format_feed(ev));
  c.send("drain");
  std::optional<std::string> reply;
  while ((reply = c.recv())) {
    if (reply->rfind("ok drain ", 0) == 0) break;
  }
  ASSERT_TRUE(reply) << "no drain reply";
  EXPECT_EQ(Client::field_u64(*reply, "completed"), 1u);
  EXPECT_EQ(Client::field_hex(*reply, "fp"), batch_fp);
  d.join();
  EXPECT_TRUE(d.report.completed);
  EXPECT_TRUE(d.report.drained);
  EXPECT_EQ(d.report.result_fingerprint, batch_fp);
  EXPECT_EQ(d.report.stale_epochs, 0u);
}

TEST(ServeDaemon, UnpacedDrainFloor) {
  // Ingest floor of the whole serving path: hello, the pre-rendered 1-day
  // feed and drain go out in one write, and the clock runs from that write
  // to the daemon's exit. One event is one 60 s controller epoch, so
  // 10k events/s is ~6e5x real time. A fast daemon serving wrong epochs is
  // no result: every drained fingerprint must be the batch run's. The best
  // of three daemons is compared, so a test running alongside on the same
  // cores cannot fail it by stealing one window.
  constexpr double kFloorEventsPerSec = 1.0e4;
  constexpr int kTrials = 3;
  const sim::DayRunConfig day = scenario();
  const std::uint64_t batch_fp =
      sim::day_result_fingerprint(sim::run_days(day));
  const auto events = plan_events(day);
  std::string wire = encode_frame("hello " + protocol_id());
  for (const FeedEvent& ev : events) wire += encode_frame(format_feed(ev));
  wire += encode_frame("drain");

  double best_secs = 0.0;
  for (int trial = 0; trial < kTrials; ++trial) {
    DaemonConfig cfg;
    cfg.day = day;
    cfg.socket_path = test_socket_path("floor");
    RunningDaemon d(std::move(cfg));
    Client c(d.socket_path);
    const auto start = std::chrono::steady_clock::now();
    c.send_raw(wire);
    d.join();
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    EXPECT_TRUE(d.report.completed) << "trial " << trial;
    EXPECT_EQ(d.report.result_fingerprint, batch_fp) << "trial " << trial;
    ASSERT_EQ(d.report.ingested, events.size()) << "trial " << trial;
    if (trial == 0 || secs < best_secs) best_secs = secs;
  }
  const double events_per_sec = double(events.size()) / best_secs;
  RecordProperty("events_per_sec", std::to_string(events_per_sec));
  EXPECT_GE(events_per_sec, kFloorEventsPerSec);
}

TEST(ServeDaemon, OutOfDomainFeedsAreRejectedThenReplayMatchesBatch) {
  // nan and inf parse as doubles, but no epoch can run on them (nor on a
  // negative rate or an irradiance outside [0, 1]). Each bad feed gets
  // err bad-argument at the wire and never reaches the epoch thread, so
  // the plan replayed afterwards still drains to the batch fingerprint.
  const sim::DayRunConfig day = scenario();
  const std::uint64_t batch_fp =
      sim::day_result_fingerprint(sim::run_days(day));

  DaemonConfig cfg;
  cfg.day = day;
  cfg.socket_path = test_socket_path("badfeed");
  RunningDaemon d(std::move(cfg));
  Client c(d.socket_path);
  ASSERT_EQ(c.hello(), 0u);
  for (const char* bad :
       {"feed 0 nan 0.5 1", "feed 0 inf 0.5 1", "feed 0 -1 0.5 1",
        "feed 0 1 nan 0", "feed 0 1 inf 0", "feed 0 1 -0.25 0",
        "feed 0 1 1.5 0"}) {
    c.send(bad);
    // stat is answered after the feed's own reply, so a feed that is
    // wrongly accepted (and so silent) fails here instead of hanging.
    c.send("stat");
    const auto reply = c.recv();
    ASSERT_TRUE(reply) << bad;
    EXPECT_EQ(reply->rfind("err bad-argument", 0), 0u) << bad << ": " << *reply;
    if (reply->rfind("ok stat ", 0) == 0) continue;
    const auto stat = c.recv();
    ASSERT_TRUE(stat) << bad;
    EXPECT_EQ(stat->rfind("ok stat ", 0), 0u) << bad << ": " << *stat;
  }
  for (const FeedEvent& ev : plan_events(day)) c.send(format_feed(ev));
  c.send("drain");
  std::optional<std::string> reply;
  while ((reply = c.recv())) {
    if (reply->rfind("ok drain ", 0) == 0) break;
  }
  ASSERT_TRUE(reply) << "no drain reply";
  EXPECT_EQ(Client::field_hex(*reply, "fp"), batch_fp);
  d.join();
  EXPECT_TRUE(d.report.completed);
  EXPECT_EQ(d.report.result_fingerprint, batch_fp);
}

TEST(ServeDaemon, NoOpCommandsPreserveFingerprint) {
  const sim::DayRunConfig day = scenario();
  const std::uint64_t batch_fp =
      sim::day_result_fingerprint(sim::run_days(day));

  DaemonConfig cfg;
  cfg.day = day;
  cfg.socket_path = test_socket_path("noop");
  RunningDaemon d(std::move(cfg));
  Client c(d.socket_path);
  c.hello();
  const auto events = plan_events(day);
  for (const FeedEvent& ev : events) {
    if (ev.seq == 300) {
      // Same-kind switch and an all-zero spec: both strict no-ops.
      c.send("strategy hybrid");
      auto reply = c.recv();
      ASSERT_TRUE(reply);
      EXPECT_EQ(*reply, "ok strategy Hybrid changed 0");
      c.send("fault-inject all=0");
      reply = c.recv();
      ASSERT_TRUE(reply);
      EXPECT_EQ(*reply, "ok fault-inject active 0");
    }
    if (ev.seq == 600) {
      c.send("stat");
      const auto reply = c.recv();
      ASSERT_TRUE(reply);
      EXPECT_EQ(reply->rfind("ok stat epoch ", 0), 0u) << *reply;
    }
    c.send(format_feed(ev));
  }
  c.send("drain");
  std::optional<std::string> reply;
  while ((reply = c.recv())) {
    if (reply->rfind("ok drain ", 0) == 0) break;
  }
  ASSERT_TRUE(reply);
  EXPECT_EQ(Client::field_hex(*reply, "fp"), batch_fp);
}

TEST(ServeDaemon, LiveStrategySwitchIsDeterministicAndReal) {
  const sim::DayRunConfig day = scenario();
  const std::uint64_t batch_fp =
      sim::day_result_fingerprint(sim::run_days(day));
  const auto events = plan_events(day);

  const auto run_with_switch = [&] {
    DaemonConfig cfg;
    cfg.day = day;
    cfg.socket_path = test_socket_path("switch");
    RunningDaemon d(std::move(cfg));
    Client c(d.socket_path);
    c.hello();
    for (const FeedEvent& ev : events) {
      if (ev.seq == 400) {
        c.send("strategy greedy");
        const auto reply = c.recv();
        EXPECT_TRUE(reply &&
                    reply->rfind("ok strategy Greedy changed 1", 0) == 0);
      }
      c.send(format_feed(ev));
    }
    c.send("drain");
    std::optional<std::string> reply;
    while ((reply = c.recv())) {
      if (reply->rfind("ok drain ", 0) == 0) break;
    }
    return reply ? Client::field_hex(*reply, "fp") : 0;
  };

  const std::uint64_t fp1 = run_with_switch();
  const std::uint64_t fp2 = run_with_switch();
  EXPECT_EQ(fp1, fp2) << "live switch must be deterministic";
  EXPECT_NE(fp1, batch_fp) << "greedy switch must change the outcome";
}

TEST(ServeDaemon, QueryServesTelemetry) {
  const sim::DayRunConfig day = scenario();
  DaemonConfig cfg;
  cfg.day = day;
  cfg.socket_path = test_socket_path("query");
  RunningDaemon d(std::move(cfg));
  Client c(d.socket_path);
  c.hello();
  const auto events = plan_events(day);
  // Cluster telemetry is only recorded during burst epochs; feed through
  // the first burst, then wait until the epoch thread has consumed it
  // (commands jump the feed queue, so stat must be polled).
  std::uint64_t upto = 0;
  for (const FeedEvent& ev : events) {
    c.send(format_feed(ev));
    ++upto;
    if (ev.burst) break;
  }
  ASSERT_LT(upto, events.size()) << "scenario has no bursts";
  for (int tries = 0; tries < 500; ++tries) {
    c.send("stat");
    const auto stat = c.recv();
    ASSERT_TRUE(stat);
    if (Client::field_u64(*stat, "ingested") >= upto) break;
    ::usleep(10000);
  }
  c.send("query cluster_grid_w");
  const auto reply = c.recv();
  ASSERT_TRUE(reply);
  EXPECT_EQ(reply->rfind("ok query cluster_grid_w total ", 0), 0u) << *reply;
  EXPECT_GT(Client::field_u64(*reply, "total"), 0u);
}

TEST(ServeDaemon, MidStreamStopThenResumeReproducesBatch) {
  const sim::DayRunConfig day = scenario();
  const std::uint64_t batch_fp =
      sim::day_result_fingerprint(sim::run_days(day));
  const auto events = plan_events(day);
  const std::string ckpt =
      "/tmp/gs_test_stop_resume_" + std::to_string(::getpid()) + ".ckpt";
  const RemoveCheckpointOnExit cleanup{ckpt};

  {
    DaemonConfig cfg;
    cfg.day = day;
    cfg.socket_path = test_socket_path("stop_a");
    cfg.checkpoint_path = ckpt;  // stop path writes the final snapshot
    RunningDaemon d(std::move(cfg));
    Client c(d.socket_path);
    c.hello();
    for (std::uint64_t s = 0; s < 700; ++s) c.send(format_feed(events[s]));
    ASSERT_GE(wait_for_epoch(c, 1), 1u);
    // Stop mid-stream: events still queued are dropped, the checkpoint
    // lands wherever the epoch thread got to. The trace replays the rest.
    d.daemon.request_stop();
    d.join();
    EXPECT_FALSE(d.report.completed);
    EXPECT_GT(d.report.epochs, 0u);
    EXPECT_LE(d.report.epochs, 700u);
  }
  {
    DaemonConfig cfg;
    cfg.day = day;
    cfg.socket_path = test_socket_path("stop_b");
    cfg.resume_from = ckpt;
    RunningDaemon d(std::move(cfg));
    Client c(d.socket_path);
    const std::uint64_t epoch = c.hello();
    EXPECT_GT(epoch, 0u);
    EXPECT_LE(epoch, 700u);
    for (const FeedEvent& ev : events) {
      if (ev.seq < epoch) continue;  // already consumed before the stop
      c.send(format_feed(ev));
    }
    c.send("drain");
    std::optional<std::string> reply;
    while ((reply = c.recv())) {
      if (reply->rfind("ok drain ", 0) == 0) break;
    }
    ASSERT_TRUE(reply);
    EXPECT_EQ(Client::field_u64(*reply, "completed"), 1u);
    EXPECT_EQ(Client::field_hex(*reply, "fp"), batch_fp);
  }
}

TEST(ServeDaemon, CheckpointCommandSnapshotsAConsistentFork) {
  const sim::DayRunConfig day = scenario();
  const std::uint64_t batch_fp =
      sim::day_result_fingerprint(sim::run_days(day));
  const auto events = plan_events(day);
  const std::string ckpt =
      "/tmp/gs_test_cmd_ckpt_" + std::to_string(::getpid()) + ".ckpt";
  const RemoveCheckpointOnExit cleanup{ckpt};

  {
    DaemonConfig cfg;
    cfg.day = day;
    cfg.socket_path = test_socket_path("cmd_a");
    RunningDaemon d(std::move(cfg));
    Client c(d.socket_path);
    c.hello();
    for (std::uint64_t s = 0; s < 500; ++s) c.send(format_feed(events[s]));
    c.send("checkpoint " + ckpt);
    const auto reply = c.recv();
    ASSERT_TRUE(reply);
    EXPECT_EQ(reply->rfind("ok checkpoint ", 0), 0u) << *reply;
    // The original run continues to completion regardless.
    for (std::uint64_t s = 500; s < events.size(); ++s) {
      c.send(format_feed(events[s]));
    }
    c.send("drain");
    std::optional<std::string> drain;
    while ((drain = c.recv())) {
      if (drain->rfind("ok drain ", 0) == 0) break;
    }
    ASSERT_TRUE(drain);
    EXPECT_EQ(Client::field_hex(*drain, "fp"), batch_fp);
  }
  {
    // A fork resumed from the mid-run snapshot converges to the same fp.
    DaemonConfig cfg;
    cfg.day = day;
    cfg.socket_path = test_socket_path("cmd_b");
    cfg.resume_from = ckpt;
    RunningDaemon d(std::move(cfg));
    Client c(d.socket_path);
    const std::uint64_t epoch = c.hello();
    EXPECT_GT(epoch, 0u);
    for (const FeedEvent& ev : events) {
      if (ev.seq < epoch) continue;
      c.send(format_feed(ev));
    }
    c.send("drain");
    std::optional<std::string> reply;
    while ((reply = c.recv())) {
      if (reply->rfind("ok drain ", 0) == 0) break;
    }
    ASSERT_TRUE(reply);
    EXPECT_EQ(Client::field_hex(*reply, "fp"), batch_fp);
  }
}

TEST(ServeDaemon, ResumeFallsBackToLastKnownGoodGeneration) {
  namespace fs = std::filesystem;
  const sim::DayRunConfig day = scenario();
  const std::uint64_t batch_fp =
      sim::day_result_fingerprint(sim::run_days(day));
  const auto events = plan_events(day);
  const fs::path base = fs::path("/tmp") / ("gs_test_fallback_" +
                                            std::to_string(::getpid()) +
                                            ".ckpt");
  const RemoveCheckpointOnExit cleanup{base};

  {
    DaemonConfig cfg;
    cfg.day = day;
    cfg.socket_path = test_socket_path("fb_a");
    cfg.checkpoint_path = base.string();
    cfg.checkpoint_every = 200;  // periodic generations + stop-path final
    RunningDaemon d(std::move(cfg));
    Client c(d.socket_path);
    c.hello();
    for (std::uint64_t s = 0; s < 700; ++s) c.send(format_feed(events[s]));
    // Wait for epoch 400 so the periodic generations at 200 and 400 are
    // written before the stop.
    ASSERT_GE(wait_for_epoch(c, 400), 400u);
    d.daemon.request_stop();
    d.join();
    EXPECT_FALSE(d.report.completed);
  }
  auto gens = ckpt::RotatingSnapshot::list_generations(base);
  ASSERT_GE(gens.size(), 2u) << "need periodic generations to fall back";
  // Bit-rot the newest generation: recovery must step back to the
  // previous one and the resumed daemon must still converge on batch.
  fs::resize_file(gens.back().second, 10);

  {
    DaemonConfig cfg;
    cfg.day = day;
    cfg.socket_path = test_socket_path("fb_b");
    cfg.resume_from = base.string();
    RunningDaemon d(std::move(cfg));
    Client c(d.socket_path);
    const std::uint64_t epoch = c.hello();
    EXPECT_GT(epoch, 0u);
    EXPECT_LT(epoch, 700u);  // older generation, not the (torn) final one
    for (const FeedEvent& ev : events) {
      if (ev.seq < epoch) continue;
      c.send(format_feed(ev));
    }
    c.send("drain");
    std::optional<std::string> reply;
    while ((reply = c.recv())) {
      if (reply->rfind("ok drain ", 0) == 0) break;
    }
    ASSERT_TRUE(reply);
    EXPECT_EQ(Client::field_u64(*reply, "completed"), 1u);
    EXPECT_EQ(Client::field_hex(*reply, "fp"), batch_fp);
  }
}

}  // namespace
}  // namespace gs::serve
