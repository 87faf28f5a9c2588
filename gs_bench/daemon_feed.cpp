// The daemon_feed workload: an in-process ServeDaemon (default config:
// MEMORY tsdb, unpaced, 16384-slot queue, 3 servers) fed over its unix
// socket by three client threads.
//
//  * feeder  — open loop, in 16 rounds: `low` events at 2k/s, `high`
//              events at 200k/s, then the rest of the round as fast as
//              backpressure allows (`sat`). Each
//              event's commit latency is timed from its scheduled send
//              time, so a stall is charged to every event it delays.
//  * prober  — `hello`, then a sleep to 20 us after the send (about 60 us
//              in practice); the `epoch N` in each reply marks events
//              0..N-1 as committed at the reply's arrival.
//  * control — closed loop every 10 ms: `stat`, then `query cluster_re_w`
//              over the last simulated hour.
//
// At the end `drain` must report the batch run_days fingerprint.
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "ckpt/snapshot.hpp"
#include "ckpt/state_io.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/protocol.hpp"

namespace gs::bench {

namespace {

constexpr double kLowRate = 2000.0;
constexpr double kHighRate = 200000.0;
constexpr auto kProbeGap = std::chrono::microseconds(20);
constexpr auto kControlPeriod = std::chrono::milliseconds(10);
constexpr std::uint32_t kConstructions = 10;
constexpr std::size_t kRounds = 16;
/// Longest the whole feed may take to commit.
constexpr double kCommitTimeoutS = 120.0;

enum Phase : int { kLow = 0, kHigh = 1, kSat = 2, kDone = 3 };

/// One blocking client connection speaking framed GSRV/1.
class Client {
 public:
  explicit Client(const std::string& path)
      : fd_(serve::connect_unix_retry(path)) {
    if (fd_ >= 0) {
      // A daemon that stops answering must not hang the benchmark.
      timeval tv{5, 0};
      ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    }
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  [[nodiscard]] bool ok() const { return fd_ >= 0; }

  bool send(std::string_view bytes) {
    while (!bytes.empty()) {
      const ssize_t n = ::write(fd_, bytes.data(), bytes.size());
      if (n <= 0) return false;
      bytes.remove_prefix(std::size_t(n));
    }
    return true;
  }

  std::optional<std::string> recv() {
    std::string payload;
    char buf[4096];
    while (!dec_.next(payload)) {
      if (dec_.error()) return std::nullopt;
      const ssize_t n = ::read(fd_, buf, sizeof buf);
      if (n <= 0) return std::nullopt;
      dec_.feed(std::string_view(buf, std::size_t(n)));
    }
    return payload;
  }

  std::optional<std::string> call(const std::string& payload) {
    if (!send(serve::encode_frame(payload))) return std::nullopt;
    return recv();
  }

  /// Replies that arrive within `wait` (errors the daemon pushed to a
  /// connection that never asks for anything).
  std::vector<std::string> pending(std::chrono::milliseconds wait) {
    timeval tv{0, suseconds_t(wait.count() * 1000)};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    std::vector<std::string> out;
    while (auto r = recv()) out.push_back(std::move(*r));
    return out;
  }

 private:
  int fd_;
  serve::FrameDecoder dec_;
};

bool starts_with(const std::string& s, std::string_view prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

/// The integer after `key ` in a reply, if present.
std::optional<std::uint64_t> field(const std::string& reply,
                                   std::string_view key) {
  const std::string k = " " + std::string(key) + " ";
  const auto at = reply.find(k);
  if (at == std::string::npos) return std::nullopt;
  const auto start = at + k.size();
  const auto end = reply.find(' ', start);
  return serve::parse_u64(std::string_view(reply).substr(
      start, end == std::string::npos ? std::string::npos : end - start));
}

std::string hex_u64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%llx", (unsigned long long)v);
  return buf;
}

double us_between(Clock::time_point a, Clock::time_point b) {
  return seconds_between(a, b) * 1e6;
}

/// The campaign feed, rendered to wire bytes before anything is timed.
struct Feed {
  std::string wire;
  std::vector<std::size_t> end;  ///< Byte offset just past frame i.
};

Feed render_feed(const std::vector<sim::LiveEpoch>& plan) {
  Feed f;
  f.wire.reserve(plan.size() * 48);
  f.end.reserve(plan.size());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    f.wire += serve::encode_frame(serve::format_feed(feed_event(i, plan[i])));
    f.end.push_back(f.wire.size());
  }
  return f;
}

struct Probe {
  Clock::time_point at;
  std::uint64_t epoch = 0;
};

/// Everything the client threads record; each field has one writer.
struct Observed {
  std::vector<Probe> probes;
  Samples hello_rtt_us;
  std::uint64_t probes_failed = 0;
  Samples stat_rtt_us;
  Samples query_rtt_us;
  std::uint64_t control_calls = 0;
  std::uint64_t control_failed = 0;
  double queue_max[2] = {0.0, 0.0};
};

void probe_loop(Client& c, const std::atomic<bool>& stop,
                std::atomic<std::uint64_t>& committed, Observed& obs) {
  const std::string hello =
      serve::encode_frame("hello " + serve::protocol_id());
  obs.probes.reserve(std::size_t(1) << 19);
  while (!stop.load(std::memory_order_relaxed)) {
    const auto sent = Clock::now();
    std::optional<std::string> reply;
    if (c.send(hello)) reply = c.recv();
    const auto got = Clock::now();
    const auto epoch = reply ? field(*reply, "epoch") : std::nullopt;
    if (!reply || !starts_with(*reply, "ok hello") || !epoch) {
      ++obs.probes_failed;
      return;
    }
    obs.probes.push_back({got, *epoch});
    obs.hello_rtt_us.add(us_between(sent, got));
    committed.store(*epoch, std::memory_order_release);
    std::this_thread::sleep_until(sent + kProbeGap);
  }
}

void prober(Client& c, const std::atomic<bool>& stop,
            std::atomic<std::uint64_t>& committed, std::atomic<bool>& done,
            Observed& obs) {
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  probe_loop(c, stop, committed, obs);
  done.store(true, std::memory_order_release);
}

void control(Client& c, const std::atomic<bool>& stop,
             const std::atomic<int>& phase, Observed& obs) {
  while (!stop.load(std::memory_order_relaxed)) {
    const auto t0 = Clock::now();
    const int ph = phase.load(std::memory_order_relaxed);
    const auto stat = c.call("stat");
    const auto t1 = Clock::now();
    ++obs.control_calls;
    const auto epoch = stat ? field(*stat, "epoch") : std::nullopt;
    const auto queue = stat ? field(*stat, "queue") : std::nullopt;
    if (!stat || !starts_with(*stat, "ok stat") || !epoch || !queue) {
      ++obs.control_failed;
      return;
    }
    obs.stat_rtt_us.add(us_between(t0, t1));
    if (ph == kLow || ph == kHigh) {
      obs.queue_max[ph] = std::max(obs.queue_max[ph], double(*queue));
    }
    const double hi = double(*epoch) * 60.0;
    const double lo = std::max(0.0, hi - 3600.0);
    const auto query = c.call("query cluster_re_w " + serve::format_double(lo) +
                              " " + serve::format_double(hi));
    const auto t2 = Clock::now();
    ++obs.control_calls;
    if (!query || !starts_with(*query, "ok query")) {
      ++obs.control_failed;
      return;
    }
    obs.query_rtt_us.add(us_between(t1, t2));
    std::this_thread::sleep_until(t0 + kControlPeriod);
  }
}

/// One round of the feed: `low` events at 2k/s, `high` at 200k/s, then the
/// rest of the round as fast as backpressure allows. The run is cut into
/// kRounds rounds so that every phase is sampled across the whole run.
struct Round {
  std::size_t begin = 0, low_end = 0, high_end = 0, end = 0;

  /// Scheduled send time of event e of a round that started at `start`.
  [[nodiscard]] Clock::time_point due(Clock::time_point start,
                                      std::size_t e) const {
    const double s =
        e < low_end ? double(e - begin) / kLowRate
                    : double(low_end - begin) / kLowRate +
                          double(e - low_end) / kHighRate;
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(s));
  }
};

std::vector<Round> plan_rounds(std::size_t total, std::size_t low,
                               std::size_t high) {
  std::vector<Round> out(kRounds);
  for (std::size_t i = 0; i < kRounds; ++i) {
    Round& rd = out[i];
    rd.begin = total * i / kRounds;
    rd.end = total * (i + 1) / kRounds;
    rd.low_end = std::min(rd.end, rd.begin + low * (i + 1) / kRounds -
                                      low * i / kRounds);
    rd.high_end = std::min(rd.end, rd.low_end + high * (i + 1) / kRounds -
                                       high * i / kRounds);
  }
  return out;
}

void wait_until(Clock::time_point t) {
  const auto now = Clock::now();
  if (t - now > std::chrono::microseconds(200)) {
    std::this_thread::sleep_until(t - std::chrono::microseconds(100));
  }
  while (Clock::now() < t) {
  }
}

}  // namespace

Report daemon_e2e(const Options& o, double seconds, DaemonLayers* layers) {
  Report r;
  serve::DaemonConfig cfg;
  cfg.day = daemon_day_config(o.seed, seconds);
  const std::vector<sim::LiveEpoch> plan = sim::day_feed_plan(cfg.day);
  const std::size_t total = plan.size();
  const std::uint64_t batch_fp =
      reference(sim::day_result_fingerprint(sim::run_days(cfg.day)), o);
  const Feed feed = render_feed(plan);
  const std::vector<Round> rounds = plan_rounds(
      total, std::size_t(1000.0 * seconds), std::size_t(40000.0 * seconds));

  const std::string tag = "gs_bench_" + std::to_string(::getpid());
  cfg.socket_path = tag + ".sock";
  const std::filesystem::path ckpt_dir = tag + ".ckpt";
  std::filesystem::create_directories(ckpt_dir);
  cfg.checkpoint_path = (ckpt_dir / "daemon.gsck").string();

  Samples setup_s;
  for (std::uint32_t i = 0; i < kConstructions; ++i) {
    clear_substrate_caches();
    const auto t0 = Clock::now();
    {
      ScopedSpan s("serve.ServeDaemon::ServeDaemon", i);
      serve::ServeDaemon d(cfg);
    }
    setup_s.add(seconds_between(t0, Clock::now()));
  }

  serve::ServeDaemon daemon(cfg);
  serve::DaemonReport report;
  std::string run_error;
  std::thread runner([&] {
    ScopedSpan s("serve.ServeDaemon::run");
    try {
      report = daemon.run();
    } catch (const std::exception& e) {
      run_error = e.what();
    }
  });

  Client feeder(cfg.socket_path), probe(cfg.socket_path),
      ctl(cfg.socket_path);
  const std::string hello = "hello " + serve::protocol_id();
  bool connected = feeder.ok() && probe.ok() && ctl.ok();
  for (Client* c : {&feeder, &probe, &ctl}) {
    const auto reply = connected ? c->call(hello) : std::nullopt;
    connected = connected && reply && starts_with(*reply, "ok hello");
  }
  r.check(connected, "cannot connect three clients to the daemon");

  Observed obs;
  std::atomic<bool> stop{false};
  std::atomic<int> phase{kLow};
  std::atomic<std::uint64_t> committed{0};
  std::atomic<bool> prober_done{false};
  std::thread probe_thread, control_thread;
  if (connected) {
    probe_thread =
        std::thread(prober, std::ref(probe), std::cref(stop),
                    std::ref(committed), std::ref(prober_done), std::ref(obs));
    control_thread = std::thread(control, std::ref(ctl), std::cref(stop),
                                 std::cref(phase), std::ref(obs));
  }

  // --- Feeder (this thread) ---------------------------------------------
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const auto bytes = [&](std::size_t from, std::size_t to) {
    const std::size_t a = from == 0 ? 0 : feed.end[from - 1];
    return std::string_view(feed.wire).substr(a, feed.end[to - 1] - a);
  };
  std::vector<Clock::time_point> starts(rounds.size()),
      sat_starts(rounds.size());
  Samples late_us[2];
  bool fed = connected;
  const auto feed_start = Clock::now();
  for (std::size_t ri = 0; ri < rounds.size() && fed; ++ri) {
    const Round& rd = rounds[ri];
    ScopedSpan round_span("gs_bench.round", std::uint32_t(ri));
    starts[ri] = Clock::now() + std::chrono::milliseconds(1);
    // Open loop: everything due is sent in one write, and its lateness is
    // how far behind schedule that write started.
    std::size_t next = rd.begin;
    for (const int ph : {kLow, kHigh}) {
      const std::size_t last = ph == kLow ? rd.low_end : rd.high_end;
      phase.store(ph, std::memory_order_relaxed);
      ScopedSpan s(ph == kLow ? "gs_bench.feed.low" : "gs_bench.feed.high",
                   std::uint32_t(ri));
      while (fed && next < last) {
        wait_until(rd.due(starts[ri], next));
        const auto now = Clock::now();
        std::size_t j = next;
        while (j < last && rd.due(starts[ri], j) <= now) ++j;
        fed = feeder.send(bytes(next, j));
        for (; next < j; ++next) {
          late_us[ph].add(us_between(rd.due(starts[ri], next), now));
        }
      }
    }
    phase.store(kSat, std::memory_order_relaxed);
    ScopedSpan s("gs_bench.feed.sat", std::uint32_t(ri));
    sat_starts[ri] = Clock::now();
    if (fed && rd.high_end < rd.end) fed = feeder.send(bytes(rd.high_end, rd.end));
    // The next round starts from an idle daemon.
    while (fed && committed.load(std::memory_order_acquire) < rd.end &&
           !prober_done.load(std::memory_order_acquire) &&
           seconds_between(feed_start, Clock::now()) < kCommitTimeoutS) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    fed = fed && committed.load(std::memory_order_acquire) >= rd.end;
  }
  r.check(fed, "the daemon did not commit the whole feed");
  phase.store(kDone, std::memory_order_relaxed);
  stop.store(true, std::memory_order_relaxed);
  if (probe_thread.joinable()) probe_thread.join();
  if (control_thread.joinable()) control_thread.join();

  std::optional<std::string> drained;
  if (connected) {
    ScopedSpan s("gs_bench.drain");
    drained = ctl.call("drain");
  }
  if (!drained) daemon.request_stop();
  runner.join();

  // --- Correctness -------------------------------------------------------
  r.check(run_error.empty(), "daemon run failed: " + run_error);
  r.check(drained && starts_with(*drained, "ok drain") &&
              drained->find(" fp " + hex_u64(batch_fp) + " ") !=
                  std::string::npos,
          "drain reply " + drained.value_or("(none)") +
              " does not carry the batch fingerprint " + hex_u64(batch_fp));
  r.check(report.completed && report.result_fingerprint == batch_fp,
          "drained daemon fingerprint " + hex_u64(report.result_fingerprint) +
              " differs from the batch run " + hex_u64(batch_fp));
  const std::uint64_t lost =
      total - std::min<std::uint64_t>(total, report.ingested);
  const std::uint64_t dropped = lost + report.gap_drops + report.stale_drops;
  r.attempted += total;
  r.failed += dropped;
  if (dropped > 0) {
    r.fail("events lost " + std::to_string(lost) + ", gap drops " +
           std::to_string(report.gap_drops) + ", stale drops " +
           std::to_string(report.stale_drops));
  }
  const std::uint64_t calls_failed = obs.probes_failed + obs.control_failed;
  r.attempted += obs.probes.size() + obs.probes_failed + obs.control_calls;
  r.failed += calls_failed;
  if (calls_failed > 0) {
    r.fail("failed probes " + std::to_string(obs.probes_failed) +
           ", failed control calls " + std::to_string(obs.control_failed));
  }
  if (connected) {
    for (const std::string& reply :
         feeder.pending(std::chrono::milliseconds(20))) {
      r.check(!starts_with(reply, "err"), "feeder got " + reply);
    }
  }

  // --- Metrics -----------------------------------------------------------
  // Event e committed when the first probe reply showing epoch > e arrived.
  Samples sat_rate, round_p50, round_p99, commit_low_us;
  std::size_t k = 0;
  for (std::size_t ri = 0; ri < rounds.size() && fed; ++ri) {
    const Round& rd = rounds[ri];
    Samples high_us;
    for (std::size_t e = rd.begin; e < rd.end; ++e) {
      while (k < obs.probes.size() && obs.probes[k].epoch <= e) ++k;
      if (k == obs.probes.size()) break;
      const Clock::time_point at = obs.probes[k].at;
      if (e < rd.low_end) {
        commit_low_us.add(us_between(rd.due(starts[ri], e), at));
      } else if (e < rd.high_end) {
        high_us.add(us_between(rd.due(starts[ri], e), at));
      } else if (e + 1 == rd.end) {
        // Timed to the round's last commit: while the ring is full the IO
        // thread answers probes late, but once it drains they are prompt.
        sat_rate.add(double(rd.end - rd.high_end) /
                     seconds_between(sat_starts[ri], at));
      }
    }
    round_p50.add(high_us.median());
    round_p99.add(high_us.quantile(0.99));
  }
  r.check(!sat_rate.empty(), "daemon_feed measured no saturation round");
  r.add_fast("throughput", "1/s", std::move(sat_rate), true);
  r.add_fast("latency_p50_us", "us", std::move(round_p50), false);
  r.add_fast("latency_tail_us", "us", std::move(round_p99), false);
  r.add_fast("setup_s", "s", std::move(setup_s), false);
  for (const int ph : {kLow, kHigh}) {
    if (late_us[ph].quantile(0.99) > 1000.0) {
      r.notes.push_back(std::string(ph == kLow ? "low" : "high") +
                        " phase invalid: the feeder ran more than 1 ms late "
                        "at p99");
    }
  }

  if (layers != nullptr) {
    DaemonLayers& d = *layers;
    d.hello_rtt_us = obs.hello_rtt_us;
    d.stat_rtt_us = obs.stat_rtt_us;
    d.query_rtt_us = obs.query_rtt_us;
    d.queue_depth_max_low = obs.queue_max[kLow];
    d.queue_depth_max_high = obs.queue_max[kHigh];
    d.gen_late_p99_us_low = late_us[kLow].quantile(0.99);
    d.gen_late_p99_us_high = late_us[kHigh].quantile(0.99);
    d.commit_low_us = commit_low_us;
    std::string payload;
    for (std::uint32_t rep = 0; rep < 5; ++rep) {
      ckpt::StateWriter w;
      {
        ScopedSpan s("serve.ServeDaemon::save_state", rep);
        daemon.save_state(w);
      }
      payload = w.buffer();
    }
    d.ckpt_bytes = double(payload.size());
    const std::filesystem::path snap = ckpt_dir / "replay.gsck";
    ckpt::write_snapshot_file(snap, payload, io::Durability::None);
    for (std::uint32_t rep = 0; rep < 5; ++rep) {
      std::string back;
      {
        ScopedSpan s("ckpt.read_snapshot_file", rep);
        back = ckpt::read_snapshot_file(snap);
      }
      r.check(back == payload, "snapshot file read back differently");
    }
    serve::DaemonConfig resume = cfg;
    resume.resume_from = cfg.checkpoint_path;
    for (std::uint32_t rep = 0; rep < kConstructions; ++rep) {
      try {
        ScopedSpan s("serve.ServeDaemon::ServeDaemon.resume", rep);
        const serve::ServeDaemon resumed(resume);
      } catch (const std::exception& e) {
        r.check(false, std::string("resume from the drained checkpoint: ") +
                           e.what());
      }
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(ckpt_dir, ec);
  return r;
}

}  // namespace gs::bench
