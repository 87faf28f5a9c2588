#include "serve/daemon.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <thread>
#include <unordered_map>
#include <utility>

#include "ckpt/rotation.hpp"
#include "ckpt/snapshot.hpp"
#include "ckpt/state_io.hpp"
#include "common/assert.hpp"
#include "common/failpoint.hpp"
#include "core/strategy.hpp"
#include "sim/tsdb_sink.hpp"

namespace gs::serve {

namespace {

using SteadyClock = std::chrono::steady_clock;

std::string hex_u64(std::uint64_t v) {
  char buf[17];
  const auto res = std::to_chars(buf, buf + sizeof buf, v, 16);
  return std::string(buf, res.ptr);
}

/// Rows returned per query reply; the total row count is always reported,
/// so truncation is visible to the client.
constexpr std::uint64_t kQueryMaxRows = 256;

/// Failpoint site on the drain/stop-path final checkpoint: a crash here
/// is the worst case the e2e recovery contract must absorb.
constexpr const char* kFailpointDrainCheckpoint = "serve.drain.checkpoint";

/// Longest the epoch thread parks on an empty ring; wake_epoch() ends
/// the wait sooner. Paced, it must come back every 200 us to re-check the
/// tick deadline and the stall grace. Unpaced, only wake_epoch() can bring
/// it work, so the cap is a backstop; at 200 us an idle daemon would wake
/// ~4,000 times a second for nothing.
constexpr SteadyClock::duration kPacedWaitCap = std::chrono::microseconds(200);
constexpr SteadyClock::duration kUnpacedWaitCap = std::chrono::milliseconds(20);

}  // namespace

ServeDaemon::ServeDaemon(DaemonConfig cfg)
    : cfg_(std::move(cfg)),
      engine_(std::make_unique<tsdb::Engine>(cfg_.tsdb)),
      sim_(cfg_.day),
      queue_(cfg_.queue_capacity) {
  GS_REQUIRE(!cfg_.socket_path.empty(), "daemon needs a unix socket path");
  if (!cfg_.resume_from.empty()) {
    // StateReader views its argument; keep the payload alive beside it.
    const std::string payload = load_resume_payload(cfg_.resume_from);
    ckpt::StateReader r(payload);
    load_state(r);
  }
  sim_.attach_tsdb(engine_.get(), 0);
  stale_series_ =
      engine_->series("feed_stale", 0, sim::kTsdbAggregateServer);
  epoch_hint_.store(feed_.next_seq(), std::memory_order_relaxed);
  finish_if_done();
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK);
  GS_ENSURE(wake_fd_ >= 0, "eventfd() failed");
}

ServeDaemon::~ServeDaemon() {
  if (wake_fd_ >= 0) ::close(wake_fd_);
}

void ServeDaemon::save_state(ckpt::StateWriter& w) const {
  w.begin_section("serve_daemon", kStateVersion);
  w.u32(kProtocolVersion);
  w.u64(report_.epochs);
  w.boolean(report_.completed);
  feed_.save_state(w);
  sim_.save_state(w);
  engine_->save_state(w);
  w.end_section();
}

void ServeDaemon::load_state(ckpt::StateReader& r) {
  r.begin_section("serve_daemon", kStateVersion);
  const std::uint32_t proto = r.u32();
  if (proto != kProtocolVersion) {
    throw ckpt::SnapshotError(
        "daemon snapshot speaks GSRV/" + std::to_string(proto) +
        ", this daemon speaks " + protocol_id());
  }
  report_.epochs = r.u64();
  const bool completed = r.boolean();
  (void)completed;  // recomputed by finish_if_done() after the sim loads
  feed_.load_state(r);
  sim_.load_state(r);
  engine_->load_state(r);
  r.end_section();
}

void ServeDaemon::request_stop() {
  terminate_.store(true, std::memory_order_relaxed);
  wake_epoch();
  wake_io();
}

// The wake handshake. A producer bumps work_seq_, then reads parked_; the
// epoch thread, holding mu_, bumps parked_, reads work_seq_, then checks
// the ring. All four operations are seq_cst on the atomics themselves, so
// in their single total order either the epoch thread's read sees the
// producer's bump (and with it the push made before the bump) or the
// producer's read sees the epoch thread parked. In the second case the
// producer notifies under mu_, which the epoch thread holds from its
// checks until the wait releases it, so the notify cannot slip in between.
// No standalone fence: gcc's -Wtsan flags atomic_thread_fence, which
// -Werror turns into a failed gcc TSan build.

void ServeDaemon::wake_epoch() {
  work_seq_.fetch_add(1, std::memory_order_seq_cst);
  if (parked_.load(std::memory_order_seq_cst) == 0) return;
  MutexLock lock(mu_);
  work_cv_.notify_one();
}

void ServeDaemon::wait_for_work() {
  const SteadyClock::duration cap =
      cfg_.sim_speed > 0.0 ? kPacedWaitCap : kUnpacedWaitCap;
  const auto until = SteadyClock::now() + cap;
  MutexLock lock(mu_);
  parked_.fetch_add(1, std::memory_order_seq_cst);
  const std::uint64_t seen = work_seq_.load(std::memory_order_seq_cst);
  while (work_seq_.load(std::memory_order_seq_cst) == seen && queue_.empty() &&
         commands_.empty() && !terminate_.load(std::memory_order_relaxed)) {
    if (!work_cv_.wait_until(mu_, until)) break;
  }
  parked_.fetch_sub(1, std::memory_order_seq_cst);
}

void ServeDaemon::wake_io() {
  const std::uint64_t one = 1;
  // Failure only means the counter is saturated — a wakeup is pending.
  [[maybe_unused]] const ssize_t n =
      ::write(wake_fd_, &one, sizeof one);
}

void ServeDaemon::post_reply(std::uint64_t conn_id, std::string payload) {
  {
    MutexLock lock(mu_);
    outbox_.push_back({conn_id, std::move(payload)});
  }
  wake_io();
}

void ServeDaemon::finish_if_done() {
  if (!sim_.done() || report_.completed) return;
  report_.result = sim_.finish();
  report_.result_fingerprint = sim::day_result_fingerprint(report_.result);
  report_.completed = true;
}

std::string ServeDaemon::load_resume_payload(const std::string& from) {
  // A plain file is a pre-rotation snapshot (or an explicit generation
  // file); anything else is treated as a rotation base and resolved to
  // its newest intact generation.
  if (std::filesystem::is_regular_file(from)) {
    return ckpt::read_snapshot_file(from);
  }
  auto loaded =
      ckpt::RotatingSnapshot(std::filesystem::path(from))
          .load_last_known_good();
  if (!loaded) {
    throw ckpt::SnapshotError("no intact checkpoint generation at " + from);
  }
  for (const std::string& note : loaded->notes) {
    std::fprintf(stderr, "greensprintd: checkpoint recovery: %s\n",
                 note.c_str());
  }
  if (loaded->fell_back) {
    std::fprintf(stderr,
                 "greensprintd: resumed from last-known-good generation "
                 "%llu at %s\n",
                 static_cast<unsigned long long>(loaded->generation),
                 from.c_str());
  }
  return std::move(loaded->payload);
}

void ServeDaemon::write_checkpoint(const std::string& path) {
  ckpt::StateWriter w;
  save_state(w);
  ckpt::RotationOptions opts;
  opts.keep = cfg_.checkpoint_keep;
  ckpt::RotatingSnapshot(std::filesystem::path(path), opts)
      .write(w.buffer());
}

// --- Epoch thread -----------------------------------------------------------

void ServeDaemon::process_commands() {
  std::deque<Command> cmds;
  {
    MutexLock lock(mu_);
    cmds.swap(commands_);
  }
  for (const Command& c : cmds) handle_command(c);
}

std::string ServeDaemon::stat_reply() const {
  const std::uint64_t horizon_epochs =
      std::uint64_t(sim_.horizon().value() / sim_.epoch().value());
  std::string s = "ok stat epoch ";
  s += std::to_string(feed_.next_seq());
  s += " of ";
  s += std::to_string(horizon_epochs);
  s += " completed ";
  s += report_.completed ? '1' : '0';
  s += " strategy ";
  s += core::to_string(sim_.cluster().config().strategy);
  s += " ingested ";
  s += std::to_string(feed_.accepted());
  s += " stale_drops ";
  s += std::to_string(feed_.stale_drops());
  s += " gap_drops ";
  s += std::to_string(feed_.gap_drops());
  s += " stale_epochs ";
  s += std::to_string(feed_.stale_epochs());
  s += " queue ";
  s += std::to_string(queue_.size());
  s += " bursts_served ";
  s += std::to_string(sim_.bursts_served());
  s += " mean_soc ";
  s += format_double(sim_.cluster().mean_soc());
  s += " faults ";
  const std::string spec = sim_.live_faults().to_string();
  s += spec.empty() ? "none" : spec;
  return s;
}

std::string ServeDaemon::query_reply(const Request& req) {
  const tsdb::Timestamp lo =
      req.has_range ? tsdb::to_timestamp(req.lo) : tsdb::kMinTimestamp;
  const tsdb::Timestamp hi =
      req.has_range ? tsdb::to_timestamp(req.hi) : tsdb::kMaxTimestamp;
  tsdb::Cursor cur = engine_->query(req.arg, 0, lo, hi);
  std::string rows;
  std::uint64_t total = 0;
  tsdb::CursorRow row;
  while (cur.next(row)) {
    if (total < kQueryMaxRows) {
      rows += ' ';
      rows += format_double(tsdb::to_seconds(row.sample.time));
      rows += ':';
      rows += format_double(row.sample.value);
    }
    ++total;
  }
  std::string s = "ok query ";
  s += req.arg;
  s += " total ";
  s += std::to_string(total);
  s += " rows ";
  s += std::to_string(total < kQueryMaxRows ? total : kQueryMaxRows);
  s += rows;
  return s;
}

void ServeDaemon::handle_command(const Command& cmd) {
  const Request& req = cmd.req;
  switch (req.kind) {
    case Request::Kind::Stat:
      post_reply(cmd.conn_id, stat_reply());
      return;
    case Request::Kind::Query:
      post_reply(cmd.conn_id, query_reply(req));
      return;
    default:
      break;
  }
  if (draining_.load(std::memory_order_relaxed)) {
    post_reply(cmd.conn_id, make_error(ErrorCode::ShuttingDown,
                                       "daemon is draining"));
    return;
  }
  switch (req.kind) {
    case Request::Kind::Strategy: {
      const auto kind = core::strategy_from_string(req.arg);
      if (!kind) {
        post_reply(cmd.conn_id, make_error(ErrorCode::BadArgument,
                                           "unknown strategy " + req.arg));
        return;
      }
      const bool changed = sim_.set_strategy(*kind);
      post_reply(cmd.conn_id, std::string("ok strategy ") +
                                  core::to_string(*kind) + " changed " +
                                  (changed ? "1" : "0"));
      return;
    }
    case Request::Kind::FaultInject: {
      faults::FaultSpec spec;
      try {
        spec = faults::FaultSpec::parse(req.arg);
      } catch (const ContractError& e) {
        post_reply(cmd.conn_id,
                   make_error(ErrorCode::BadArgument, e.what()));
        return;
      }
      sim_.set_faults(spec);
      post_reply(cmd.conn_id, std::string("ok fault-inject active ") +
                                  (spec.any() ? "1" : "0"));
      return;
    }
    case Request::Kind::Checkpoint: {
      try {
        write_checkpoint(req.arg);
      } catch (const std::exception& e) {
        post_reply(cmd.conn_id, make_error(ErrorCode::Internal, e.what()));
        return;
      }
      post_reply(cmd.conn_id, "ok checkpoint " + req.arg + " epoch " +
                                  std::to_string(feed_.next_seq()));
      return;
    }
    case Request::Kind::Drain:
      draining_.store(true, std::memory_order_relaxed);
      drain_conn_ = cmd.conn_id;
      return;
    default:
      post_reply(cmd.conn_id,
                 make_error(ErrorCode::Internal, "unroutable command"));
      return;
  }
}

void ServeDaemon::drain_feed_queue() {
  QueuedFeed qf;
  while (queue_.pop(qf)) {
    if (sim_.done()) continue;
    if (feed_.admit(qf.ev) == LiveFeed::Admit::Accepted) {
      sim_.step_live(LiveFeed::live(qf.ev));
      ++report_.epochs;
      epoch_hint_.store(feed_.next_seq(), std::memory_order_relaxed);
      maybe_periodic_checkpoint();
    }
  }
}

void ServeDaemon::maybe_periodic_checkpoint() {
  if (cfg_.checkpoint_every == 0 || cfg_.checkpoint_path.empty() ||
      feed_.next_seq() % cfg_.checkpoint_every != 0) {
    return;
  }
  try {
    write_checkpoint(cfg_.checkpoint_path);
  } catch (const std::exception& e) {
    // A failed periodic checkpoint must not take the serving loop down:
    // the previous generation still stands and the next interval retries.
    std::fprintf(stderr, "greensprintd: periodic checkpoint failed: %s\n",
                 e.what());
  }
}

void ServeDaemon::epoch_loop() {
  const bool paced = cfg_.sim_speed > 0.0;
  const auto to_duration = [](double seconds) {
    return std::chrono::duration_cast<SteadyClock::duration>(
        std::chrono::duration<double>(seconds));
  };
  const auto epoch_wall =
      paced ? to_duration(sim_.epoch().value() / cfg_.sim_speed)
            : SteadyClock::duration::zero();
  const auto grace = paced ? to_duration(sim_.epoch().value() /
                                         cfg_.sim_speed *
                                         cfg_.stall_grace_epochs)
                           : SteadyClock::duration::zero();
  const auto start = SteadyClock::now();
  const std::uint64_t k0 = feed_.next_seq();
  QueuedFeed qf;
  while (!terminate_.load(std::memory_order_relaxed)) {
    process_commands();
    if (draining_.load(std::memory_order_relaxed)) break;
    if (sim_.done()) {
      finish_if_done();
      std::this_thread::sleep_for(std::chrono::microseconds(500));
      continue;
    }
    const std::uint64_t k = feed_.next_seq();
    const auto deadline = start + epoch_wall * std::int64_t(k - k0 + 1);
    if (paced && SteadyClock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      continue;
    }
    // The tick is due: consume queue entries until epoch k is stepped,
    // either from its admitted feed event or — paced only, after the
    // grace window — from the EWMA fallback.
    bool stepped = false;
    while (!stepped && !terminate_.load(std::memory_order_relaxed) &&
           !draining_.load(std::memory_order_relaxed)) {
      if (queue_.pop(qf)) {
        switch (feed_.admit(qf.ev)) {
          case LiveFeed::Admit::Accepted:
            sim_.step_live(LiveFeed::live(qf.ev));
            last_admit_gap_ = false;
            stepped = true;
            break;
          case LiveFeed::Admit::Gap:
            // Edge-triggered reply: tell the feeder once per gap run.
            if (!last_admit_gap_) {
              post_reply(qf.conn_id,
                         make_error(ErrorCode::FeedGap,
                                    "expected seq " +
                                        std::to_string(feed_.next_seq())));
            }
            last_admit_gap_ = true;
            break;
          case LiveFeed::Admit::Stale:
            last_admit_gap_ = false;
            break;
        }
        continue;
      }
      if (paced && SteadyClock::now() >= deadline + grace) {
        const double t_s = sim_.now().value();
        sim_.step_live(feed_.fallback());
        engine_->append(stale_series_, t_s, 1.0);
        stepped = true;
        break;
      }
      process_commands();
      wait_for_work();
    }
    if (!stepped) continue;
    ++report_.epochs;
    epoch_hint_.store(feed_.next_seq(), std::memory_order_relaxed);
    finish_if_done();
    maybe_periodic_checkpoint();
  }

  if (draining_.load(std::memory_order_relaxed)) {
    drain_feed_queue();
    finish_if_done();
  }
  engine_->seal_all();
  engine_->flush();
  std::string checkpoint_note = "none";
  if (!cfg_.checkpoint_path.empty()) {
    try {
      GS_FAILPOINT(kFailpointDrainCheckpoint);
      write_checkpoint(cfg_.checkpoint_path);
      checkpoint_note = cfg_.checkpoint_path;
    } catch (const std::exception&) {
      checkpoint_note = "failed";
    }
  }
  if (draining_.load(std::memory_order_relaxed)) {
    report_.drained = true;
    std::string s = "ok drain epochs ";
    s += std::to_string(report_.epochs);
    s += " completed ";
    s += report_.completed ? '1' : '0';
    s += " fp ";
    s += report_.completed ? hex_u64(report_.result_fingerprint) : "0";
    s += " checkpoint ";
    s += checkpoint_note;
    post_reply(drain_conn_, std::move(s));
  }
  stopped_.store(true, std::memory_order_release);
  wake_io();
}

// --- IO thread --------------------------------------------------------------

struct ServeDaemon::Conn {
  int fd = -1;
  std::uint64_t id = 0;
  FrameDecoder decoder;
  bool hello_done = false;
  bool closing = false;  ///< close once outbuf flushes (bye / bad frame)
  std::string outbuf;
};

struct ServeDaemon::IoState {
  int epfd = -1;
  int listen_unix = -1;
  int listen_tcp = -1;
  std::unordered_map<int, Conn> conns;
  std::uint64_t next_conn_id = 1;
};

namespace {

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  GS_ENSURE(flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
            "fcntl(O_NONBLOCK) failed");
}

void epoll_add(int epfd, int fd, std::uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  GS_ENSURE(::epoll_ctl(epfd, EPOLL_CTL_ADD, fd, &ev) == 0,
            "epoll_ctl(ADD) failed");
}

void epoll_mod(int epfd, int fd, std::uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  GS_ENSURE(::epoll_ctl(epfd, EPOLL_CTL_MOD, fd, &ev) == 0,
            "epoll_ctl(MOD) failed");
}

int listen_unix_socket(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  GS_ENSURE(fd >= 0, "socket(AF_UNIX) failed");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  GS_REQUIRE(path.size() < sizeof addr.sun_path,
             "unix socket path too long: " + path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ::unlink(path.c_str());  // the daemon owns the path
  GS_ENSURE(::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof addr) == 0,
            "bind(" + path + ") failed: " + std::strerror(errno));
  GS_ENSURE(::listen(fd, 16) == 0, "listen failed");
  set_nonblocking(fd);
  return fd;
}

int listen_tcp_socket(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  GS_ENSURE(fd >= 0, "socket(AF_INET) failed");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(std::uint16_t(port));
  GS_ENSURE(::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof addr) == 0,
            "bind(127.0.0.1:" + std::to_string(port) +
                ") failed: " + std::strerror(errno));
  GS_ENSURE(::listen(fd, 16) == 0, "listen failed");
  set_nonblocking(fd);
  return fd;
}

/// Write as much of the outbuf as the socket takes; false on a dead peer.
bool flush_outbuf(int fd, std::string& outbuf) {
  while (!outbuf.empty()) {
    const ssize_t n = ::write(fd, outbuf.data(), outbuf.size());
    if (n > 0) {
      outbuf.erase(0, std::size_t(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    return false;  // EPIPE / ECONNRESET / ...
  }
  return true;
}

}  // namespace

DaemonReport ServeDaemon::run() {
  IoState io;
  io.epfd = ::epoll_create1(0);
  GS_ENSURE(io.epfd >= 0, "epoll_create1 failed");
  io.listen_unix = listen_unix_socket(cfg_.socket_path);
  epoll_add(io.epfd, io.listen_unix, EPOLLIN);
  if (cfg_.tcp_port > 0) {
    io.listen_tcp = listen_tcp_socket(cfg_.tcp_port);
    epoll_add(io.epfd, io.listen_tcp, EPOLLIN);
  }
  epoll_add(io.epfd, wake_fd_, EPOLLIN);
  if (cfg_.stop_fd >= 0) epoll_add(io.epfd, cfg_.stop_fd, EPOLLIN);

  // The epoch thread is the single consumer of the feed ring; this thread
  // stays on the sockets. A pool makes no sense for one pinned consumer.
  std::thread epoch_thread(  // gs-lint: allow(raw-thread)
      [this] { epoch_loop(); });

  io_loop(io);
  epoch_thread.join();

  for (auto& [fd, conn] : io.conns) {
    flush_outbuf(fd, conn.outbuf);
    ::close(fd);
  }
  if (io.listen_unix >= 0) ::close(io.listen_unix);
  if (io.listen_tcp >= 0) ::close(io.listen_tcp);
  ::close(io.epfd);
  ::unlink(cfg_.socket_path.c_str());

  report_.ingested = feed_.accepted();
  report_.stale_drops = feed_.stale_drops();
  report_.gap_drops = feed_.gap_drops();
  report_.stale_epochs = feed_.stale_epochs();
  return report_;
}

void ServeDaemon::handle_payload(Conn& conn, const std::string& payload) {
  const auto send = [&](std::string reply) {
    conn.outbuf += encode_frame(reply);
  };
  const ParseOutcome out = parse_request(payload);
  if (!out.request) {
    send(make_error(out.error, out.detail));
    return;
  }
  const Request& req = *out.request;
  if (req.kind == Request::Kind::Hello) {
    conn.hello_done = true;
    std::string s = "ok hello ";
    s += protocol_id();
    s += " epoch ";
    s += std::to_string(epoch_hint_.load(std::memory_order_relaxed));
    s += " fp ";
    s += hex_u64(sim::day_run_fingerprint(cfg_.day));
    send(std::move(s));
    return;
  }
  if (!conn.hello_done) {
    send(make_error(ErrorCode::NeedHello, "hello first"));
    return;
  }
  switch (req.kind) {
    case Request::Kind::Feed: {
      if (draining_.load(std::memory_order_relaxed) ||
          stopped_.load(std::memory_order_relaxed)) {
        send(make_error(ErrorCode::ShuttingDown, "daemon is draining"));
        return;
      }
      const QueuedFeed qf{conn.id, req.feed};
      // Backpressure: park until the epoch thread makes room. The socket
      // buffer (and ultimately the feeder) absorbs the stall; no event is
      // ever dropped here.
      while (!queue_.push(qf)) {
        if (terminate_.load(std::memory_order_relaxed) ||
            stopped_.load(std::memory_order_relaxed)) {
          return;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
      wake_epoch();
      return;
    }
    case Request::Kind::Bye:
      send("ok bye");
      conn.closing = true;
      return;
    default: {
      {
        MutexLock lock(mu_);
        commands_.push_back({conn.id, req});
      }
      wake_epoch();
      return;
    }
  }
}

void ServeDaemon::io_loop(IoState& io) {
  std::vector<epoll_event> events(64);
  std::vector<int> dead;
  char buf[16384];
  for (;;) {
    // Deliver epoch-thread replies into per-connection buffers.
    std::deque<Outgoing> out;
    {
      MutexLock lock(mu_);
      out.swap(outbox_);
    }
    for (Outgoing& o : out) {
      for (auto& [fd, conn] : io.conns) {
        if (conn.id == o.conn_id) {
          conn.outbuf += encode_frame(o.payload);
          break;
        }
      }
    }
    dead.clear();
    bool pending_writes = false;
    for (auto& [fd, conn] : io.conns) {
      if (!flush_outbuf(fd, conn.outbuf)) {
        dead.push_back(fd);
        continue;
      }
      if (conn.closing && conn.outbuf.empty()) {
        dead.push_back(fd);
        continue;
      }
      pending_writes = pending_writes || !conn.outbuf.empty();
      epoll_mod(io.epfd, fd,
                std::uint32_t(EPOLLIN) |
                    (conn.outbuf.empty() ? 0u : std::uint32_t(EPOLLOUT)));
    }
    for (const int fd : dead) {
      ::close(fd);
      io.conns.erase(fd);
      ::epoll_ctl(io.epfd, EPOLL_CTL_DEL, fd, nullptr);
    }
    if (stopped_.load(std::memory_order_acquire)) {
      bool outbox_empty;
      {
        MutexLock lock(mu_);
        outbox_empty = outbox_.empty();
      }
      if (outbox_empty && !pending_writes) break;
    }

    const int n = ::epoll_wait(io.epfd, events.data(), int(events.size()),
                               20);
    if (n < 0) {
      if (errno == EINTR) continue;
      GS_ENSURE(false, "epoll_wait failed");
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == io.listen_unix || fd == io.listen_tcp) {
        for (;;) {
          const int cfd = ::accept(fd, nullptr, nullptr);
          if (cfd < 0) break;
          set_nonblocking(cfd);
          Conn conn;
          conn.fd = cfd;
          conn.id = io.next_conn_id++;
          io.conns.emplace(cfd, std::move(conn));
          epoll_add(io.epfd, cfd, EPOLLIN);
        }
        continue;
      }
      if (fd == wake_fd_) {
        std::uint64_t counter = 0;
        [[maybe_unused]] const ssize_t rd =
            ::read(wake_fd_, &counter, sizeof counter);
        continue;
      }
      if (fd == cfg_.stop_fd) {
        char sink[64];
        [[maybe_unused]] const ssize_t rd =
            ::read(cfg_.stop_fd, sink, sizeof sink);
        terminate_.store(true, std::memory_order_relaxed);
        wake_epoch();
        continue;
      }
      const auto it = io.conns.find(fd);
      if (it == io.conns.end()) continue;
      Conn& conn = it->second;
      bool drop = false;
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) drop = true;
      if (!drop && (events[i].events & EPOLLIN) != 0) {
        for (;;) {
          const ssize_t rd = ::read(fd, buf, sizeof buf);
          if (rd > 0) {
            conn.decoder.feed(std::string_view(buf, std::size_t(rd)));
            continue;
          }
          if (rd < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          if (rd < 0 && errno == EINTR) continue;
          drop = true;  // EOF or hard error
          break;
        }
        std::string payload;
        while (conn.decoder.next(payload)) {
          handle_payload(conn, payload);
        }
        if (conn.decoder.error()) {
          conn.outbuf +=
              encode_frame(make_error(ErrorCode::BadFrame,
                                      *conn.decoder.error()));
          conn.closing = true;
        }
      }
      if (drop) {
        ::close(fd);
        io.conns.erase(it);
        ::epoll_ctl(io.epfd, EPOLL_CTL_DEL, fd, nullptr);
      }
    }
  }
}

}  // namespace gs::serve
