// gs_feed: feed-trace generator and replay client for greensprintd.
//
// Generate: gs_feed --gen --trace FILE [scenario flags]
//   Writes one GSRV/1 feed payload per line, produced by
//   sim::day_feed_plan() with shortest round-trip doubles — replaying the
//   file drives the daemon bit-identically to the batch run.
//
// Replay:  gs_feed --play --trace FILE --socket PATH [--until EPOCH]
//            [--strategy-at EPOCH:NAME] [--fault-at EPOCH:SPEC]
//            [--stat-at EPOCH] [--drain]
//   Connects, handshakes, and streams the trace from the daemon's current
//   epoch (the hello reply carries it, so replaying the full file after a
//   daemon restart just works — consumed epochs are skipped client-side
//   and would be Stale-dropped server-side anyway). --until stops before
//   the named epoch (partial segment ahead of a planned restart). The
//   *-at hooks inject one control command just before that epoch's feed.
//   --drain sends `drain` after the last event and waits for the reply,
//   printing the daemon's final fingerprint.
//
// Poll:    gs_feed --stat --socket PATH
//            one-shot: connect, print the daemon's stat reply, exit.
//          gs_feed --wait-epoch N --socket PATH [--timeout S]
//            poll stat until the daemon's next epoch reaches N (or the
//            campaign completes); replaces fixed sleeps in e2e scripts.
//
// All connecting modes retry the connect with exponential backoff and
// seeded jitter (--retry-seed), so callers can launch the daemon and the
// client concurrently without racing the socket bind.
//
// Exit codes: 0 ok, 2 usage (a bad option or operand), 3 connection lost
// mid-replay (daemon died), 4 --wait-epoch timed out.
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve_scenario.hpp"
#include "sim/day_runner.hpp"

namespace {

using namespace gs;

void print_usage() {
  std::fprintf(stderr,
               "usage: gs_feed --gen --trace FILE [scenario flags]\n"
               "   or: gs_feed --play --trace FILE --socket PATH "
               "[--until EPOCH]\n        [--strategy-at EPOCH:NAME] "
               "[--fault-at EPOCH:SPEC] [--stat-at EPOCH] [--drain]\n"
               "   or: gs_feed --stat --socket PATH\n"
               "   or: gs_feed --wait-epoch N --socket PATH [--timeout S]\n"
               "connecting modes also take [--retry-seed N]\n"
               "scenario flags: %s\n",
               tools::kScenarioUsage);
}

/// "EPOCH:REST" hook argument.
struct Hook {
  std::uint64_t epoch = 0;
  std::string rest;
};

/// The --`key` hook, nullopt when absent. `form` is EPOCH or EPOCH:WHAT;
/// throws UsageError on an operand of another form.
std::optional<Hook> parse_hook(const CliArgs& args, const char* key,
                               const std::string& form) {
  if (!args.has(key)) return std::nullopt;
  const std::string s = args.get(key, std::string());
  const auto colon = s.find(':');
  const auto epoch = serve::parse_u64(s.substr(0, colon));
  const bool with_rest = form.find(':') != std::string::npos;
  if (!epoch || (with_rest && colon == std::string::npos)) {
    throw UsageError(std::string("--") + key + " wants " + form);
  }
  Hook h;
  h.epoch = *epoch;
  if (colon != std::string::npos) h.rest = s.substr(colon + 1);
  return h;
}

enum class Mode { Gen, Play, Stat, WaitEpoch };

struct Options {
  Mode mode = Mode::Gen;
  std::string trace;
  std::string socket;
  std::uint64_t retry_seed = 0;
  std::vector<sim::LiveEpoch> plan;  ///< --gen
  std::uint64_t until = ~std::uint64_t(0);
  std::optional<Hook> strategy_at, fault_at, stat_at;
  bool drain = false;
  std::uint64_t wait_epoch = 0;
  double timeout_s = 30.0;
};

/// Parse and validate the whole command line. Every exception it throws
/// is a usage error.
Options parse(int argc, char** argv) {
  const CliArgs args(argc, argv);
  std::set<std::string> value_keys = {
      "trace", "socket", "retry-seed", "until", "strategy-at", "fault-at",
      "stat-at", "wait-epoch", "timeout"};
  value_keys.insert(tools::kScenarioKeys.begin(), tools::kScenarioKeys.end());
  args.validate(value_keys, {"gen", "play", "stat", "drain"});

  Options o;
  o.trace = args.get("trace", std::string());
  o.socket = args.get("socket", std::string());
  if (args.flag("stat") || args.has("wait-epoch")) {
    o.mode = args.flag("stat") ? Mode::Stat : Mode::WaitEpoch;
  } else if (o.trace.empty() || (!args.flag("gen") && !args.flag("play"))) {
    throw UsageError("--gen or --play needs --trace");
  } else {
    o.mode = args.flag("gen") ? Mode::Gen : Mode::Play;
  }
  if (o.mode != Mode::Gen && o.socket.empty()) {
    throw UsageError("--play, --stat and --wait-epoch need --socket");
  }
  o.retry_seed = std::uint64_t(args.get("retry-seed", 0));
  const sim::DayRunConfig day = tools::scenario_from_cli(args);
  // A campaign the simulator refuses (--days 0) is a bad operand too.
  if (o.mode == Mode::Gen) o.plan = sim::day_feed_plan(day);
  if (args.has("until")) o.until = std::uint64_t(args.get("until", 0));
  o.strategy_at = parse_hook(args, "strategy-at", "EPOCH:NAME");
  o.fault_at = parse_hook(args, "fault-at", "EPOCH:SPEC");
  o.stat_at = parse_hook(args, "stat-at", "EPOCH");
  o.drain = args.flag("drain");
  o.wait_epoch = std::uint64_t(args.get("wait-epoch", 0));
  o.timeout_s = args.get("timeout", o.timeout_s);
  return o;
}

int connect_with_retry(const Options& o) {
  serve::ConnectRetryOptions opts;
  opts.seed = o.retry_seed;
  const int fd = serve::connect_unix_retry(o.socket, opts);
  if (fd < 0) {
    std::fprintf(stderr, "gs_feed: cannot connect %s: %s\n",
                 o.socket.c_str(), std::strerror(errno));
  }
  return fd;
}

bool send_all(int fd, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n > 0) {
      off += std::size_t(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

/// Block until one complete frame arrives; nullopt on EOF/error.
std::optional<std::string> read_frame(int fd, serve::FrameDecoder& dec) {
  std::string payload;
  char buf[4096];
  for (;;) {
    if (dec.next(payload)) return payload;
    if (dec.error()) return std::nullopt;
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n > 0) {
      dec.feed(std::string_view(buf, std::size_t(n)));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return std::nullopt;
  }
}

int generate(const Options& o) {
  const std::string& trace_path = o.trace;
  std::ofstream out(trace_path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "gs_feed: cannot write %s\n", trace_path.c_str());
    return 1;
  }
  std::uint64_t seq = 0;
  for (const sim::LiveEpoch& e : o.plan) {
    serve::FeedEvent ev;
    ev.seq = seq++;
    ev.lambda = e.lambda;
    ev.irradiance = e.irradiance;
    ev.burst = e.in_burst;
    out << serve::format_feed(ev) << '\n';
  }
  out.flush();
  if (!out) {
    std::fprintf(stderr, "gs_feed: write to %s failed\n",
                 trace_path.c_str());
    return 1;
  }
  std::printf("gs_feed: wrote %llu epochs to %s\n",
              (unsigned long long)seq, trace_path.c_str());
  return 0;
}

int play(const Options& o) {
  std::ifstream in(o.trace);
  if (!in) {
    std::fprintf(stderr, "gs_feed: cannot read %s\n", o.trace.c_str());
    return 2;
  }
  const int fd = connect_with_retry(o);
  if (fd < 0) return 3;
  serve::FrameDecoder dec;
  if (!send_all(fd, serve::encode_frame("hello " + serve::protocol_id()))) {
    ::close(fd);
    return 3;
  }
  const auto hello = read_frame(fd, dec);
  if (!hello || hello->rfind("ok hello ", 0) != 0) {
    std::fprintf(stderr, "gs_feed: bad hello reply: %s\n",
                 hello ? hello->c_str() : "(connection lost)");
    ::close(fd);
    return 3;
  }
  std::printf("gs_feed: %s\n", hello->c_str());
  // "ok hello GSRV/1 epoch <k> fp <hex>"
  std::uint64_t resume_epoch = 0;
  {
    const std::string marker = " epoch ";
    const auto at = hello->find(marker);
    if (at != std::string::npos) {
      const auto start = at + marker.size();
      const auto end = hello->find(' ', start);
      const auto v = serve::parse_u64(hello->substr(start, end - start));
      if (v) resume_epoch = *v;
    }
  }

  std::uint64_t sent = 0;
  std::string line;
  bool lost = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const serve::ParseOutcome out = serve::parse_request(line);
    if (!out.request || out.request->kind != serve::Request::Kind::Feed) {
      std::fprintf(stderr, "gs_feed: bad trace line: %s\n", line.c_str());
      ::close(fd);
      return 2;
    }
    const std::uint64_t seq = out.request->feed.seq;
    if (seq >= o.until) break;
    if (seq < resume_epoch) continue;  // daemon already consumed it
    const auto hook = [&](const std::optional<Hook>& h, const char* verb,
                          bool wait_reply) -> bool {
      if (!h || h->epoch != seq) return true;
      std::string cmd = verb;
      if (!h->rest.empty()) cmd += " " + h->rest;
      if (!send_all(fd, serve::encode_frame(cmd))) return false;
      if (wait_reply) {
        const auto reply = read_frame(fd, dec);
        if (!reply) return false;
        std::printf("gs_feed: %s\n", reply->c_str());
      }
      return true;
    };
    if (!hook(o.strategy_at, "strategy", true) ||
        !hook(o.fault_at, "fault-inject", true) ||
        !hook(o.stat_at, "stat", true)) {
      lost = true;
      break;
    }
    if (!send_all(fd, serve::encode_frame(line))) {
      lost = true;
      break;
    }
    ++sent;
  }
  if (lost) {
    std::fprintf(stderr, "gs_feed: connection lost after %llu events\n",
                 (unsigned long long)sent);
    ::close(fd);
    return 3;
  }
  std::printf("gs_feed: sent %llu events\n", (unsigned long long)sent);

  if (o.drain) {
    if (!send_all(fd, serve::encode_frame("drain"))) {
      ::close(fd);
      return 3;
    }
    for (;;) {
      const auto reply = read_frame(fd, dec);
      if (!reply) {
        std::fprintf(stderr, "gs_feed: connection lost awaiting drain\n");
        ::close(fd);
        return 3;
      }
      std::printf("gs_feed: %s\n", reply->c_str());
      if (reply->rfind("ok drain ", 0) == 0) break;
    }
  }
  ::close(fd);
  return 0;
}

/// Connect + hello handshake for the polling modes; -1 on failure.
int open_session(const Options& o, serve::FrameDecoder& dec) {
  const int fd = connect_with_retry(o);
  if (fd < 0) return -1;
  if (!send_all(fd, serve::encode_frame("hello " + serve::protocol_id()))) {
    ::close(fd);
    return -1;
  }
  const auto hello = read_frame(fd, dec);
  if (!hello || hello->rfind("ok hello ", 0) != 0) {
    std::fprintf(stderr, "gs_feed: bad hello reply: %s\n",
                 hello ? hello->c_str() : "(connection lost)");
    ::close(fd);
    return -1;
  }
  return fd;
}

/// "<key> <u64>" field from a stat reply; nullopt when absent.
std::optional<std::uint64_t> stat_field(const std::string& reply,
                                        const std::string& key) {
  const std::string marker = " " + key + " ";
  const auto at = reply.find(marker);
  if (at == std::string::npos) return std::nullopt;
  const auto start = at + marker.size();
  const auto end = reply.find(' ', start);
  return serve::parse_u64(reply.substr(start, end - start));
}

int stat_once(const Options& o) {
  serve::FrameDecoder dec;
  const int fd = open_session(o, dec);
  if (fd < 0) return 3;
  int rc = 3;
  if (send_all(fd, serve::encode_frame("stat"))) {
    const auto reply = read_frame(fd, dec);
    if (reply) {
      std::printf("gs_feed: %s\n", reply->c_str());
      rc = 0;
    }
  }
  ::close(fd);
  return rc;
}

/// Poll stat until the daemon's next epoch reaches `target` (or the
/// campaign completes — a finished daemon never advances further).
int wait_epoch(const Options& o) {
  const std::uint64_t target = o.wait_epoch;
  serve::FrameDecoder dec;
  const int fd = open_session(o, dec);
  if (fd < 0) return 3;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(o.timeout_s);
  for (;;) {
    if (!send_all(fd, serve::encode_frame("stat"))) break;
    const auto reply = read_frame(fd, dec);
    if (!reply) break;
    const auto epoch = stat_field(*reply, "epoch");
    const auto completed = stat_field(*reply, "completed");
    if ((epoch && *epoch >= target) || (completed && *completed != 0)) {
      std::printf("gs_feed: %s\n", reply->c_str());
      ::close(fd);
      return 0;
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      std::fprintf(stderr,
                   "gs_feed: timed out waiting for epoch %llu (at %llu)\n",
                   (unsigned long long)target,
                   (unsigned long long)(epoch ? *epoch : 0));
      ::close(fd);
      return 4;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::fprintf(stderr, "gs_feed: connection lost awaiting epoch %llu\n",
               (unsigned long long)target);
  ::close(fd);
  return 3;
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  Options o;
  try {
    o = parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gs_feed: %s\n", e.what());
    print_usage();
    return 2;
  }
  switch (o.mode) {
    case Mode::Gen: return generate(o);
    case Mode::Play: return play(o);
    case Mode::Stat: return stat_once(o);
    case Mode::WaitEpoch: return wait_epoch(o);
  }
  return 2;
}
