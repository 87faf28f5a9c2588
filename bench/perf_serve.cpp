// Timed perf harness for the serving stack (src/serve).
//
// Three stages, each reported and written to BENCH_serve.json:
//   codec: format_feed/parse_request round trips through the GSRV framing
//          (the per-event CPU cost a feeder and the daemon's IO thread pay),
//   spsc:  two-thread hammer over the lock-free feed ring,
//   e2e:   a real ServeDaemon on a unix socket, one client streaming a full
//          campaign feed unpaced and draining; verifies the drained result
//          fingerprint against the inline batch run (sim::run_days) before
//          reporting throughput — a fast daemon serving wrong epochs is a
//          failure, not a result.
//
// Acceptance gate: the e2e stage must sustain at least 10k ingested
// events/sec, in smoke and full modes alike (one event is one controller
// epoch; the paper's epochs are 60 s, so 10k/s is ~6e5x real time).
//
// Usage: perf_serve [--smoke] [--out PATH] [--days N]
//   --smoke   one campaign day and smaller hammer counts (also via
//             GS_BENCH_SMOKE=1)
//   --out     where to write the JSON artifact (default BENCH_serve.json)
//   --days    campaign length for the e2e stage (default 4, smoke 1)
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "serve/daemon.hpp"
#include "serve/protocol.hpp"
#include "serve/spsc_queue.hpp"
#include "sim/day_runner.hpp"

namespace {

using namespace gs;

constexpr double kMinE2eEventsPerSec = 1.0e4;

struct CodecTiming {
  std::uint64_t events = 0;
  double format_per_sec = 0.0;
  double parse_per_sec = 0.0;
};

CodecTiming run_codec(std::uint64_t events) {
  std::vector<std::string> frames;
  frames.reserve(events);
  bench::WallTimer timer;
  for (std::uint64_t i = 0; i < events; ++i) {
    serve::FeedEvent ev;
    ev.seq = i;
    ev.lambda = 30.0 + double(i % 997) * 0.0625;
    ev.irradiance = double(i % 1201) / 1200.0;  // the [0, 1] feed domain
    ev.burst = (i % 37) == 0;
    frames.push_back(serve::encode_frame(serve::format_feed(ev)));
  }
  const double format_s = timer.elapsed_s();

  serve::FrameDecoder dec;
  std::string payload;
  std::uint64_t parsed = 0;
  timer.restart();
  for (const std::string& f : frames) {
    dec.feed(f);
    while (dec.next(payload)) {
      const auto out = serve::parse_request(payload);
      if (out.request &&
          out.request->kind == serve::Request::Kind::Feed) {
        ++parsed;
      }
    }
  }
  const double parse_s = timer.elapsed_s();
  if (parsed != events) {
    std::fprintf(stderr, "perf_serve: codec round trip lost events\n");
    std::exit(1);
  }
  CodecTiming t;
  t.events = events;
  t.format_per_sec = format_s > 0.0 ? double(events) / format_s : 0.0;
  t.parse_per_sec = parse_s > 0.0 ? double(events) / parse_s : 0.0;
  return t;
}

double run_spsc_hammer(std::uint64_t count) {
  serve::SpscQueue<serve::FeedEvent> q(1024);
  bench::WallTimer timer;
  std::thread producer([&q, count] {
    for (std::uint64_t i = 0; i < count; ++i) {
      serve::FeedEvent ev;
      ev.seq = i;
      while (!q.push(ev)) {
      }
    }
  });
  std::uint64_t seen = 0;
  serve::FeedEvent ev;
  while (seen < count) {
    if (q.pop(ev)) {
      if (ev.seq != seen) {
        std::fprintf(stderr, "perf_serve: spsc reordered\n");
        std::exit(1);
      }
      ++seen;
    }
  }
  producer.join();
  const double s = timer.elapsed_s();
  return s > 0.0 ? double(count) / s : 0.0;
}

struct E2eTiming {
  std::uint64_t events = 0;
  double seconds = 0.0;
  double events_per_sec = 0.0;
  std::uint64_t fingerprint = 0;
};

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  for (int i = 0; i < 200; ++i) {
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) == 0) {
      return fd;
    }
    ::usleep(10000);
  }
  return -1;
}

bool send_all(int fd, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n <= 0) return false;
    off += std::size_t(n);
  }
  return true;
}

E2eTiming run_e2e(int days) {
  sim::DayRunConfig day;
  day.days = days;
  day.daily_bursts = sim::default_daily_bursts();
  const std::uint64_t batch_fp =
      sim::day_result_fingerprint(sim::run_days(day));

  serve::DaemonConfig cfg;
  cfg.day = day;
  cfg.socket_path =
      "/tmp/gs_perf_serve_" + std::to_string(::getpid()) + ".sock";
  serve::ServeDaemon daemon(std::move(cfg));
  serve::DaemonReport report;
  std::thread runner([&daemon, &report] { report = daemon.run(); });

  const std::string socket_path =
      "/tmp/gs_perf_serve_" + std::to_string(::getpid()) + ".sock";
  const int fd = connect_unix(socket_path);
  if (fd < 0) {
    std::fprintf(stderr, "perf_serve: cannot connect daemon socket\n");
    std::exit(1);
  }

  // Pre-render the whole feed so the timer sees transport + daemon work,
  // not trace generation.
  const auto plan = sim::day_feed_plan(day);
  std::string wire;
  wire.reserve(plan.size() * 48);
  std::uint64_t seq = 0;
  for (const auto& e : plan) {
    serve::FeedEvent ev;
    ev.seq = seq++;
    ev.lambda = e.lambda;
    ev.irradiance = e.irradiance;
    ev.burst = e.in_burst;
    wire += serve::encode_frame(serve::format_feed(ev));
  }

  bench::WallTimer timer;
  bool ok = send_all(fd, serve::encode_frame("hello " +
                                             serve::protocol_id()));
  ok = ok && send_all(fd, wire);
  ok = ok && send_all(fd, serve::encode_frame("drain"));
  if (!ok) {
    std::fprintf(stderr, "perf_serve: daemon hung up mid-feed\n");
    std::exit(1);
  }
  // Wait for the daemon to drain; the join is the end of the measured
  // interval (the drain reply and our reads would only add client time).
  runner.join();
  const double seconds = timer.elapsed_s();
  ::close(fd);

  if (!report.completed || report.result_fingerprint != batch_fp) {
    std::fprintf(stderr,
                 "perf_serve: daemon fingerprint mismatch (%llx != %llx)\n",
                 (unsigned long long)report.result_fingerprint,
                 (unsigned long long)batch_fp);
    std::exit(1);
  }
  E2eTiming t;
  t.events = report.ingested;
  t.seconds = seconds;
  t.events_per_sec = seconds > 0.0 ? double(t.events) / seconds : 0.0;
  t.fingerprint = report.result_fingerprint;
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = bench::smoke();
  std::string out_path = "BENCH_serve.json";
  int days = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--days") == 0 && i + 1 < argc) {
      days = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--out PATH] [--days N]\n",
                   argv[0]);
      return 2;
    }
  }
  if (days <= 0) days = smoke ? 1 : 4;
  const std::uint64_t codec_events = smoke ? 200000 : 1000000;
  const std::uint64_t spsc_events = smoke ? 500000 : 5000000;

  const CodecTiming codec = run_codec(codec_events);
  std::printf("codec: %llu events, format %.3g/s, parse %.3g/s\n",
              (unsigned long long)codec.events, codec.format_per_sec,
              codec.parse_per_sec);

  const double spsc_per_sec = run_spsc_hammer(spsc_events);
  std::printf("spsc: %llu events, %.3g/s\n",
              (unsigned long long)spsc_events, spsc_per_sec);

  const E2eTiming e2e = run_e2e(days);
  std::printf("e2e: %llu events in %.3fs, %.3g events/s, fp %llx\n",
              (unsigned long long)e2e.events, e2e.seconds,
              e2e.events_per_sec, (unsigned long long)e2e.fingerprint);

  gs::bench::JsonWriter json;
  json.add("bench", std::string("perf_serve"));
  json.add("smoke", smoke);
  json.add("days", std::uint64_t(days));
  json.add("codec_events", codec.events);
  json.add("codec_format_per_sec", codec.format_per_sec);
  json.add("codec_parse_per_sec", codec.parse_per_sec);
  json.add("spsc_events", spsc_events);
  json.add("spsc_events_per_sec", spsc_per_sec);
  json.add("e2e_events", e2e.events);
  json.add("e2e_seconds", e2e.seconds);
  json.add("e2e_events_per_sec", e2e.events_per_sec);
  json.add("e2e_fingerprint_hex", [&] {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%llx",
                  (unsigned long long)e2e.fingerprint);
    return std::string(buf);
  }());
  json.add("min_e2e_events_per_sec", kMinE2eEventsPerSec);
  const bool pass = e2e.events_per_sec >= kMinE2eEventsPerSec;
  json.add("pass", pass);
  if (!json.write(out_path)) {
    std::fprintf(stderr, "perf_serve: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  if (!pass) {
    std::fprintf(stderr,
                 "perf_serve: FAIL e2e %.3g events/s < required %.3g\n",
                 e2e.events_per_sec, kMinE2eEventsPerSec);
    return 1;
  }
  return 0;
}
