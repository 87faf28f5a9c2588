// gs_bench: one benchmark for the three ways the reproduction runs the
// GreenSprint controller — sweep cells, day campaigns and the live daemon.
//
//   gs_bench --workload sweep|day_clean|day_storm|daemon_feed
//            [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//            [--trace-out PATH] [--commit ID] [--corrupt-reference]
//   gs_bench --all [...]          every workload, each in its own process
//
// Prints a table (unit, median, quartiles, tail percentile and sample
// count per metric) and, as the last line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones. Exits 1 when any output check fails, 2 on bad usage.
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "bench.hpp"

#ifndef GS_BENCH_BUILD_TYPE
#define GS_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace gs::bench;

const std::vector<std::string> kWorkloads = {"sweep", "day_clean",
                                             "day_storm", "daemon_feed"};

/// Spans the traced run can hold; enough for every replay plus the traced
/// e2e pass (the largest single source is one span per day-campaign step).
constexpr std::size_t kSpanCapacity = std::size_t(1) << 20;

/// Epoch and event caps for replays on the 560-day daemon campaign.
constexpr std::size_t kMaxReplayEpochs = 3 * 1440;
constexpr std::size_t kMaxTsdbEpochs = 14 * 1440;
constexpr std::size_t kMaxFeedEvents = 200000;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME | --all  [--seed N] [--seconds S] "
               "[--trace 0|1]\n"
               "          [--smoke] [--trace-out PATH (one workload)] "
               "[--commit ID] [--corrupt-reference]\n"
               "workloads: sweep day_clean day_storm daemon_feed\n",
               argv0);
  return 2;
}

Report e2e(const Options& o, const Budget& b, DaemonLayers* layers) {
  if (o.workload == "sweep") return sweep_e2e(o, b);
  if (o.workload == "day_clean") return day_e2e(o, b, false);
  if (o.workload == "day_storm") return day_e2e(o, b, true);
  return daemon_e2e(o, b.seconds, layers);
}

void print_metrics(const Report& r) {
  std::printf("\n%-28s %-9s %14s %14s %14s %14s %14s %6s\n", "metric", "unit",
              "value", "median", "q1", "q3", "tail", "n");
  for (const Metric& m : r.metrics) {
    const Samples& s = m.samples;
    if (s.empty()) {
      std::printf("%-28s %-9s %14.6g\n", m.name.c_str(), m.unit.c_str(),
                  m.value);
      continue;
    }
    char tail[32];
    std::snprintf(tail, sizeof tail, "%.4g@p%.1f", s.tail(),
                  100.0 * s.tail_level());
    std::printf("%-28s %-9s %14.6g %14.6g %14.6g %14.6g %14s %6zu\n",
                m.name.c_str(), m.unit.c_str(), m.value, s.median(),
                s.quantile(0.25), s.quantile(0.75), tail, s.n());
  }
  for (const std::string& n : r.notes) std::printf("note: %s\n", n.c_str());
  for (const std::string& e : r.errors) std::printf("FAIL: %s\n", e.c_str());
}

/// The result line. Non-finite values cannot be written as JSON numbers;
/// they fail the run instead.
void print_json(Report& r) {
  for (const Metric& m : r.metrics) {
    if (!std::isfinite(m.value)) r.fail(m.name + " is not finite");
  }
  // A failed check that is not an operation still counts as one failure.
  const std::uint64_t failed =
      r.correct() ? 0 : std::max<std::uint64_t>(r.failed, 1);
  std::string out = "{\"correct\": ";
  out += r.correct() ? "true" : "false";
  out += ", \"attempted\": " +
         std::to_string(std::max<std::uint64_t>(r.attempted, failed));
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    char num[64];
    std::snprintf(num, sizeof num, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + num +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

void print_overhead(const Report& untraced, const Report& traced) {
  std::printf("\ntracing overhead (traced pass vs untraced pass):\n");
  for (const Metric& t : traced.metrics) {
    const Metric* u = untraced.find(t.name);
    if (u == nullptr || u->value == 0.0) continue;
    std::printf("  %-18s %+7.2f%%  (%.6g -> %.6g %s)\n", t.name.c_str(),
                100.0 * (t.value / u->value - 1.0), u->value, t.value,
                t.unit.c_str());
  }
}

/// Per-layer replays. Each layer runs on this workload's own inputs where
/// it has them, otherwise on those of the workload that exercises it.
void run_layers(const Options& o, double seconds, Report& r,
                DaemonLayers* own_daemon) {
  const bool daemon = o.workload == "daemon_feed";
  const bool day = o.workload == "day_clean" || o.workload == "day_storm";
  const auto grid = sweep_grid(o.seed);
  const gs::sim::DayRunConfig day_cfg =
      daemon ? daemon_day_config(o.seed, seconds)
             : day_config(o.seed, o.workload != "day_clean");
  const gs::sim::DayRunConfig feed_cfg =
      o.workload == "sweep" ? daemon_day_config(o.seed, 1.0) : day_cfg;

  sweep_layers(grid, sweep_threads(), r);

  std::vector<gs::trace::SolarTraceConfig> solar;
  if (day || daemon) {
    gs::trace::SolarTraceConfig c;
    c.seed = day_cfg.solar_seed;
    c.days = day_cfg.days;
    solar.push_back(c);
  } else {
    std::set<std::uint64_t> seeds;
    for (const auto& sc : grid) {
      if (seeds.insert(sc.seed).second) {
        gs::trace::SolarTraceConfig c;
        c.seed = sc.seed;
        solar.push_back(c);
      }
    }
  }
  solar_layers(solar, r);

  day_layers(day_cfg, kMaxReplayEpochs, r);
  feed_layers(feed_cfg, kMaxFeedEvents, r);
  tsdb_layers(day_cfg, kMaxTsdbEpochs, r);

  DaemonLayers probe;
  if (own_daemon == nullptr) {
    Options small = o;
    small.corrupt_reference = false;
    r.absorb_checks(daemon_e2e(small, 1.0, &probe));
  }
  daemon_layer_metrics(own_daemon != nullptr ? *own_daemon : probe, r);
}

int run_one(const Options& o, const std::string& commit) {
  Budget b;
  b.seconds = o.seconds;
  if (o.smoke) {
    b.warmup = 1;
    b.min_units = 3;
  }
  std::printf("gs_bench workload=%s seed=%llu seconds=%g trace=%d smoke=%d\n",
              o.workload.c_str(), (unsigned long long)o.seed, o.seconds,
              o.trace ? 1 : 0, o.smoke ? 1 : 0);
  std::printf("machine: cpu=\"%s\" nproc=%zu threads=%zu build=%s commit=%s\n",
              cpu_model().c_str(), nproc(), sweep_threads(),
              GS_BENCH_BUILD_TYPE, commit.c_str());
  std::fflush(stdout);

  if (!o.trace) {
    Report r = e2e(o, b, nullptr);
    r.add("peak_rss_mb", "MB", peak_rss_mb());
    print_metrics(r);
    print_json(r);
    return r.correct() ? 0 : 1;
  }

  // Traced run: half the budget untraced, half traced (the difference is
  // the tracing overhead), then the per-layer replays.
  Tracer& tracer = Tracer::instance();
  tracer.enable(kSpanCapacity);
  Budget half = b;
  half.seconds = b.seconds / 2.0;
  half.min_units = std::max(1, b.min_units / 2);
  tracer.set_recording(false);
  const Report untraced = e2e(o, half, nullptr);
  tracer.set_recording(true);
  DaemonLayers own;
  const bool daemon = o.workload == "daemon_feed";
  const Report traced = e2e(o, half, daemon ? &own : nullptr);
  print_overhead(untraced, traced);

  Report layers;
  layers.absorb_checks(untraced);
  layers.absorb_checks(traced);
  run_layers(o, half.seconds, layers, daemon ? &own : nullptr);
  tracer.set_recording(false);

  std::string why;
  layers.check(tracer.check_nesting(&why), "trace spans do not nest: " + why);
  tracer.print_self_times();
  const std::string path = o.trace_out.empty()
                               ? "gs_bench_trace_" + o.workload + ".json"
                               : o.trace_out;
  layers.check(tracer.write_chrome_json(path), "cannot write " + path);
  std::printf("trace: %s\n", path.c_str());
  print_metrics(layers);
  print_json(layers);
  return layers.correct() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // A daemon that dies mid-feed must surface as a failed write, not kill
  // the benchmark.
  std::signal(SIGPIPE, SIG_IGN);
  Options o;
  bool all = false;
  bool seconds_given = false;
  std::string commit = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (a == "--all") {
      all = true;
    } else if (a == "--seed" && has_value) {
      char* end = nullptr;
      o.seed = std::strtoull(argv[++i], &end, 10);
      if (*end != '\0' || o.seed == 0) return usage(argv[0]);
    } else if (a == "--seconds" && has_value) {
      o.seconds = std::atof(argv[++i]);
      seconds_given = true;
      if (!(o.seconds > 0.0 && o.seconds <= 600.0)) return usage(argv[0]);
    } else if (a == "--trace" && has_value) {
      const std::string v = argv[++i];
      if (v != "0" && v != "1") return usage(argv[0]);
      o.trace = v == "1";
    } else if (a == "--smoke") {
      o.smoke = true;
    } else if (a == "--trace-out" && has_value) {
      o.trace_out = argv[++i];
    } else if (a == "--commit" && has_value) {
      commit = argv[++i];
    } else if (a == "--corrupt-reference") {
      o.corrupt_reference = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (o.smoke && !seconds_given) o.seconds = 1.0;
  // Each workload of --all writes its own gs_bench_trace_<workload>.json.
  if (all && !o.trace_out.empty()) return usage(argv[0]);

  if (!all) {
    bool known = false;
    for (const std::string& w : kWorkloads) known = known || w == o.workload;
    if (!known) return usage(argv[0]);
    return run_one(o, commit);
  }

  // Each workload in a forked child, so peak RSS is its own.
  int worst = 0;
  for (const std::string& w : kWorkloads) {
    std::fflush(stdout);
    const pid_t pid = ::fork();
    if (pid < 0) return 1;
    if (pid == 0) {
      Options child = o;
      child.workload = w;
      const int rc = run_one(child, commit);
      std::fflush(stdout);
      std::_Exit(rc);
    }
    int status = 0;
    ::waitpid(pid, &status, 0);
    const int rc = WIFEXITED(status) ? WEXITSTATUS(status) : 1;
    if (rc != 0) {
      std::printf("gs_bench: workload %s failed (exit %d)\n", w.c_str(), rc);
    }
    worst = std::max(worst, rc);
  }
  return worst;
}
