// Per-layer replays for the traced run. Each replay calls one src/ module's
// public API on inputs taken from a workload and records a span around every
// call (or every batch of 1024 calls when one call is shorter than ~1 us);
// the per-layer metrics are medians over those spans.
#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "common/thread_pool.hpp"
#include "core/hybrid.hpp"
#include "core/profile_table.hpp"
#include "faults/fault_injector.hpp"
#include "power/battery_bank.hpp"
#include "power/pss.hpp"
#include "power/solar_array.hpp"
#include "serve/protocol.hpp"
#include "serve/spsc_queue.hpp"
#include "sim/burst_runner.hpp"
#include "sim/green_cluster.hpp"
#include "sim/sweep.hpp"
#include "sim/tsdb_sink.hpp"
#include "trace/solar.hpp"
#include "tsdb/engine.hpp"

namespace gs::bench {

namespace {

constexpr std::size_t kBatch = 1024;
constexpr double kNsPerUs = 1e3;
constexpr double kNsPerMs = 1e6;

/// Keep a computed value alive so the timed call is not optimised away.
template <typename T>
void keep(const T& v) {
  asm volatile("" : : "g"(&v) : "memory");
}

/// Call fn(i) for i in [0, n) under spans of `batch` calls each.
template <typename F>
void batched(const char* span, std::size_t n, std::size_t batch, F&& fn) {
  for (std::size_t i = 0; i < n;) {
    const std::size_t end = std::min(n, i + batch);
    ScopedSpan s(span, std::uint32_t(i / batch));
    s.set_count(std::uint32_t(end - i));
    for (; i < end; ++i) fn(i);
  }
}

/// The first `max_epochs` planned epochs of a day campaign.
std::vector<sim::LiveEpoch> planned(const sim::DayRunConfig& cfg,
                                    std::size_t max_epochs) {
  std::vector<sim::LiveEpoch> plan = sim::day_feed_plan(cfg);
  plan.resize(std::min(plan.size(), max_epochs));
  return plan;
}

bool same(const sim::ClusterEpoch& a, const sim::ClusterEpoch& b) {
  return a.settings == b.settings && a.total_goodput == b.total_goodput &&
         a.total_demand.value() == b.total_demand.value() &&
         a.re_used.value() == b.re_used.value() &&
         a.batt_used.value() == b.batt_used.value() &&
         a.grid_used.value() == b.grid_used.value() &&
         a.servers_sprinting == b.servers_sprinting;
}

void hybrid_and_pss_layers(const workload::AppDescriptor& app,
                           const std::vector<sim::EpochRecord>& recs,
                           Report& r) {
  if (recs.size() < 2) {
    r.fail("sweep produced no Hybrid epoch records to replay");
    return;
  }
  const workload::PerfModel perf(app);
  const server::ServerPowerModel pmodel(Watts(76.0));
  const auto profile = core::ProfileTable::shared(perf, pmodel);
  core::HybridStrategy hybrid(*profile, app, pmodel.idle_power());
  hybrid.seed_from_profile();

  std::vector<core::EpochContext> ctx;
  for (const sim::EpochRecord& e : recs) {
    core::EpochContext c;
    c.predicted_load = e.offered_load;
    c.supply = e.re_available + e.batt_used;
    ctx.push_back(c);
  }
  const std::size_t calls = 32 * kBatch;
  batched("core.HybridStrategy::decide", calls, kBatch, [&](std::size_t i) {
    keep(hybrid.decide(ctx[i % ctx.size()]));
  });
  batched("core.HybridStrategy::feedback", calls, kBatch,
          [&](std::size_t i) {
            const std::size_t k = i % (recs.size() - 1);
            core::EpochFeedback fb;
            fb.context = ctx[k];
            fb.action = recs[k].setting;
            fb.power_demand = recs[k].demand;
            fb.actual_supply = recs[k].re_used + recs[k].batt_used;
            fb.achieved_latency = recs[k].latency;
            fb.observed_load = recs[k].offered_load;
            fb.next_context = ctx[k + 1];
            hybrid.feedback(fb);
          });
  add_span_metric(r, "core.hybrid_decide_ns", "ns",
                  "core.HybridStrategy::decide", 1.0);
  add_span_metric(r, "core.hybrid_feedback_ns", "ns",
                  "core.HybridStrategy::feedback", 1.0);

  // PSS settlement of the recorded demand and renewable supply, once on a
  // scalar Battery and once through BatteryRef on a 16-element bank. Each
  // batch starts from full batteries and a fresh grid.
  const power::PowerSourceSelector pss;
  power::BatteryConfig bc;
  bc.capacity = sim::re_sbatt().battery;
  power::GridConfig gc;
  gc.budget = app.normal_full_power + Watts(80.0);
  const Seconds dt(60.0);
  for (std::size_t b = 0; b < 32; ++b) {
    power::Battery batt(bc);
    power::Grid grid(gc);
    ScopedSpan s("power.PowerSourceSelector::settle.Battery", std::uint32_t(b));
    s.set_count(kBatch);
    for (std::size_t i = 0; i < kBatch; ++i) {
      const sim::EpochRecord& e = recs[(b * kBatch + i) % recs.size()];
      keep(pss.settle(e.demand, e.re_available, batt, grid, dt, true));
    }
  }
  for (std::size_t b = 0; b < 32; ++b) {
    power::BatteryBank bank(bc, 16);
    power::Grid grid(gc);
    ScopedSpan s("power.PowerSourceSelector::settle.BatteryRef",
                 std::uint32_t(b));
    s.set_count(kBatch);
    for (std::size_t i = 0; i < kBatch; ++i) {
      const sim::EpochRecord& e = recs[(b * kBatch + i) % recs.size()];
      keep(pss.settle(e.demand, e.re_available,
                      power::BatteryRef(bank, i % bank.size()), grid, dt,
                      true));
    }
  }
  add_span_metric(r, "power.pss_settle_ns", "ns",
                  "power.PowerSourceSelector::settle.Battery", 1.0);
  add_span_metric(r, "power.bank_settle_ns", "ns",
                  "power.PowerSourceSelector::settle.BatteryRef", 1.0);
}

}  // namespace

void sweep_layers(const std::vector<sim::Scenario>& grid, std::size_t threads,
                  Report& r) {
  // Cache build waste: misses of a threaded cold run over those of a
  // single-thread cold run (1.0 = no key is built twice).
  clear_substrate_caches();
  {
    ScopedSpan s("sim.run_sweep.cold1");
    keep(sim::run_sweep(grid, 1));
  }
  const double serial_misses = double(substrate_cache_misses());
  Samples misses;
  for (std::uint32_t rep = 0; rep < 5; ++rep) {
    clear_substrate_caches();
    ScopedSpan s("sim.run_sweep.cold", rep);
    keep(sim::run_sweep(grid, threads));
    misses.add(double(substrate_cache_misses()));
  }
  r.add("common.cache_build_waste", "ratio",
        misses.median() / serial_misses,
        misses.map([serial_misses](double v) { return v / serial_misses; }));
  r.add_median("common.cache_misses", "count", std::move(misses));

  // Substrate builds, per distinct app.
  std::vector<workload::AppDescriptor> apps;
  std::set<std::string> seen;
  for (const sim::Scenario& sc : grid) {
    if (seen.insert(sc.app.name).second) apps.push_back(sc.app);
  }
  const server::ServerPowerModel pmodel(Watts(76.0));
  for (std::uint32_t rep = 0; rep < 3; ++rep) {
    for (const workload::AppDescriptor& app : apps) {
      const workload::PerfModel perf(app);
      std::optional<core::ProfileTable> profile;
      {
        ScopedSpan s("core.ProfileTable::ProfileTable", rep);
        profile.emplace(perf, pmodel);
      }
      core::HybridStrategy::clear_seed_cache();
      ScopedSpan s("core.HybridStrategy+seed_from_profile", rep);
      core::HybridStrategy h(*profile, app, pmodel.idle_power());
      h.seed_from_profile();
    }
  }
  add_span_metric(r, "core.profile_build_ms", "ms",
                  "core.ProfileTable::ProfileTable", kNsPerMs);
  add_span_metric(r, "core.hybrid_seed_ms", "ms",
                  "core.HybridStrategy+seed_from_profile", kNsPerMs);

  for (std::uint32_t rep = 0; rep < 20; ++rep) {
    ScopedSpan s("common.ThreadPool", rep);
    ThreadPool pool(threads);
  }
  add_span_metric(r, "common.pool_spawn_us", "us", "common.ThreadPool",
                  kNsPerUs);

  // Warm BurstSim construction and stepping on one thread; the Hybrid
  // cells of the first app also supply the decide/settle replay inputs.
  clear_substrate_caches();
  keep(sim::run_sweep(grid, threads));
  std::vector<sim::EpochRecord> hybrid_recs;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    std::optional<sim::BurstSim> b;
    {
      ScopedSpan s("sim.BurstSim::BurstSim", std::uint32_t(i));
      b.emplace(grid[i]);
    }
    {
      ScopedSpan s("sim.BurstSim::step", std::uint32_t(i));
      s.set_count(std::uint32_t(b->num_epochs()));
      while (!b->done()) b->step();
    }
    const sim::BurstResult res = b->finish();
    if (grid[i].strategy == core::StrategyKind::Hybrid &&
        grid[i].app.name == apps.front().name) {
      hybrid_recs.insert(hybrid_recs.end(), res.epochs.begin(),
                         res.epochs.end());
    }
  }
  add_span_metric(r, "sim.burst_ctor_us", "us", "sim.BurstSim::BurstSim",
                  kNsPerUs);
  add_span_metric(r, "sim.burst_step_ns", "ns", "sim.BurstSim::step", 1.0);
  hybrid_and_pss_layers(apps.front(), hybrid_recs, r);
}

void solar_layers(const std::vector<trace::SolarTraceConfig>& configs,
                  Report& r) {
  for (std::uint32_t rep = 0; rep < 3; ++rep) {
    for (const trace::SolarTraceConfig& c : configs) {
      ScopedSpan s("trace.generate_solar_trace", rep);
      keep(trace::generate_solar_trace(c));
    }
  }
  add_span_metric(r, "trace.solar_build_ms", "ms",
                  "trace.generate_solar_trace", kNsPerMs);
}

void day_layers(const sim::DayRunConfig& cfg, std::size_t max_epochs,
                Report& r) {
  for (std::uint32_t rep = 0; rep < 5; ++rep) {
    clear_substrate_caches();
    ScopedSpan s("sim.DaySim::DaySim", rep);
    const sim::DaySim d(cfg);
  }
  add_span_metric(r, "sim.day_ctor_ms", "ms", "sim.DaySim::DaySim", kNsPerMs);

  {
    sim::DaySim d(cfg);
    for (std::uint32_t n = 0; !d.done() && n < max_epochs; ++n) {
      const bool burst = d.planned_epoch(d.now()).in_burst;
      ScopedSpan s(burst ? "sim.DaySim::step.burst" : "sim.DaySim::step.idle",
                   n);
      d.step();
    }
  }
  add_span_metric(r, "sim.day_step_burst_us", "us", "sim.DaySim::step.burst",
                  kNsPerUs);
  add_span_metric(r, "sim.day_step_idle_us", "us", "sim.DaySim::step.idle",
                  kNsPerUs);

  // The SoA kernel and the reference loop on the same fault-free burst
  // inputs; they must agree bit for bit.
  const std::vector<sim::LiveEpoch> plan = planned(cfg, max_epochs);
  const power::SolarArray array({cfg.panels, Watts(275.0), 0.77});
  sim::GreenCluster fast(workload::specjbb(), cfg.cluster);
  sim::GreenCluster ref(workload::specjbb(), cfg.cluster);
  std::vector<double> lambdas(std::size_t(cfg.cluster.servers));
  std::uint32_t n = 0;
  for (const sim::LiveEpoch& e : plan) {
    if (!e.in_burst) continue;
    const Watts re = array.ac_output(e.irradiance);
    std::fill(lambdas.begin(), lambdas.end(), e.lambda);
    sim::ClusterEpoch a, b;
    {
      ScopedSpan s("sim.GreenCluster::step_hetero", n);
      a = fast.step_hetero(re, lambdas, true);
    }
    {
      ScopedSpan s("sim.GreenCluster::step_hetero_reference", n);
      b = ref.step_hetero_reference(re, lambdas, true);
    }
    r.check(same(a, b), "SoA kernel and reference loop disagree at burst "
                        "epoch " + std::to_string(n));
    ++n;
  }
  add_span_metric(r, "sim.cluster_step_fast_us", "us",
                  "sim.GreenCluster::step_hetero", kNsPerUs);
  add_span_metric(r, "sim.cluster_step_ref_us", "us",
                  "sim.GreenCluster::step_hetero_reference", kNsPerUs);

  const Seconds horizon(double(cfg.days) * 86400.0);
  const faults::FaultInjector inj(cfg.faults, horizon, cfg.cluster.epoch,
                                  cfg.cluster.servers);
  std::size_t faulted = 0;
  batched("faults.FaultInjector::at", plan.size(), inj.enabled() ? 1 : kBatch,
          [&](std::size_t i) {
            faulted += inj.at(cfg.cluster.epoch * double(i)).any() ? 1 : 0;
          });
  add_span_metric(r, "faults.injector_at_us", "us", "faults.FaultInjector::at",
                  kNsPerUs);
  r.add("faults.schedule_events", "count",
        double(inj.schedule().events().size()));
  r.add("faults.faulted_epoch_share", "fraction",
        double(faulted) / double(std::max<std::size_t>(plan.size(), 1)));
}

void feed_layers(const sim::DayRunConfig& cfg, std::size_t max_events,
                 Report& r) {
  const std::vector<sim::LiveEpoch> plan = planned(cfg, max_events);
  const std::size_t n = plan.size();
  const auto event = [&](std::size_t i) { return feed_event(i, plan[i]); };

  std::string wire;
  wire.reserve(n * 48);
  batched("serve.format_feed+encode_frame", n, kBatch, [&](std::size_t i) {
    wire += serve::encode_frame(serve::format_feed(event(i)));
  });

  // Decode in the daemon's 16 KiB read-buffer chunks.
  serve::FrameDecoder dec;
  std::string payload;
  std::size_t parsed = 0, wrong = 0;
  for (std::size_t off = 0; off < wire.size(); off += 16384) {
    ScopedSpan s("serve.FrameDecoder+parse_request",
                 std::uint32_t(off / 16384));
    dec.feed(std::string_view(wire).substr(off, 16384));
    std::uint32_t count = 0;
    while (dec.next(payload)) {
      const serve::ParseOutcome out = serve::parse_request(payload);
      const serve::FeedEvent want = event(std::min(parsed, n - 1));
      if (!out.request || out.request->kind != serve::Request::Kind::Feed ||
          out.request->feed.seq != want.seq ||
          out.request->feed.lambda != want.lambda ||
          out.request->feed.irradiance != want.irradiance ||
          out.request->feed.burst != want.burst) {
        ++wrong;
      }
      ++parsed;
      ++count;
    }
    s.set_count(std::max<std::uint32_t>(count, 1));
  }
  r.check(parsed == n && wrong == 0,
          "feed codec round trip: " + std::to_string(parsed) + " of " +
              std::to_string(n) + " parsed, " + std::to_string(wrong) +
              " differ");
  add_span_metric(r, "serve.format_ns", "ns", "serve.format_feed+encode_frame",
                  1.0);
  add_span_metric(r, "serve.parse_ns", "ns",
                  "serve.FrameDecoder+parse_request", 1.0);

  // The feed ring at the daemon's capacity, producer and consumer on two
  // threads; the span covers the consumer's whole transfer.
  for (std::uint32_t rep = 0; rep < 3; ++rep) {
    serve::SpscQueue<serve::FeedEvent> q(std::size_t(1) << 14);
    std::thread producer([&] {
      for (std::size_t i = 0; i < n; ++i) {
        const serve::FeedEvent ev = event(i);
        while (!q.push(ev)) {
        }
      }
    });
    std::size_t in_order = 0;
    {
      ScopedSpan s("serve.SpscQueue", rep);
      s.set_count(std::uint32_t(n));
      serve::FeedEvent ev;
      for (std::size_t got = 0; got < n;) {
        if (!q.pop(ev)) continue;
        in_order += ev.seq == got ? 1 : 0;
        ++got;
      }
    }
    producer.join();
    r.check(in_order == n, "SpscQueue reordered or lost events");
  }
  add_span_metric(r, "serve.spsc_ns", "ns", "serve.SpscQueue", 1.0);

  sim::DaySim live(cfg);
  batched("sim.DaySim::step_live", n, kBatch,
          [&](std::size_t i) { live.step_live(plan[i]); });
  add_span_metric(r, "serve.step_live_us", "us", "sim.DaySim::step_live",
                  kNsPerUs);
}

void tsdb_layers(const sim::DayRunConfig& cfg, std::size_t max_epochs,
                 Report& r) {
  // Capture the campaign's cluster series, then replay the appends into
  // fresh MEMORY engines and cursor them back.
  tsdb::Engine capture{tsdb::EngineOptions{}};
  {
    sim::DaySim d(cfg);
    d.attach_tsdb(&capture, 0);
    for (std::size_t e = 0; !d.done() && e < max_epochs; ++e) d.step();
  }
  const std::size_t m = sim::kNumTsdbClusterMetrics;
  std::vector<std::vector<tsdb::Sample>> series(m);
  for (std::size_t k = 0; k < m; ++k) {
    tsdb::Cursor cur = capture.query(sim::kTsdbClusterMetrics[k], 0);
    tsdb::CursorRow row;
    while (cur.next(row)) series[k].push_back(row.sample);
  }
  const std::size_t rows = series[0].size();
  if (rows == 0) {
    r.fail("campaign recorded no cluster telemetry");
    return;
  }
  for (std::uint32_t rep = 0; rep < 5; ++rep) {
    tsdb::Engine eng{tsdb::EngineOptions{}};
    std::vector<tsdb::SeriesId> ids;
    for (std::size_t k = 0; k < m; ++k) {
      ids.push_back(eng.series(sim::kTsdbClusterMetrics[k], 0,
                               sim::kTsdbAggregateServer));
    }
    batched("tsdb.Engine::append", rows * m, kBatch, [&](std::size_t i) {
      const tsdb::Sample& s = series[i % m][i / m];
      eng.append_at(ids[i % m], s.time, s.value);
    });
    for (std::size_t k = 0; k < m; ++k) {
      ScopedSpan s("tsdb.Engine::query", rep);
      s.set_count(std::uint32_t(rows));
      tsdb::Cursor cur = eng.query(sim::kTsdbClusterMetrics[k], 0);
      tsdb::CursorRow row;
      std::size_t got = 0, equal = 0;
      while (cur.next(row)) {
        equal += got < rows && row.sample == series[k][got] ? 1 : 0;
        ++got;
      }
      r.check(got == rows && equal == rows,
              std::string("tsdb replay of ") + sim::kTsdbClusterMetrics[k] +
                  " read back differently");
    }
  }
  add_span_metric(r, "tsdb.append_ns", "ns", "tsdb.Engine::append", 1.0);
  r.add_median("tsdb.query_rows_per_s", "1/s",
               Tracer::instance().per_call_ns("tsdb.Engine::query").map(
                   [](double ns) { return 1e9 / ns; }));
}

void daemon_layer_metrics(const DaemonLayers& d, Report& r) {
  r.add_median("serve.hello_rtt_us", "us", d.hello_rtt_us);
  r.add_median("serve.stat_rtt_us", "us", d.stat_rtt_us);
  r.add_median("serve.query_rtt_us", "us", d.query_rtt_us);
  r.add("serve.queue_depth_max.low", "count", d.queue_depth_max_low);
  r.add("serve.queue_depth_max.high", "count", d.queue_depth_max_high);
  r.add("load.gen_late_p99_us.low", "us", d.gen_late_p99_us_low);
  r.add("load.gen_late_p99_us.high", "us", d.gen_late_p99_us_high);
  r.add("load.commit_p50_us.low", "us", d.commit_low_us.median(),
        d.commit_low_us);
  r.add("load.commit_p99_us.low", "us", d.commit_low_us.quantile(0.99),
        d.commit_low_us);
  add_span_metric(r, "ckpt.save_ms", "ms", "serve.ServeDaemon::save_state",
                  kNsPerMs);
  r.add("ckpt.bytes", "B", d.ckpt_bytes);
  add_span_metric(r, "ckpt.read_ms", "ms", "ckpt.read_snapshot_file",
                  kNsPerMs);
  add_span_metric(r, "ckpt.resume_ms", "ms",
                  "serve.ServeDaemon::ServeDaemon.resume", kNsPerMs);
}

}  // namespace gs::bench
