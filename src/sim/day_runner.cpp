#include "sim/day_runner.hpp"

#include <algorithm>
#include <cmath>

#include "ckpt/state_io.hpp"
#include "common/assert.hpp"
#include "common/keyed_cache.hpp"
#include "sim/tsdb_sink.hpp"

namespace gs::sim {

std::vector<trace::BurstPattern> default_daily_bursts() {
  using gs::Seconds;
  return {
      {Seconds(9.0 * 3600.0), Seconds(1200.0), 1.0},
      {Seconds(13.5 * 3600.0), Seconds(1800.0), 1.0},
      {Seconds(19.5 * 3600.0), Seconds(900.0), 1.0},
  };
}

std::uint64_t day_run_fingerprint(const DayRunConfig& cfg) {
  std::uint64_t h = 0xda15c0deull;
  h = hash_combine(h, std::uint64_t(cfg.days));
  h = hash_combine(h, std::uint64_t(cfg.cluster.servers));
  h = hash_combine(h, cfg.cluster.battery_per_server.value());
  h = hash_combine(h, std::uint64_t(cfg.cluster.strategy));
  h = hash_combine(h, std::uint64_t(cfg.cluster.allocation));
  h = hash_combine(h, cfg.cluster.epoch.value());
  h = hash_combine(h, std::uint64_t(cfg.cluster.grid_charging));
  h = hash_combine(h, std::uint64_t(cfg.panels));
  h = hash_combine(h, std::uint64_t(cfg.daily_bursts.size()));
  for (const trace::BurstPattern& b : cfg.daily_bursts) {
    h = hash_combine(h, b.start.value());
    h = hash_combine(h, b.duration.value());
    h = hash_combine(h, b.intensity);
  }
  h = hash_combine(h, cfg.diurnal.base_level);
  h = hash_combine(h, cfg.diurnal.swing);
  h = hash_combine(h, cfg.diurnal.peak_hour);
  h = hash_combine(h, cfg.diurnal.noise);
  h = hash_combine(h, cfg.diurnal.seed);
  h = hash_combine(h, cfg.solar_seed);
  h = hash_combine(h, cfg.background_load);
  for (const faults::FaultClass cls : faults::all_fault_classes()) {
    h = hash_combine(h, cfg.faults.intensity(cls));
  }
  h = hash_combine(h, cfg.faults.seed);
  return h;
}

std::uint64_t day_result_fingerprint(const DayRunResult& r) {
  std::uint64_t h = 0xda15f00dull;
  h = hash_combine(h, r.simulated.value());
  h = hash_combine(h, r.sprint_time.value());
  h = hash_combine(h, r.sprint_hours_per_server);
  h = hash_combine(h, r.mean_burst_goodput);
  h = hash_combine(h, r.normal_goodput);
  h = hash_combine(h, r.burst_speedup);
  h = hash_combine(h, r.re_energy.value());
  h = hash_combine(h, r.batt_energy.value());
  h = hash_combine(h, r.grid_energy.value());
  h = hash_combine(h, r.battery_cycles);
  h = hash_combine(h, std::uint64_t(r.bursts_served));
  h = hash_combine(h, std::uint64_t(r.crash_epochs));
  h = hash_combine(h, std::uint64_t(r.degraded_epochs));
  return h;
}

std::vector<LiveEpoch> day_feed_plan(const DayRunConfig& cfg) {
  DaySim sim(cfg);
  std::vector<LiveEpoch> plan;
  const double n = sim.horizon().value() / sim.epoch().value();
  plan.reserve(std::size_t(n) + 1);
  for (Seconds t{0.0}; t < sim.horizon(); t += sim.epoch()) {
    plan.push_back(sim.planned_epoch(t));
  }
  return plan;
}

namespace {

DayRunConfig validated(DayRunConfig cfg) {
  GS_REQUIRE(cfg.days >= 1, "need at least one day");
  return cfg;
}

trace::SolarTraceConfig day_solar_config(const DayRunConfig& cfg) {
  trace::SolarTraceConfig solar_cfg;
  solar_cfg.seed = cfg.solar_seed;
  solar_cfg.days = std::max(cfg.days, 1);
  return solar_cfg;
}

}  // namespace

DaySim::DaySim(const DayRunConfig& cfg)
    : cfg_(validated(cfg)),
      solar_(trace::shared_solar_trace(day_solar_config(cfg_))),
      array_({cfg_.panels, Watts(275.0), 0.77}),
      cluster_(workload::specjbb(), cfg_.cluster),
      lambda_burst_(cluster_.perf().intensity_load(server::kMaxCores)),
      lambda_background_(cfg_.background_load *
                         cluster_.perf().capacity(server::normal_mode())),
      epoch_(cfg_.cluster.epoch),
      horizon_(double(cfg_.days) * 86400.0),
      live_faults_(cfg_.faults),
      injector_(cfg_.faults, horizon_, epoch_, cfg_.cluster.servers) {
  out_.normal_goodput =
      cluster_.perf().goodput(server::normal_mode(), lambda_burst_);
  out_.simulated = horizon_;
}

void DaySim::step() { step_live(planned_epoch(t_)); }

LiveEpoch DaySim::planned_epoch(Seconds t) const {
  const double day_offset = std::fmod(t.value(), 86400.0);
  const bool in_burst = std::any_of(
      cfg_.daily_bursts.begin(), cfg_.daily_bursts.end(),
      [&](const trace::BurstPattern& b) {
        return day_offset >= b.start.value() &&
               day_offset < b.start.value() + b.duration.value();
      });
  return {in_burst ? lambda_burst_ : lambda_background_, solar_->at(t),
          in_burst};
}

void DaySim::step_live(const LiveEpoch& in) {
  GS_REQUIRE(!done(), "step() past the campaign horizon");
  const Seconds t = t_;
  faults::EpochFaults ef;
  const faults::EpochFaults* ef_ptr = nullptr;
  Watts re_total = array_.ac_output(in.irradiance);
  if (injector_.enabled()) {
    ef = injector_.at(t);
    ef_ptr = &ef;
    re_total = re_total * ef.solar_factor;
  }
  if (in.in_burst) {
    if (!in_burst_prev_) ++out_.bursts_served;
    const auto ep = cluster_.step(re_total, in.lambda, true, ef_ptr);
    burst_goodput_sum_ += ep.total_goodput / double(cluster_.servers());
    ++burst_epochs_;
    out_.sprint_time += epoch_ * double(ep.servers_sprinting);
    out_.re_energy += ep.re_used * epoch_;
    out_.batt_energy += ep.batt_used * epoch_;
    out_.grid_energy += ep.grid_used * epoch_;
    out_.crash_epochs += std::size_t(ep.servers_crashed);
    out_.degraded_epochs += std::size_t(ep.servers_degraded);
    if (tsdb_ != nullptr) {
      record_cluster_epoch(*tsdb_, tsdb_rack_, t.value(), ep);
    }
  } else {
    cluster_.idle_step(re_total, in.lambda, ef_ptr);
  }
  in_burst_prev_ = in.in_burst;
  t_ += epoch_;
}

void DaySim::set_faults(const faults::FaultSpec& spec) {
  bool same = spec.seed == live_faults_.seed;
  for (const faults::FaultClass cls : faults::all_fault_classes()) {
    same = same && spec.intensity(cls) == live_faults_.intensity(cls);
  }
  if (same) return;
  live_faults_ = spec;
  injector_ =
      faults::FaultInjector(spec, horizon_, epoch_, cfg_.cluster.servers);
}

DayRunResult DaySim::finish() {
  GS_REQUIRE(done(), "finish() before the campaign completed");
  if (burst_epochs_ > 0) {
    out_.mean_burst_goodput = burst_goodput_sum_ / double(burst_epochs_);
    out_.burst_speedup = out_.mean_burst_goodput / out_.normal_goodput;
  }
  out_.sprint_hours_per_server =
      out_.sprint_time.value() / 3600.0 / double(cluster_.servers());
  out_.battery_cycles = cluster_.total_equivalent_cycles();
  return out_;
}

void DaySim::save_state(ckpt::StateWriter& w) const {
  w.begin_section("day_sim", kStateVersion);
  w.u64(day_run_fingerprint(cfg_));
  w.f64(t_.value());
  w.boolean(in_burst_prev_);
  w.f64(burst_goodput_sum_);
  w.u64(burst_epochs_);
  w.f64(out_.sprint_time.value());
  w.f64(out_.re_energy.value());
  w.f64(out_.batt_energy.value());
  w.f64(out_.grid_energy.value());
  w.i64(out_.bursts_served);
  w.u64(out_.crash_epochs);
  w.u64(out_.degraded_epochs);
  // v2: live overrides, restored before the cluster state so the
  // controllers are rebuilt for the right strategy kind first.
  w.u8(std::uint8_t(cluster_.config().strategy));
  for (const faults::FaultClass cls : faults::all_fault_classes()) {
    w.f64(live_faults_.intensity(cls));
  }
  w.u64(live_faults_.seed);
  cluster_.save_state(w);
  w.end_section();
}

void DaySim::load_state(ckpt::StateReader& r) {
  r.begin_section("day_sim", kStateVersion);
  if (r.u64() != day_run_fingerprint(cfg_)) {
    throw ckpt::SnapshotError(
        "day snapshot was taken under a different campaign config "
        "(fingerprint mismatch)");
  }
  t_ = Seconds(r.f64());
  in_burst_prev_ = r.boolean();
  burst_goodput_sum_ = r.f64();
  burst_epochs_ = std::size_t(r.u64());
  out_.sprint_time = Seconds(r.f64());
  out_.re_energy = Joules(r.f64());
  out_.batt_energy = Joules(r.f64());
  out_.grid_energy = Joules(r.f64());
  out_.bursts_served = int(r.i64());
  out_.crash_epochs = std::size_t(r.u64());
  out_.degraded_epochs = std::size_t(r.u64());
  const std::uint8_t kind = r.u8();
  if (kind > std::uint8_t(core::StrategyKind::Efficiency)) {
    throw ckpt::SnapshotError("day snapshot holds invalid strategy kind " +
                              std::to_string(int(kind)));
  }
  faults::FaultSpec live;
  for (const faults::FaultClass cls : faults::all_fault_classes()) {
    live.set_intensity(cls, r.f64());
  }
  live.seed = r.u64();
  cluster_.set_strategy(core::StrategyKind(kind));
  set_faults(live);
  cluster_.load_state(r);
  r.end_section();
}

DayRunResult run_days(const DayRunConfig& cfg) {
  DaySim sim(cfg);
  while (!sim.done()) sim.step();
  return sim.finish();
}

double yearly_sprint_hours(const DayRunResult& r) {
  GS_REQUIRE(r.simulated.value() > 0.0, "empty run");
  const double days = r.simulated.value() / 86400.0;
  return r.sprint_hours_per_server * 365.0 / days;
}

}  // namespace gs::sim
