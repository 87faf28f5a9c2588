#include "sim/burst_runner.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "ckpt/state_io.hpp"
#include "common/assert.hpp"
#include "common/stats.hpp"
#include "workload/des.hpp"

namespace gs::sim {

namespace {

Scenario validated(Scenario sc) {
  GS_REQUIRE(sc.green.green_servers > 0, "scenario needs green servers");
  GS_REQUIRE(sc.burst_duration.value() >= sc.epoch.value(),
             "burst must span at least one epoch");
  GS_REQUIRE(!sc.use_des || sc.burst_shape == trace::BurstShape::Plateau,
             "DES mode currently supports plateau bursts only");
  return sc;
}

trace::SolarTraceConfig trace_config(const Scenario& sc) {
  trace::SolarTraceConfig cfg;
  cfg.seed = sc.seed;
  return cfg;
}

Seconds find_window(const Scenario& sc) {
  const auto window = trace::shared_solar_window(
      trace_config(sc), sc.burst_duration, sc.availability);
  GS_REQUIRE(window.has_value(),
             "solar trace has no window of the requested availability");
  return *window;
}

std::optional<power::Battery> make_battery(const Scenario& sc) {
  if (sc.green.battery.value() <= 0.0) return std::nullopt;
  power::BatteryConfig bc;
  bc.capacity = sc.green.battery;
  return power::Battery(bc);
}

power::Grid make_grid(const Scenario& sc) {
  // Per-green-server grid backstop: enough for Normal mode plus battery
  // recharge; the rest of the rack's budget carries the grid servers.
  power::GridConfig cfg;
  cfg.budget = sc.app.normal_full_power + Watts(80.0);
  return power::Grid(cfg);
}

thermal::PcmBuffer make_pcm(const Scenario& sc) {
  thermal::PcmConfig cfg;
  cfg.latent_capacity = Joules(sc.pcm_capacity_j);
  return thermal::PcmBuffer(cfg);
}

core::ControllerConfig controller_config(const Scenario& sc) {
  core::ControllerConfig cfg;
  cfg.strategy = sc.strategy;
  cfg.epoch = sc.epoch;
  cfg.health_aware = sc.health_aware;
  return cfg;
}

// v2 appends the correlated-burst and health-state telemetry.
constexpr std::uint32_t kBurstResultVersion = 2;

}  // namespace

Watts BurstSim::re_share(Seconds t) const {
  return array_.ac_output(solar_->at(t)) / double(sc_.green.green_servers);
}

BurstSim::BurstSim(const Scenario& scenario)
    // Trace, window and profile all come from process-wide memo caches:
    // every sweep cell sharing a (seed, app) substrate reuses one immutable
    // instance, and a cache hit is bit-identical to regenerating (the
    // generators are deterministic in their keys).
    : sc_(validated(scenario)),
      solar_(trace::shared_solar_trace(trace_config(sc_))),
      start_(find_window(sc_)),
      array_({sc_.green.panels, Watts(275.0), 0.77}),
      battery_(make_battery(sc_)),
      dummy_battery_({AmpHours(1e-9)}),
      perf_(sc_.app),
      pmodel_(Watts(76.0)),
      profile_(core::ProfileTable::shared(perf_, pmodel_)),
      controller_(sc_.app, *profile_, pmodel_.idle_power(),
                  controller_config(sc_)),
      grid_(make_grid(sc_)),
      normal_(server::normal_mode()),
      lambda_peak_(perf_.intensity_load(sc_.burst_intensity)),
      lambda_background_(sc_.background_load * perf_.capacity(normal_)),
      n_epochs_(std::size_t(sc_.burst_duration.value() / sc_.epoch.value())),
      des_rng_(Rng::stream(sc_.seed, {0xde5ull})),
      // Fault injection (strictly opt-in): with the default all-zero spec
      // the injector is disabled and every step below follows the exact
      // fault-free arithmetic. Fault times are burst-relative. A disabled
      // CorrelationSpec is the identity, so the default scenario still
      // produces the independent schedule bit-for-bit.
      injector_(sc_.faults, sc_.fault_correlation, sc_.burst_duration,
                sc_.epoch, /*servers=*/1),
      last_sensed_load_(lambda_background_),
      pcm_(make_pcm(sc_)) {
  result_.window_start = start_;
  result_.epochs.reserve(n_epochs_);

  // Warmup: prime the forecasts on the pre-burst trace.
  const Seconds warm_start =
      Seconds(std::max(0.0, (start_ - sc_.warmup).value()));
  for (Seconds t = warm_start; t < start_; t += sc_.epoch) {
    controller_.observe_idle(lambda_background_, re_share(t));
  }
}

void BurstSim::step() {
  GS_REQUIRE(!done(), "step() past the end of the burst");
  const std::size_t e = epoch_;
  const Seconds t = start_ + sc_.epoch * double(e);
  const double progress = (double(e) + 0.5) / double(n_epochs_);
  const double lambda_burst =
      lambda_peak_ * trace::burst_shape_factor(sc_.burst_shape, progress);
  normal_goodput_sum_ += perf_.goodput(normal_, lambda_burst);

  // Fault state for this epoch, applied at the component boundaries
  // before anything is measured or decided.
  faults::EpochFaults ef;
  const Seconds rel_t = sc_.epoch * double(e);
  if (injector_.enabled()) {
    ef = injector_.at(rel_t);
    batt().set_capacity_fade(ef.battery_capacity_factor);
    batt().set_charge_derate(ef.charge_efficiency_factor);
    grid_.set_budget_derate(ef.grid_budget_factor);
    const bool corr_on = injector_.schedule().correlation().enabled();
    for (faults::FaultClass cls : faults::all_fault_classes()) {
      const auto c = std::size_t(cls);
      const bool active = injector_.schedule().active(cls, rel_t);
      if (active) {
        result_.fault_class_downtime[c] += sc_.epoch;
        // Rising edge = one incident of this class (MTTR/MTBF telemetry).
        if (!prev_fault_active_[c]) ++result_.fault_incidents[c];
      }
      prev_fault_active_[c] = active;
      // Same edge detector restricted to Storm/Cascade-origin activity,
      // feeding the correlated-burst telemetry.
      if (corr_on) {
        const bool corr_active =
            injector_.schedule().correlated_active(cls, rel_t);
        if (corr_active && !prev_corr_active_[c]) {
          ++result_.correlated_bursts[c];
        }
        prev_corr_active_[c] = corr_active;
      }
    }
  }

  Watts re_obs = re_share(t);
  if (injector_.enabled()) re_obs = re_obs * ef.solar_factor;

  // Crashed green server: the epoch is a total outage. Rack telemetry
  // keeps flowing and surplus renewable still charges the battery; the
  // reboot re-enters sprinting through the recovery hysteresis.
  if (injector_.enabled() && ef.crashed(0)) {
    controller_.observe_idle(lambda_burst, re_obs);
    const auto settle =
        pss_.settle(Watts(0.0), re_obs, batt(), grid_, sc_.epoch,
                    /*bursting=*/true, Watts(0.0));
    ++result_.crash_epochs;
    ++result_.health_state_epochs[std::size_t(controller_.health())];
    EpochRecord rec;
    rec.time = t;
    rec.setting = normal_;
    rec.power_case = settle.power_case;
    rec.offered_load = lambda_burst;
    rec.re_available = re_obs;
    rec.battery_soc = battery_ ? battery_->state_of_charge() : 0.0;
    rec.faulted = true;
    rec.crashed = true;
    result_.epochs.push_back(rec);
    prev_disturbance_ = true;
    ++epoch_;
    return;
  }

  const Watts batt_capable =
      battery_ ? battery_->max_discharge_power(sc_.epoch) : Watts(0.0);
  const Watts batt_power =
      injector_.enabled() && ef.battery_offline ? Watts(0.0) : batt_capable;

  // Degraded-mode input: last epoch's supply shortfall plus this
  // epoch's telemetry quality. Never invoked on fault-free runs, so the
  // controller stays permanently Healthy there.
  double sensed_load = lambda_burst;
  if (injector_.enabled()) {
    controller_.notify_health(prev_disturbance_, ef.sensor_dropout);
    ++result_.health_state_epochs[std::size_t(controller_.health())];
    sensed_load = ef.sensor_dropout
                      ? last_sensed_load_
                      : lambda_burst * ef.sensor_load_factor;
  }
  if (!(injector_.enabled() && ef.sensor_dropout)) {
    last_sensed_load_ = sensed_load;
  }

  // The Monitor measures the arrival rate at the head of the epoch (a
  // queue-length spike is visible within seconds); renewable output over
  // the epoch remains a genuine forecast from past production (Eq. 1).
  server::ServerSetting setting =
      controller_.begin_epoch(sensed_load, batt_power);

  // Emergency downgrade: the supply that materialized may be below the
  // prediction; the PMK must keep the server within the actual budget.
  const Watts green_avail = re_obs + batt_power;
  bool downgraded = false;
  if (setting != normal_ &&
      controller_.demand(lambda_burst, setting) > green_avail) {
    setting = controller_.replan(green_avail);
    downgraded = true;
    // The strategy budgets at its *predicted* load level; when the
    // actual level still draws more than the supply, fall to the
    // grid-backed floor rather than browning out.
    if (setting != normal_ &&
        controller_.demand(lambda_burst, setting) > green_avail) {
      setting = normal_;
    }
  }
  // Thermal constraint: a saturated PCM buffer cannot absorb more
  // sprint heat, forcing Normal mode until it refreezes.
  if (sc_.thermal_model && thermal_limited_ && setting != normal_) {
    setting = normal_;
    downgraded = true;
  }
  const Watts demand = controller_.demand(lambda_burst, setting);
  GS_ENSURE(setting == normal_ || demand <= green_avail + Watts(1e-6),
            "PMK produced a setting beyond the green budget");

  const Watts grid_cap =
      setting == normal_ ? sc_.app.normal_full_power : Watts(0.0);
  power::PssFaultState pss_fault;
  if (injector_.enabled()) {
    pss_fault.battery_offline = ef.battery_offline;
    pss_fault.switch_latency_fraction = ef.switch_latency_fraction;
  }
  const auto settle = pss_.settle(demand, re_obs, batt(), grid_, sc_.epoch,
                                  /*bursting=*/true, grid_cap, pss_fault);

  // Workload evaluation for this epoch. In DES mode the service runs
  // with admission control sized to its SLA window (an interactive
  // service sheds load it cannot serve in time rather than queueing it
  // to death); the Normal baseline in finish() uses the same policy.
  auto des_options = [&](const server::ServerSetting& s) {
    workload::DesOptions o;
    // Budget the wait so that an admitted request plus a ~95th-percentile
    // service draw still lands near the SLA.
    const double mean_service = 1.0 / sc_.app.service_rate(s.frequency());
    o.admit_wait_limit_s =
        std::max(0.1 * sc_.app.qos.limit.value(),
                 sc_.app.qos.limit.value() - 3.0 * mean_service);
    if (injector_.enabled()) o.service_derate = ef.speed(0);
    return o;
  };
  double goodput = 0.0;
  Seconds latency{0.0};
  if (sc_.use_des) {
    const auto des =
        workload::simulate_epoch(des_rng_, sc_.app, setting, lambda_burst,
                                 sc_.epoch, des_options(setting));
    goodput = des.goodput_rate;
    latency = des.tail_latency;
  } else {
    goodput = perf_.goodput(setting, lambda_burst);
    latency = perf_.latency(setting, lambda_burst);
    // Straggler fault on the analytic path: completions scale with the
    // derated service rate (the DES path models it request-level).
    if (injector_.enabled() && ef.speed(0) < 1.0) {
      goodput *= ef.speed(0);
      latency = latency / ef.speed(0);
    }
  }
  if (settle.deficit()) {
    // Sources could not actually carry the chosen setting (e.g. breaker
    // tripped): the server browns out to Normal-mode service this epoch.
    goodput = std::min(goodput, perf_.goodput(normal_, lambda_burst));
  }

  if (sc_.thermal_model) {
    thermal_limited_ = !pcm_.absorb(demand, sc_.epoch) || pcm_.saturated();
  }

  controller_.end_epoch(re_obs, demand, green_avail, latency);

  const bool is_degraded = injector_.enabled() && controller_.degraded();
  if (is_degraded) ++result_.degraded_epochs;
  prev_disturbance_ = settle.deficit();

  EpochRecord rec;
  rec.time = t;
  rec.setting = setting;
  rec.power_case = settle.power_case;
  rec.offered_load = lambda_burst;
  rec.goodput = goodput;
  rec.latency = latency;
  rec.demand = demand;
  rec.re_used = settle.re_used;
  rec.batt_used = settle.batt_used;
  rec.grid_used = settle.grid_used;
  rec.re_available = re_obs;
  rec.battery_soc = battery_ ? battery_->state_of_charge() : 0.0;
  rec.downgraded = downgraded;
  rec.faulted = injector_.enabled() && ef.any();
  rec.degraded = is_degraded;
  result_.epochs.push_back(rec);
  ++epoch_;
}

BurstResult BurstSim::finish() {
  GS_REQUIRE(done(), "finish() before the burst completed");
  // One in-order pass: Welford's mean and the running energy sums, each
  // added epoch by epoch as the records were produced.
  RunningStats goodput;
  Joules re{0.0};
  Joules batt{0.0};
  Joules grid{0.0};
  for (const EpochRecord& e : result_.epochs) {
    goodput.add(e.goodput);
    re += e.re_used * sc_.epoch;
    batt += e.batt_used * sc_.epoch;
    grid += e.grid_used * sc_.epoch;
  }
  result_.mean_goodput = goodput.mean();
  const double lambda_burst = lambda_peak_;  // DES baseline: plateau only
  if (sc_.use_des) {
    // Normalize DES runs by a DES-measured Normal baseline so both sides
    // of the ratio carry the same queueing/admission semantics.
    Rng base_rng = Rng::stream(sc_.seed, {0xba5e});
    workload::DesOptions base_opts;
    const double mean_service_normal =
        1.0 / sc_.app.service_rate(normal_.frequency());
    base_opts.admit_wait_limit_s =
        std::max(0.1 * sc_.app.qos.limit.value(),
                 sc_.app.qos.limit.value() - 3.0 * mean_service_normal);
    double sum = 0.0;
    constexpr int kBaselineEpochs = 5;
    for (int i = 0; i < kBaselineEpochs; ++i) {
      sum += workload::simulate_epoch(base_rng, sc_.app, normal_,
                                      lambda_burst, sc_.epoch, base_opts)
                 .goodput_rate;
    }
    result_.normal_goodput = sum / kBaselineEpochs;
  } else {
    // Baseline under the same (possibly time-varying) offered load.
    result_.normal_goodput = normal_goodput_sum_ / double(n_epochs_);
  }
  result_.normalized_perf = result_.normal_goodput > 0.0
                                ? result_.mean_goodput / result_.normal_goodput
                                : 0.0;
  result_.re_energy_used = re;
  result_.batt_energy_used = batt;
  result_.grid_energy_used = grid;
  if (battery_) {
    result_.final_battery_dod = battery_->depth_of_discharge();
    result_.battery_cycles = battery_->equivalent_cycles();
  }
  Seconds downtime{0.0};
  for (const Seconds& s : result_.fault_class_downtime) downtime += s;
  result_.fault_downtime = downtime;
  return std::move(result_);
}

BurstResult run_burst(const Scenario& sc) {
  BurstSim sim(sc);
  while (!sim.done()) sim.step();
  return sim.finish();
}

double normalized_performance(const Scenario& scenario) {
  return run_burst(scenario).normalized_perf;
}

void save_burst_result(ckpt::StateWriter& w, const BurstResult& r) {
  w.begin_section("burst_result", kBurstResultVersion);
  w.u64(r.epochs.size());
  for (const EpochRecord& e : r.epochs) {
    w.f64(e.time.value());
    w.i64(e.setting.cores);
    w.i64(e.setting.freq_idx);
    w.u8(std::uint8_t(e.power_case));
    w.f64(e.offered_load);
    w.f64(e.goodput);
    w.f64(e.latency.value());
    w.f64(e.demand.value());
    w.f64(e.re_used.value());
    w.f64(e.batt_used.value());
    w.f64(e.grid_used.value());
    w.f64(e.re_available.value());
    w.f64(e.battery_soc);
    w.boolean(e.downgraded);
    w.boolean(e.faulted);
    w.boolean(e.crashed);
    w.boolean(e.degraded);
  }
  w.f64(r.mean_goodput);
  w.f64(r.normal_goodput);
  w.f64(r.normalized_perf);
  w.f64(r.final_battery_dod);
  w.f64(r.battery_cycles);
  w.f64(r.re_energy_used.value());
  w.f64(r.batt_energy_used.value());
  w.f64(r.grid_energy_used.value());
  w.f64(r.window_start.value());
  w.u64(r.degraded_epochs);
  w.u64(r.crash_epochs);
  w.f64(r.fault_downtime.value());
  for (const std::size_t n : r.fault_incidents) w.u64(n);
  for (const Seconds& s : r.fault_class_downtime) w.f64(s.value());
  for (const std::size_t n : r.correlated_bursts) w.u64(n);
  for (const std::size_t n : r.health_state_epochs) w.u64(n);
  w.end_section();
}

BurstResult load_burst_result(ckpt::StateReader& r) {
  BurstResult out;
  r.begin_section("burst_result", kBurstResultVersion);
  const auto n = std::size_t(r.u64());
  out.epochs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    EpochRecord e;
    e.time = Seconds(r.f64());
    e.setting.cores = int(r.i64());
    e.setting.freq_idx = int(r.i64());
    const std::uint8_t pc = r.u8();
    if (pc > std::uint8_t(power::PowerCase::GridFallback)) {
      throw ckpt::SnapshotError("burst result holds invalid power case " +
                                std::to_string(int(pc)));
    }
    e.power_case = power::PowerCase(pc);
    e.offered_load = r.f64();
    e.goodput = r.f64();
    e.latency = Seconds(r.f64());
    e.demand = Watts(r.f64());
    e.re_used = Watts(r.f64());
    e.batt_used = Watts(r.f64());
    e.grid_used = Watts(r.f64());
    e.re_available = Watts(r.f64());
    e.battery_soc = r.f64();
    e.downgraded = r.boolean();
    e.faulted = r.boolean();
    e.crashed = r.boolean();
    e.degraded = r.boolean();
    out.epochs.push_back(e);
  }
  out.mean_goodput = r.f64();
  out.normal_goodput = r.f64();
  out.normalized_perf = r.f64();
  out.final_battery_dod = r.f64();
  out.battery_cycles = r.f64();
  out.re_energy_used = Joules(r.f64());
  out.batt_energy_used = Joules(r.f64());
  out.grid_energy_used = Joules(r.f64());
  out.window_start = Seconds(r.f64());
  out.degraded_epochs = std::size_t(r.u64());
  out.crash_epochs = std::size_t(r.u64());
  out.fault_downtime = Seconds(r.f64());
  for (std::size_t& v : out.fault_incidents) v = std::size_t(r.u64());
  for (Seconds& s : out.fault_class_downtime) s = Seconds(r.f64());
  for (std::size_t& v : out.correlated_bursts) v = std::size_t(r.u64());
  for (std::size_t& v : out.health_state_epochs) v = std::size_t(r.u64());
  r.end_section();
  return out;
}

}  // namespace gs::sim
