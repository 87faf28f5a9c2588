// gs:hot-path — the per-epoch cluster loop; no heap allocation in the
// steady-state loop (soa_ arrays are sized once at construction).
#include "sim/green_cluster.hpp"

#include <algorithm>
#include <string>

#include "ckpt/state_io.hpp"
#include "common/assert.hpp"
#include "workload/perf_model.hpp"

namespace gs::sim {

const char* to_string(ReAllocation a) {
  switch (a) {
    case ReAllocation::EqualShare:
      return "EqualShare";
    case ReAllocation::Waterfall:
      return "Waterfall";
  }
  return "?";
}

namespace {

power::BatteryConfig battery_config(AmpHours capacity) {
  power::BatteryConfig bc;
  bc.capacity = capacity.value() > 0.0 ? capacity : AmpHours(1e-9);
  return bc;
}

power::GridConfig cluster_grid_config(const workload::AppDescriptor& app,
                                      int servers) {
  power::GridConfig gc;
  // Normal-mode backstop plus charging headroom for every green server.
  gc.budget = (app.normal_full_power + Watts(80.0)) * double(servers);
  return gc;
}

}  // namespace

GreenCluster::GreenCluster(const workload::AppDescriptor& app,
                           GreenClusterConfig cfg)
    : cfg_(cfg),
      app_(app),
      perf_(app),
      power_model_(Watts(76.0)),
      profile_(perf_, power_model_),
      pss_(power::PssConfig{cfg.grid_charging}),
      controllers_(),
      grid_(cluster_grid_config(app, cfg.servers)),
      soa_(battery_config(cfg.battery_per_server),
           std::size_t(std::max(cfg.servers, 0))) {
  GS_REQUIRE(cfg_.servers > 0, "cluster needs at least one green server");
  // One-time construction; the epoch path never grows controllers_.
  // gs-lint: allow(hot-path-alloc)
  controllers_.reserve(std::size_t(cfg_.servers));
  for (int i = 0; i < cfg_.servers; ++i) {
    core::ControllerConfig ctl_cfg;
    ctl_cfg.strategy = cfg_.strategy;
    ctl_cfg.epoch = cfg_.epoch;
    ctl_cfg.health_aware = cfg_.health_aware;
    // gs-lint: allow(hot-path-alloc)
    controllers_.push_back(std::make_unique<core::GreenSprintController>(
        app_, profile_, power_model_.idle_power(), ctl_cfg));
  }
}

bool GreenCluster::set_strategy(core::StrategyKind kind) {
  if (kind == cfg_.strategy) return false;
  cfg_.strategy = kind;
  for (auto& ctl : controllers_) {
    ctl->set_strategy(kind, app_, power_model_.idle_power());
  }
  return true;
}

void GreenCluster::allocate_into(Watts re_total) {
  // Same arithmetic as the historical vector<Watts> allocate(): Watts is a
  // value wrapper, so the double expressions below are the identical
  // operation sequence on the identical operands.
  const std::size_t n = soa_.size();
  switch (cfg_.allocation) {
    case ReAllocation::EqualShare: {
      const double each = (re_total / double(n)).value();
      std::fill(soa_.share_w.begin(), soa_.share_w.end(), each);
      break;
    }
    case ReAllocation::Waterfall: {
      double left = re_total.value();
      for (std::size_t i = 0; i < n; ++i) {
        const double share = std::min(left, soa_.want_w[i]);
        soa_.share_w[i] = share;
        left -= share;
      }
      // Any remainder (all demands met) goes to the first server's
      // charger.
      if (left > 0.0 && n > 0) soa_.share_w[0] += left;
      break;
    }
  }
}

void GreenCluster::prepare_epoch(Watts re_total,
                                 const std::vector<double>& lambdas) {
  // Allocation claims: each server's maximal-sprint demand at its own
  // workload level (EqualShare ignores them; Waterfall fills by demand).
  const auto max_idx = profile_.lattice().index_of(server::max_sprint());
  const std::size_t n = soa_.size();
  for (std::size_t i = 0; i < n; ++i) {
    soa_.want_w[i] =
        profile_.power(profile_.level_for(lambdas[i]), max_idx).value();
  }
  allocate_into(re_total);
}

ClusterEpoch GreenCluster::step(Watts re_total, double lambda,
                                bool bursting,
                                const faults::EpochFaults* epoch_faults) {
  return step_hetero(re_total,
                     std::vector<double>(std::size_t(cfg_.servers), lambda),
                     bursting, epoch_faults);
}

void GreenCluster::apply_component_faults(
    const faults::EpochFaults& epoch_faults) {
  soa_.batteries.set_capacity_fade_all(epoch_faults.battery_capacity_factor);
  soa_.batteries.set_charge_derate_all(epoch_faults.charge_efficiency_factor);
  grid_.set_budget_derate(epoch_faults.grid_budget_factor);
}

ClusterEpoch GreenCluster::step_hetero(
    Watts re_total, const std::vector<double>& lambdas, bool bursting,
    const faults::EpochFaults* epoch_faults) {
  GS_REQUIRE(re_total.value() >= 0.0, "RE supply must be non-negative");
  GS_REQUIRE(lambdas.size() == std::size_t(cfg_.servers),
             "one arrival rate per green server required");
  prepare_epoch(re_total, lambdas);
  if (epoch_faults != nullptr) apply_component_faults(*epoch_faults);
  return step_servers(lambdas, bursting, epoch_faults);
}

ClusterEpoch GreenCluster::step_hetero_reference(
    Watts re_total, const std::vector<double>& lambdas, bool bursting,
    const faults::EpochFaults* epoch_faults) {
  return step_hetero(re_total, lambdas, bursting, epoch_faults);
}

ClusterEpoch GreenCluster::step_servers(
    const std::vector<double>& lambdas, bool bursting,
    const faults::EpochFaults* epoch_faults) {
  const std::size_t n = soa_.size();
  ClusterEpoch out;
  // Caller-owned result (ClusterEpoch API), sized once per epoch.
  // gs-lint: allow(hot-path-alloc)
  out.settings.resize(n);
  const server::ServerSetting normal = server::normal_mode();

  // One pass in server index order: batteries and controllers are
  // per-server, but the grid budget is shared, so draw order is part of
  // the contract, as is the ascending-server FP summation order of every
  // ClusterEpoch accumulator.
  for (std::size_t i = 0; i < n; ++i) {
    const double lambda = lambdas[i];
    const Watts share(soa_.share_w[i]);
    power::BatteryRef battery(soa_.batteries, i);
    auto& controller = *controllers_[i];

    // Crashed green server: total outage for the epoch; its renewable
    // share still charges its battery through the PSS.
    if (epoch_faults != nullptr && epoch_faults->crashed(int(i))) {
      controller.observe_idle(lambda, share);
      const auto settle = pss_.settle(Watts(0.0), share, battery, grid_,
                                      cfg_.epoch, bursting, Watts(0.0));
      out.settings[i] = normal;
      out.re_used += settle.re_used;
      ++out.servers_crashed;
      soa_.prev_deficit[i] = 1;  // reboot recovers through hysteresis
      continue;
    }

    power::PssFaultState pss_fault;
    if (epoch_faults != nullptr) {
      controller.notify_health(soa_.prev_deficit[i] != 0,
                               epoch_faults->sensor_dropout);
      pss_fault.battery_offline = epoch_faults->battery_offline;
      pss_fault.switch_latency_fraction =
          epoch_faults->switch_latency_fraction;
    }
    const Watts batt_power =
        epoch_faults != nullptr && epoch_faults->battery_offline
            ? Watts(0.0)
            : battery.max_discharge_power(cfg_.epoch);
    // Each controller forecasts its *own* share: it has been observing the
    // policy's per-server allocation epoch after epoch, so the EWMA tracks
    // whatever the allocation policy hands this server.
    server::ServerSetting setting = controller.begin_epoch(lambda,
                                                           batt_power);
    const Watts green_avail = share + batt_power;
    if (setting != normal &&
        controller.demand(lambda, setting) > green_avail) {
      setting = controller.replan(green_avail);
    }
    const Watts demand = controller.demand(lambda, setting);
    const Watts grid_cap =
        setting == normal ? app_.normal_full_power : Watts(0.0);
    const auto settle = pss_.settle(demand, share, battery, grid_,
                                    cfg_.epoch, bursting, grid_cap,
                                    pss_fault);
    double goodput = perf_.goodput(setting, lambda);
    if (epoch_faults != nullptr && epoch_faults->speed(int(i)) < 1.0) {
      goodput *= epoch_faults->speed(int(i));
    }
    if (settle.deficit()) {
      goodput = std::min(goodput, perf_.goodput(normal, lambda));
    }
    controller.end_epoch(share, demand, green_avail,
                         perf_.latency(setting, lambda));
    if (epoch_faults != nullptr) {
      soa_.prev_deficit[i] = settle.deficit() ? 1 : 0;
      if (controller.degraded()) ++out.servers_degraded;
    }

    out.settings[i] = setting;
    out.total_goodput += goodput;
    out.total_demand += demand;
    out.re_used += settle.re_used;
    out.batt_used += settle.batt_used;
    out.grid_used += settle.grid_used;
    if (setting != normal) ++out.servers_sprinting;
  }
  return out;
}

void GreenCluster::idle_step(Watts re_total, double background_lambda,
                             const faults::EpochFaults* epoch_faults) {
  if (epoch_faults != nullptr) apply_component_faults(*epoch_faults);
  const std::size_t n = soa_.size();
  // Forecast consistency: divide the idle supply by the same policy the
  // burst path uses (planned against maximum-sprint demand), so each
  // controller's renewable EWMA predicts the share it will actually get.
  const Watts max_demand = profile_.power(
      profile_.num_levels() - 1,
      profile_.lattice().index_of(server::max_sprint()));
  for (std::size_t i = 0; i < n; ++i) {
    soa_.want_w[i] = max_demand.value();
  }
  allocate_into(re_total);
  for (std::size_t i = 0; i < n; ++i) {
    controllers_[i]->observe_idle(background_lambda, Watts(soa_.share_w[i]));
  }
  // Normal-mode power comes from the grid; all of the RE share plus the
  // grid charger can refill the battery. Settlement order = server order
  // (shared grid budget).
  for (std::size_t i = 0; i < n; ++i) {
    power::BatteryRef battery(soa_.batteries, i);
    (void)pss_.settle(Watts(0.0), Watts(soa_.share_w[i]), battery, grid_,
                      cfg_.epoch, /*bursting=*/false, Watts(0.0));
  }
}

double GreenCluster::mean_soc() const {
  return soa_.batteries.total_soc() / double(soa_.batteries.size());
}

double GreenCluster::total_equivalent_cycles() const {
  return soa_.batteries.total_equivalent_cycles();
}

void GreenCluster::save_state(ckpt::StateWriter& w) const {
  w.begin_section("green_cluster", kStateVersion);
  w.u64(std::uint64_t(cfg_.servers));
  grid_.save_state(w);
  for (std::size_t i = 0; i < soa_.batteries.size(); ++i) {
    soa_.batteries.save_state_element(w, i);
  }
  for (const auto& c : controllers_) c->save_state(w);
  for (std::size_t i = 0; i < soa_.prev_deficit.size(); ++i) {
    w.boolean(soa_.prev_deficit[i] != 0);
  }
  w.end_section();
}

void GreenCluster::load_state(ckpt::StateReader& r) {
  r.begin_section("green_cluster", kStateVersion);
  const std::uint64_t servers = r.u64();
  if (servers != std::uint64_t(cfg_.servers)) {
    throw ckpt::SnapshotError(
        "cluster snapshot holds " + std::to_string(servers) +
        " green servers, cluster is configured for " +
        std::to_string(cfg_.servers));
  }
  grid_.load_state(r);
  for (std::size_t i = 0; i < soa_.batteries.size(); ++i) {
    soa_.batteries.load_state_element(r, i);
  }
  for (const auto& c : controllers_) c->load_state(r);
  for (std::size_t i = 0; i < soa_.prev_deficit.size(); ++i) {
    soa_.prev_deficit[i] = r.boolean() ? 1 : 0;
  }
  r.end_section();
}

}  // namespace gs::sim
