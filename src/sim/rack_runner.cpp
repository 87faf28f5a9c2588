#include "sim/rack_runner.hpp"

#include "common/assert.hpp"

namespace gs::sim {

namespace {
GreenClusterConfig green_config(const RackConfig& cfg) {
  GreenClusterConfig g = cfg.green;
  g.servers = cfg.cluster.green_servers;
  return g;
}
}  // namespace

RackRunner::RackRunner(const workload::AppDescriptor& app, RackConfig cfg)
    : cfg_(cfg),
      app_(app),
      perf_(app),
      power_model_(Watts(76.0)),
      green_(app, green_config(cfg)) {
  GS_REQUIRE(cfg_.cluster.grid_servers() > 0,
             "rack needs grid-powered servers");
}

RackEpoch RackRunner::step(Watts re_total, double lambda,
                           const faults::EpochFaults* epoch_faults) {
  RackEpoch out;
  // Grid side: the whole budget carries the non-green servers at the best
  // uniform setting that fits their per-server share. A brownout derates
  // that share the same way it derates the green group's grid backstop.
  Watts share = grid_share_per_server(cfg_.cluster);
  if (epoch_faults != nullptr) {
    share = share * epoch_faults->grid_budget_factor;
  }
  out.grid_setting = best_setting_under_cap(perf_, power_model_, lambda,
                                            share);
  const double per_grid_goodput = perf_.goodput(out.grid_setting, lambda);
  const int n_grid = cfg_.cluster.grid_servers();
  out.grid_goodput = per_grid_goodput * double(n_grid);
  const double u = perf_.utilization(out.grid_setting, lambda);
  out.grid_servers_power =
      power_model_.power(out.grid_setting, u, app_.activity) *
      double(n_grid);

  // Green side: per-server controllers against the green bus.
  out.green = green_.step(re_total, lambda, /*bursting=*/true, epoch_faults);
  out.cluster_goodput = out.grid_goodput + out.green.total_goodput;
  out.rack_power = out.grid_servers_power + out.green.total_demand;
  return out;
}

void RackRunner::idle_step(Watts re_total, double background_lambda) {
  green_.idle_step(re_total, background_lambda);
}

double RackRunner::normal_cluster_goodput(double lambda) const {
  return perf_.goodput(server::normal_mode(), lambda) *
         double(cfg_.cluster.total_servers);
}

}  // namespace gs::sim
