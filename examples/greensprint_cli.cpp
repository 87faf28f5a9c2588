// greensprint_cli: run any burst scenario from the command line.
//
//   greensprint_cli --app=specjbb --config=RE-Batt --strategy=Hybrid
//       --availability=med --minutes=30 --intensity=12
//       [--epoch=60] [--seed=1] [--des] [--thermal] [--csv]
//       [--faults=brownout=0.3,panel=0.2] [--fault-seed=7]
//       [--fault-corr=storm=0.8,cascade=0.5] [--health-aware]
//
// Prints a per-epoch table (or, with --csv, sim::export_epochs_csv's
// lossless per-epoch CSV) plus the summary line the paper's figures plot.
// Also supports --oracle to print the offline upper bound for the same
// scenario.
#include <cctype>
#include <iostream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "faults/correlation.hpp"
#include "faults/fault_spec.hpp"
#include "sim/burst_runner.hpp"
#include "sim/export.hpp"
#include "sim/oracle_runner.hpp"

namespace {

using namespace gs;

workload::AppDescriptor pick_app(const std::string& name) {
  for (auto& app : workload::all_apps()) {
    std::string lower = app.name;
    for (auto& ch : lower) ch = char(std::tolower(ch));
    std::string key = name;
    for (auto& ch : key) ch = char(std::tolower(ch));
    if (lower == key || (key == "websearch" && app.name == "Web-Search")) {
      return app;
    }
  }
  GS_REQUIRE(false, "unknown app '" + name +
                        "' (specjbb | websearch | memcached)");
  return workload::specjbb();
}

sim::GreenConfig pick_config(const std::string& name) {
  for (auto& cfg : sim::table1_configs()) {
    if (cfg.name == name) return cfg;
  }
  GS_REQUIRE(false, "unknown config '" + name +
                        "' (RE-Batt | REOnly | RE-SBatt | SRE-SBatt)");
  return sim::re_batt();
}

core::StrategyKind pick_strategy(const std::string& name) {
  for (auto k : {core::StrategyKind::Normal, core::StrategyKind::Greedy,
                 core::StrategyKind::Parallel, core::StrategyKind::Pacing,
                 core::StrategyKind::Hybrid}) {
    if (name == core::to_string(k)) return k;
  }
  GS_REQUIRE(false, "unknown strategy '" + name +
                        "' (Normal | Greedy | Parallel | Pacing | Hybrid)");
  return core::StrategyKind::Hybrid;
}

trace::Availability pick_availability(std::string name) {
  for (auto& ch : name) ch = char(std::tolower(ch));
  if (name == "min") return trace::Availability::Min;
  if (name == "med") return trace::Availability::Med;
  if (name == "max") return trace::Availability::Max;
  GS_REQUIRE(false, "unknown availability (min | med | max)");
  return trace::Availability::Med;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  if (args.flag("help")) {
    std::cout << "usage: greensprint_cli [--app=specjbb|websearch|memcached]"
                 " [--config=RE-Batt|REOnly|RE-SBatt|SRE-SBatt]\n"
                 "  [--strategy=Normal|Greedy|Parallel|Pacing|Hybrid]"
                 " [--availability=min|med|max]\n"
                 "  [--minutes=N] [--intensity=7..12] [--epoch=seconds]"
                 " [--seed=N] [--des] [--thermal] [--csv] [--oracle]\n"
                 "  [--faults=SPEC] [--fault-seed=N] [--fault-corr=CORR]"
                 " [--health-aware]\n"
                 "fault SPEC: comma list of class=intensity in [0,1]; "
                 "classes: brownout panel cloud fade charge pss_stuck\n"
                 "  pss_latency crash straggler sensor_noise sensor_dropout,"
                 " or all=x; e.g. --faults=brownout=0.4,panel=0.2\n"
                 "fault CORR: comma list of key=value correlating the "
                 "schedule (faults/correlation.hpp); keys: storm\n"
                 "  front_spacing front_min front_max front_boost cascade "
                 "cascade_window rack regime_on regime_off\n"
                 "  regime_boost regime_damp seed; e.g. "
                 "--fault-corr=storm=0.8,cascade=0.5,regime_on=0.15\n"
                 "--health-aware: Hybrid learns recovery actions from the "
                 "controller health state instead of clamping to Normal\n";
    return 0;
  }

  sim::Scenario sc;
  sc.app = pick_app(args.get("app", std::string("specjbb")));
  sc.green = pick_config(args.get("config", std::string("RE-Batt")));
  sc.strategy = pick_strategy(args.get("strategy", std::string("Hybrid")));
  sc.availability =
      pick_availability(args.get("availability", std::string("med")));
  sc.burst_duration = Seconds(args.get("minutes", 30.0) * 60.0);
  sc.burst_intensity = args.get("intensity", 12);
  sc.epoch = Seconds(args.get("epoch", 60.0));
  sc.seed = std::uint64_t(args.get("seed", 1));
  sc.use_des = args.flag("des");
  sc.thermal_model = args.flag("thermal");
  const auto fault_spec = args.get("faults", std::string());
  if (!fault_spec.empty()) {
    sc.faults = faults::FaultSpec::parse(fault_spec);
  }
  if (args.has("fault-seed")) {
    sc.faults.seed = std::uint64_t(args.get("fault-seed", 7));
  }
  const auto corr_spec = args.get("fault-corr", std::string());
  if (!corr_spec.empty()) {
    sc.fault_correlation = faults::CorrelationSpec::parse(corr_spec);
  }
  sc.health_aware = args.flag("health-aware");

  const auto r = sim::run_burst(sc);

  if (args.flag("csv")) {
    sim::export_epochs_csv(std::cout, r);
  } else {
    TextTable t({"t(min)", "Setting", "Case", "Demand", "RE", "Batt",
                 "Grid", "SoC", "Goodput"});
    for (const auto& e : r.epochs) {
      t.add_row({TextTable::num((e.time - r.window_start).value() / 60.0, 1),
                 server::to_string(e.setting),
                 power::to_string(e.power_case),
                 TextTable::num(e.demand.value(), 0),
                 TextTable::num(e.re_used.value(), 0),
                 TextTable::num(e.batt_used.value(), 0),
                 TextTable::num(e.grid_used.value(), 0),
                 TextTable::num(e.battery_soc, 2),
                 TextTable::num(e.goodput, 0)});
    }
    t.render(std::cout);
  }

  std::cerr << "\n" << sc.app.name << " " << sc.green.name << " "
            << core::to_string(sc.strategy) << " "
            << trace::to_string(sc.availability) << " Int="
            << sc.burst_intensity << ": normalized performance "
            << TextTable::num(r.normalized_perf) << "x over Normal\n";

  if (args.flag("oracle")) {
    const auto o = sim::run_oracle(sc);
    std::cerr << "oracle upper bound: "
              << TextTable::num(o.normalized_perf) << "x (regret "
              << TextTable::num(
                     100.0 * (o.normalized_perf - r.normalized_perf) /
                         (o.normalized_perf > 0 ? o.normalized_perf : 1.0),
                     1)
              << "%)\n";
  }
  return 0;
}
