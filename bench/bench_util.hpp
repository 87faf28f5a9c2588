// Shared helpers for the figure benches: run the (strategy x availability)
// grid for one application/configuration and print the paper's per-duration
// panels.
#pragma once

#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/table.hpp"
#include "sim/sweep.hpp"

namespace gs::bench {

/// True when GS_BENCH_SMOKE is set (non-empty, not "0"). The bench-smoke CI
/// lane exports it so every bench binary shrinks its grid/replica counts to
/// a single representative pass; output shape and determinism are unchanged.
inline bool smoke() {
  static const bool v = [] {
    const char* e = std::getenv("GS_BENCH_SMOKE");
    return e != nullptr && *e != '\0' && std::string_view(e) != "0";
  }();
  return v;
}

inline sim::Scenario scenario(workload::AppDescriptor app,
                              sim::GreenConfig cfg, core::StrategyKind k,
                              trace::Availability a, double minutes,
                              int intensity = 12) {
  sim::Scenario sc;
  sc.app = std::move(app);
  sc.green = std::move(cfg);
  sc.strategy = k;
  sc.availability = a;
  sc.burst_duration = Seconds(minutes * 60.0);
  sc.burst_intensity = intensity;
  return sc;
}

/// Fig. 6/8/9 panel: for each burst duration, a table of rows Min/Med/Max
/// with one column per strategy, values normalized to Normal.
inline void print_strategy_panels(const std::string& title,
                                  const workload::AppDescriptor& app,
                                  const sim::GreenConfig& cfg) {
  std::cout << title << "\n";
  std::cout << "(normalized performance vs Normal mode; config " << cfg.name
            << ")\n\n";
  const auto strategies = core::sprinting_strategies();
  const std::vector<trace::Availability> avails = {
      trace::Availability::Min, trace::Availability::Med,
      trace::Availability::Max};
  const std::vector<double> durations =
      smoke() ? std::vector<double>{10.0}
              : std::vector<double>{10.0, 15.0, 30.0, 60.0};
  for (double minutes : durations) {
    // Build the cell grid and run it in parallel.
    std::vector<sim::Scenario> cells;
    for (auto a : avails) {
      for (auto k : strategies) {
        cells.push_back(scenario(app, cfg, k, a, minutes));
      }
    }
    const auto perf = sim::sweep_normalized_perf(cells);
    TextTable t({"Avail", "Greedy", "Parallel", "Pacing", "Hybrid"});
    std::size_t i = 0;
    for (auto a : avails) {
      std::vector<std::string> row{trace::to_string(a)};
      for (std::size_t s = 0; s < strategies.size(); ++s) {
        row.push_back(TextTable::num(perf[i++]));
      }
      t.add_row(std::move(row));
    }
    std::cout << "--- " << int(minutes) << " min burst ---\n";
    t.render(std::cout);
    std::cout << "\n";
  }
}

}  // namespace gs::bench
