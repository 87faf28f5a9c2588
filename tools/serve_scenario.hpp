// Shared scenario flags for greensprintd and gs_feed. Both tools must
// build byte-identical DayRunConfigs from the same flags — the feed trace
// gs_feed generates is only valid against a daemon configured for the
// same campaign (the hello fingerprint check enforces this at runtime).
//
//   --days N            campaign length in days           (default 1)
//   --servers N         green servers in the cluster      (default 3)
//   --strategy NAME     sprinting strategy                (default hybrid)
//   --panels N          PV panels                          (default 3)
//   --background F      background load fraction          (default 0.3)
//   --solar-seed N      irradiance noise seed             (default 42)
//   --faults SPEC       faults::FaultSpec::parse grammar  (default none)
#pragma once

#include <set>
#include <string>

#include "common/cli.hpp"
#include "core/strategy.hpp"
#include "faults/fault_spec.hpp"
#include "sim/day_runner.hpp"

namespace gs::tools {

inline constexpr const char* kScenarioUsage =
    "[--days N] [--servers N] [--strategy NAME] [--panels N]\n"
    "  [--background F] [--solar-seed N] [--faults SPEC]";

/// The scenario flags above; each takes a value.
inline const std::set<std::string> kScenarioKeys = {
    "days", "servers", "strategy", "panels", "background", "solar-seed",
    "faults"};

/// Build the campaign config from scenario flags; a malformed or
/// out-of-range operand throws UsageError, so both tools refuse it the
/// same way instead of failing deep in the simulator.
inline sim::DayRunConfig scenario_from_cli(const CliArgs& args) {
  sim::DayRunConfig cfg;
  cfg.days = args.get("days", cfg.days);
  if (cfg.days < 1) throw UsageError("--days must be at least 1");
  cfg.cluster.servers = args.get("servers", cfg.cluster.servers);
  if (cfg.cluster.servers < 1) {
    throw UsageError("--servers must be at least 1");
  }
  cfg.panels = args.get("panels", cfg.panels);
  if (cfg.panels < 0) throw UsageError("--panels must not be negative");
  cfg.background_load = args.get("background", cfg.background_load);
  if (!(cfg.background_load >= 0.0)) {
    throw UsageError("--background must be a non-negative fraction");
  }
  cfg.solar_seed =
      std::uint64_t(args.get("solar-seed", int(cfg.solar_seed)));
  cfg.daily_bursts = sim::default_daily_bursts();
  const std::string name =
      args.get("strategy", std::string(core::to_string(cfg.cluster.strategy)));
  const auto kind = core::strategy_from_string(name);
  if (!kind) throw UsageError("unknown strategy '" + name + "'");
  cfg.cluster.strategy = *kind;
  const std::string spec = args.get("faults", std::string());
  if (!spec.empty()) cfg.faults = faults::FaultSpec::parse(spec);
  return cfg;
}

}  // namespace gs::tools
