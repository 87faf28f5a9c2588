// The fixed sweep scenario grid, shared by tools/gs_sweep and gs_bench.
// Every process of a multi-process sweep must construct
// the *identical* cell list — the checkpoint manifest keys every cell by
// scenario_fingerprint — so the grid builder lives in the library instead
// of being copied into each binary.
#pragma once

#include <cstddef>
#include <vector>

#include "sim/scenario.hpp"

namespace gs::sim {

/// The sweep grid: 3 apps x 3 availabilities x 4 strategies x
/// 2 durations x 2 seeds = 144 cells (smoke: 1 app x 2 availabilities x
/// 4 strategies x 1 duration x 1 seed = 8 cells), all on the re_sbatt
/// green configuration at saturating intensity.
[[nodiscard]] std::vector<Scenario> perf_grid(bool smoke);

/// Overlay correlated fault storms on every cell: uniform faults whose
/// seed varies per cell, the full correlation spec (fronts + cascades +
/// regime bursts), and health-aware Hybrid recovery. Exercised by the
/// resume-integrity lane so kill-and-resume also crosses storm windows.
void add_storms(std::vector<Scenario>& cells);

/// Cycle the base grid out to exactly n cells, bumping the seed on each
/// pass so every cell is a distinct (substrate-cold) simulation.
[[nodiscard]] std::vector<Scenario> replicate_grid(
    const std::vector<Scenario>& base, std::size_t n);

}  // namespace gs::sim
