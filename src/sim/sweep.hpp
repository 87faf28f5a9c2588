// Parallel parameter sweeps over burst scenarios. Each cell runs on the
// thread pool with results written to a preallocated slot, so the sweep is
// deterministic regardless of thread schedule (every scenario also derives
// its own RNG streams from its seed).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "sim/burst_runner.hpp"

namespace gs::sim {

/// Run every scenario; results align index-for-index with the input.
/// Cells are distributed work-stealing style (chunk = 1: cells are coarse
/// and uneven), and cells sharing a substrate reuse the process-wide trace
/// / window / profile caches, so a warm sweep skips per-cell setup
/// entirely. Results are bit-identical across thread counts and cache
/// states: every cell derives its own Rng streams from its seed and the
/// cached substrates are deterministic in their keys.
[[nodiscard]] std::vector<BurstResult> run_sweep(
    const std::vector<Scenario>& scenarios, std::size_t threads = 0);

/// Checkpointing for long sweeps (src/ckpt). The sweep directory holds a
/// `sweep.manifest` describing the campaign (cell count + per-cell scenario
/// fingerprints) and one `cell-NNNNNN.gsck` snapshot per completed cell,
/// each written atomically. A killed sweep restarted with `resume = true`
/// loads every intact cell snapshot and recomputes only the missing or
/// corrupt ones; because the cell encoding is bit-exact, the resumed
/// sweep's sweep_fingerprint() matches the uninterrupted run exactly (the
/// CI resume-integrity lane enforces this).
struct SweepCheckpointOptions {
  std::string dir;    ///< Checkpoint directory (created if missing).
  bool resume = false;  ///< Load completed cells before running the rest.
};

/// Telemetry from a checkpointed sweep (how much work the resume skipped).
struct SweepCheckpointStats {
  std::size_t cells_total = 0;
  std::size_t cells_resumed = 0;
  std::size_t cells_run = 0;
};

/// run_sweep with kill-and-resume checkpointing. Results are bit-identical
/// to run_sweep over the same scenarios, whatever mix of resumed and
/// freshly-computed cells produced them. Throws ckpt::SnapshotError if
/// `resume` finds a manifest from a *different* campaign (changed cell
/// count or scenario fingerprints) — delete the directory to start over.
[[nodiscard]] std::vector<BurstResult> run_sweep_checkpointed(
    const std::vector<Scenario>& scenarios, const SweepCheckpointOptions& opts,
    std::size_t threads = 0, SweepCheckpointStats* stats = nullptr);

/// Order-sensitive 64-bit digest of every numeric field of every result
/// (per-epoch records included), hashed by bit pattern. Two sweeps are
/// bit-identical iff their fingerprints match; used by the determinism
/// tests and the perf bench's cross-thread-count check.
[[nodiscard]] std::uint64_t sweep_fingerprint(
    const std::vector<BurstResult>& results);

/// Normalized performance per scenario (the paper's y-axis).
[[nodiscard]] std::vector<double> sweep_normalized_perf(
    const std::vector<Scenario>& scenarios, std::size_t threads = 0);

/// Run the scenario under `replicas` different seeds (different synthetic
/// weather draws) and return the statistics of the normalized performance.
/// Seeds are base_seed, base_seed+1, ... so results are reproducible.
[[nodiscard]] RunningStats replicate_normalized_perf(
    Scenario scenario, int replicas, std::size_t threads = 0);

}  // namespace gs::sim
