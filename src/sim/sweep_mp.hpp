// Multi-process sweeps: several OS processes cooperatively work through
// one checkpointed sweep directory with no shared memory and no server —
// the filesystem is the coordinator. Each process runs run_sweep_worker;
// once they are done, run_sweep_checkpointed with `resume` merges their
// cells (computing inline any cell no worker produced).
//
// Protocol (per cell i of the manifest):
//
//   1. A worker that finds no `cell-NNNNNN.gsck` snapshot tries to claim
//      the cell by creating `cell-NNNNNN.lease` with O_CREAT|O_EXCL — an
//      atomic test-and-set on any POSIX filesystem. The lease body records
//      the claimant's pid.
//   2. The claimant computes the cell and persists it with the existing
//      atomic snapshot discipline (temp + rename), then unlinks its lease.
//   3. A lease whose owner pid is dead (or whose file is older than
//      `stale_after_s`) is *stale*: a worker takes it over by atomically
//      renaming it aside to a unique name — rename is atomic, so exactly
//      one of several concurrent claimants wins; the losers see ENOENT and
//      move on — and then re-claiming through step 1.
//
// A worker SIGKILLed mid-cell leaves only a stale lease (the half-written
// snapshot is still a temp file, never the final name), so surviving
// workers finish its cell. A worker killed *between* snapshot rename and
// lease unlink leaves an orphan lease next to a finished cell; the cell
// file wins and the lease is ignored. Because every cell is a
// deterministic pure function of its scenario and cell snapshots are
// byte-exact, even a double-computed cell produces identical bytes —
// the merged sweep_fingerprint always equals single-process run_sweep.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "sim/sweep.hpp"

namespace gs::sim {

struct SweepWorkerOptions {
  std::string dir;  ///< Shared checkpoint directory (manifest + cells).
  /// Age (mtime) past which a lease is considered stale even when its
  /// owner pid cannot be probed. Dead-pid leases are reclaimed
  /// immediately regardless of age.
  double stale_after_s = 30.0;
};

struct SweepWorkerStats {
  std::size_t cells_total = 0;
  std::size_t cells_run = 0;         ///< Computed (and persisted) by us.
  std::size_t leases_taken_over = 0; ///< Stale leases we reclaimed.
};

/// Work through the sweep directory as one cooperative worker: claim
/// unowned cells, compute them, persist them; return when every cell of
/// the campaign has a snapshot on disk. Writes the manifest if the
/// directory is fresh, validates it otherwise (throws ckpt::SnapshotError
/// on a campaign mismatch). Safe to run any number of workers
/// concurrently against the same directory, on the same or different
/// processes.
SweepWorkerStats run_sweep_worker(const std::vector<Scenario>& scenarios,
                                  const SweepWorkerOptions& opts);

}  // namespace gs::sim
