// Multi-process sweeps (sim/sweep_mp.hpp): lease claiming, stale lease
// takeover, worker SIGKILL mid-cell, and — above all — forked workers plus
// a resume merge giving fingerprints bit-identical to single-process
// run_sweep.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

#include "ckpt/snapshot.hpp"
#include "sim/sweep.hpp"
#include "sim/sweep_ckpt.hpp"
#include "sim/sweep_grid.hpp"
#include "sim/sweep_mp.hpp"

namespace gs::sim {
namespace {

namespace fs = std::filesystem;

class SweepMpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("gs_sweep_mp_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_;
};

std::vector<Scenario> small_grid() { return perf_grid(/*smoke=*/true); }

/// A pid that is guaranteed dead: fork a child that exits immediately and
/// reap it.
pid_t dead_pid() {
  const pid_t pid = ::fork();
  if (pid == 0) ::_exit(0);
  int status = 0;
  ::waitpid(pid, &status, 0);
  return pid;
}

void write_lease(const std::string& dir, std::size_t i, long pid) {
  std::string idx = std::to_string(i);
  while (idx.size() < 6) idx.insert(idx.begin(), '0');
  std::ofstream os(fs::path(dir) / ("cell-" + idx + ".lease"));
  os << pid << "\n";
}

/// Fork `workers` run_sweep_worker processes over `dir`, the way several
/// `gs_sweep --worker` runs share one directory, and wait for them. Each
/// child reports the cells it computed in its exit status; returns their
/// sum, which equals the number of cells that had no snapshot: each cell
/// is computed exactly once.
std::size_t run_forked_workers(const std::vector<Scenario>& grid,
                               const std::string& dir, int workers) {
  std::vector<pid_t> children;
  for (int w = 0; w < workers; ++w) {
    const pid_t pid = ::fork();
    if (pid == 0) {
      int rc = 255;
      try {
        SweepWorkerOptions opts;
        opts.dir = dir;
        rc = int(run_sweep_worker(grid, opts).cells_run);
      } catch (...) {
      }
      ::_exit(rc);
    }
    EXPECT_GE(pid, 0) << "fork failed";
    if (pid > 0) children.push_back(pid);
  }
  std::size_t cells_run = 0;
  for (const pid_t pid : children) {
    int status = 0;
    ::waitpid(pid, &status, 0);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) != 255)
        << "sweep worker " << pid << " failed";
    if (WIFEXITED(status)) cells_run += std::size_t(WEXITSTATUS(status));
  }
  return cells_run;
}

/// The merge step (`gs_sweep --resume`): load every cell the workers
/// wrote, compute any that is missing.
std::vector<BurstResult> merge_cells(const std::vector<Scenario>& grid,
                                     const std::string& dir,
                                     SweepCheckpointStats* stats = nullptr) {
  return run_sweep_checkpointed(grid, {dir, /*resume=*/true}, 1, stats);
}

TEST_F(SweepMpTest, MultiprocessMergeBitIdenticalToSingleProcess) {
  const auto grid = small_grid();
  const std::uint64_t fp_ref = sweep_fingerprint(run_sweep(grid, 1));

  // Fresh directory: the workers compute every cell once, the merge none.
  EXPECT_EQ(run_forked_workers(grid, dir_, 2), grid.size());
  SweepCheckpointStats stats;
  const auto results = merge_cells(grid, dir_, &stats);
  EXPECT_EQ(sweep_fingerprint(results), fp_ref);
  EXPECT_EQ(stats.cells_total, grid.size());
  EXPECT_EQ(stats.cells_resumed, grid.size());  // all from the workers
  EXPECT_EQ(stats.cells_run, 0u);
  // Clean finish leaves snapshots but no leases behind.
  for (const auto& entry : fs::directory_iterator(dir_)) {
    EXPECT_NE(entry.path().extension(), ".lease")
        << "leftover lease: " << entry.path();
  }
}

TEST_F(SweepMpTest, SingleWorkerProcessesWholeCampaign) {
  const auto grid = small_grid();
  SweepWorkerOptions opts;
  opts.dir = dir_;
  const auto stats = run_sweep_worker(grid, opts);
  EXPECT_EQ(stats.cells_total, grid.size());
  EXPECT_EQ(stats.cells_run, grid.size());
  EXPECT_EQ(stats.leases_taken_over, 0u);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_TRUE(sweep_ckpt::cell_exists(dir_, i)) << "missing cell " << i;
  }
  // The worker-produced cells merge to the single-process fingerprint.
  EXPECT_EQ(sweep_fingerprint(merge_cells(grid, dir_)),
            sweep_fingerprint(run_sweep(grid, 1)));
}

TEST_F(SweepMpTest, StaleLeaseOfDeadOwnerIsTakenOver) {
  const auto grid = small_grid();
  sweep_ckpt::ensure_manifest(dir_, grid, /*resume=*/false);
  // Leases from a worker that died before computing anything: cells 0 and
  // 3 look claimed, but their owner is provably gone.
  const long corpse = long(dead_pid());
  write_lease(dir_, 0, corpse);
  write_lease(dir_, 3, corpse);

  SweepWorkerOptions opts;
  opts.dir = dir_;
  opts.stale_after_s = 3600.0;  // age alone won't trigger: pid-death must
  const auto stats = run_sweep_worker(grid, opts);
  EXPECT_EQ(stats.cells_run, grid.size());
  EXPECT_EQ(stats.leases_taken_over, 2u);
  EXPECT_EQ(sweep_fingerprint(merge_cells(grid, dir_)),
            sweep_fingerprint(run_sweep(grid, 1)));
}

TEST_F(SweepMpTest, UnreadableLeaseIsTakenOver) {
  const auto grid = small_grid();
  sweep_ckpt::ensure_manifest(dir_, grid, /*resume=*/false);
  // A zero-byte lease (claimant killed between create and write).
  {
    std::ofstream os(fs::path(dir_) / "cell-000001.lease");
  }
  SweepWorkerOptions opts;
  opts.dir = dir_;
  opts.stale_after_s = 3600.0;
  const auto stats = run_sweep_worker(grid, opts);
  EXPECT_EQ(stats.cells_run, grid.size());
  EXPECT_GE(stats.leases_taken_over, 1u);
}

TEST_F(SweepMpTest, WorkerSigkilledMidCellIsRecovered) {
  const auto grid = small_grid();
  sweep_ckpt::ensure_manifest(dir_, grid, /*resume=*/false);

  // Fork a worker frozen "mid-cell" by construction: before working it
  // writes itself a lease on cell 2 that it will never release (its own
  // claim of that cell fails against the live lease), so after finishing
  // every other cell it spins waiting on cell 2 — exactly the state of a
  // worker whose computation never completes. SIGKILL it there: a lease
  // held by a dead pid and a cell with no snapshot.
  const pid_t victim = ::fork();
  ASSERT_GE(victim, 0);
  if (victim == 0) {
    write_lease(dir_, 2, long(::getpid()));
    SweepWorkerOptions opts;
    opts.dir = dir_;
    opts.stale_after_s = 3600.0;  // it must not steal its own lease by age
    try {
      (void)run_sweep_worker(grid, opts);
    } catch (...) {
    }
    ::_exit(0);
  }
  ::usleep(50 * 1000);  // let it work through the claimable cells
  ::kill(victim, SIGKILL);
  int status = 0;
  ::waitpid(victim, &status, 0);
  ASSERT_TRUE(WIFSIGNALED(status));

  SweepWorkerOptions opts;
  opts.dir = dir_;
  const auto survivor = run_sweep_worker(grid, opts);
  EXPECT_GE(survivor.leases_taken_over, 1u);  // the victim's orphan lease
  EXPECT_GE(survivor.cells_run, 1u);          // at least cell 2
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_TRUE(sweep_ckpt::cell_exists(dir_, i)) << "missing cell " << i;
  }
  EXPECT_EQ(sweep_fingerprint(merge_cells(grid, dir_)),
            sweep_fingerprint(run_sweep(grid, 1)));
}

TEST_F(SweepMpTest, SecondMultiprocessRunResumesEverything) {
  const auto grid = small_grid();
  (void)run_forked_workers(grid, dir_, 2);
  (void)merge_cells(grid, dir_);

  // Every cell is on disk: the second round computes nothing.
  EXPECT_EQ(run_forked_workers(grid, dir_, 2), 0u);
  SweepCheckpointStats stats;
  const auto results = merge_cells(grid, dir_, &stats);
  EXPECT_EQ(stats.cells_resumed, grid.size());
  EXPECT_EQ(stats.cells_run, 0u);
  EXPECT_EQ(sweep_fingerprint(results), sweep_fingerprint(run_sweep(grid, 1)));
}

TEST_F(SweepMpTest, ManifestMismatchThrows) {
  const auto grid = small_grid();
  (void)run_forked_workers(grid, dir_, 1);
  (void)merge_cells(grid, dir_);

  auto other = grid;
  other[0].seed += 17;  // different campaign, same cell count
  SweepWorkerOptions opts;
  opts.dir = dir_;
  EXPECT_THROW((void)run_sweep_worker(other, opts), ckpt::SnapshotError);
  EXPECT_THROW((void)merge_cells(other, dir_), ckpt::SnapshotError);
}

TEST_F(SweepMpTest, StormGridMergesBitIdentically) {
  auto grid = small_grid();
  add_storms(grid);
  const std::uint64_t fp_ref = sweep_fingerprint(run_sweep(grid, 1));
  EXPECT_EQ(run_forked_workers(grid, dir_, 2), grid.size());
  EXPECT_EQ(sweep_fingerprint(merge_cells(grid, dir_)), fp_ref);
}

}  // namespace
}  // namespace gs::sim
