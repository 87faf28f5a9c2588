// gs:durable-io
#include "sim/sweep_mp.hpp"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <ctime>
#include <fcntl.h>
#include <filesystem>
#include <optional>
#include <string>
#include <sys/stat.h>
#include <sys/types.h>
#include <thread>
#include <unistd.h>

#include "common/assert.hpp"
#include "common/io.hpp"
#include "sim/sweep_ckpt.hpp"

namespace gs::sim {

namespace {

namespace fs = std::filesystem;

/// Failpoint sites on the lease protocol (see DESIGN.md §17).
constexpr const char* kFailpointLeaseClaim = "sweep.lease.claim";
constexpr const char* kFailpointLeaseSteal = "sweep.lease.steal";

std::string lease_file_name(std::size_t i) {
  std::string idx = std::to_string(i);
  while (idx.size() < 6) idx.insert(idx.begin(), '0');
  return "cell-" + idx + ".lease";
}

fs::path lease_path(const std::string& dir, std::size_t i) {
  return fs::path(dir) / lease_file_name(i);
}

/// Atomic test-and-set: io::exclusive_create succeeds for exactly one
/// claimant and publishes the lease together with its body, the owner's
/// pid (ASCII) for liveness probes. An
/// injected I/O failure (chaos lane) counts as a lost claim: the worker
/// moves on and the cell is picked up by someone else — or by this
/// worker's next pass, once the half-created lease goes stale.
bool try_claim_lease(const fs::path& lease) {
  try {
    const std::string body = std::to_string(::getpid()) + "\n";
    return io::exclusive_create(lease, body, kFailpointLeaseClaim);
  } catch (const io::IoError&) {
    return false;
  }
}

/// Owner pid recorded in the lease (0 when unreadable), or nullopt when
/// the lease no longer exists.
std::optional<long> lease_owner_pid(const fs::path& lease) {
  std::FILE* f = std::fopen(lease.c_str(), "r");
  if (f == nullptr) {
    if (errno == ENOENT) return std::nullopt;
    return 0;
  }
  long pid = 0;
  if (std::fscanf(f, "%ld", &pid) != 1) pid = 0;
  std::fclose(f);
  return pid;
}

/// A lease is stale when its recorded owner is provably dead, or when it
/// has sat untouched longer than stale_after_s (the cross-host fallback —
/// pid probes only see this machine).
bool lease_is_stale(const fs::path& lease, double stale_after_s) {
  const std::optional<long> pid = lease_owner_pid(lease);
  // Released (or stolen) since the failed claim: whoever claims it next
  // may be alive, so nothing here is stale.
  if (!pid) return false;
  if (*pid > 0) {
    if (::kill(pid_t(*pid), 0) == 0) {
      // Owner alive: stale only by age.
    } else if (errno == ESRCH) {
      return true;  // owner is gone
    }
  } else if (*pid == 0) {
    return true;  // unreadable or half-written body
  }
  struct stat st {};
  if (::stat(lease.c_str(), &st) != 0) return false;  // raced away
  // Lease aging is wall-clock by nature: it measures how long a real OS
  // process has been silent, not simulated time.
  const std::time_t now = std::time(nullptr);  // gs-lint: allow(wall-clock)
  const double age_s = std::difftime(now, st.st_mtime);
  return age_s > stale_after_s;
}

/// Take over a stale lease: atomically rename it aside to a name unique
/// to this (pid, sequence), so exactly one of several concurrent
/// claimants wins the rename (the losers get ENOENT). The winner unlinks
/// the aside file and is then free to re-claim through try_claim_lease —
/// which it still races for fairly.
bool steal_stale_lease(const fs::path& lease, std::uint64_t seq) {
  const fs::path aside = lease.string() + ".stale." +
                         std::to_string(::getpid()) + "." +
                         std::to_string(seq);
  try {
    io::rename_file(lease, aside, kFailpointLeaseSteal);
  } catch (const io::IoError&) {
    // Lost the rename race (ENOENT) or an injected failure: either way
    // someone else owns the takeover.
    return false;
  }
  ::unlink(aside.c_str());
  return true;
}

}  // namespace

SweepWorkerStats run_sweep_worker(const std::vector<Scenario>& scenarios,
                                  const SweepWorkerOptions& opts) {
  GS_REQUIRE(!opts.dir.empty(), "sweep worker needs a directory");
  GS_REQUIRE(opts.stale_after_s > 0.0, "stale lease age must be positive");
  sweep_ckpt::ensure_manifest(opts.dir, scenarios, /*resume=*/true);

  SweepWorkerStats stats;
  stats.cells_total = scenarios.size();
  std::vector<char> done(scenarios.size(), 0);
  std::uint64_t steal_seq = 0;
  for (;;) {
    std::size_t remaining = 0;
    bool progressed = false;
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      if (done[i]) continue;
      if (sweep_ckpt::cell_exists(opts.dir, i)) {
        // Finished by us on an earlier pass or by another worker; any
        // orphan lease beside it is irrelevant — the cell file wins.
        done[i] = 1;
        continue;
      }
      const fs::path lease = lease_path(opts.dir, i);
      bool claimed = try_claim_lease(lease);
      if (!claimed && lease_is_stale(lease, opts.stale_after_s)) {
        if (steal_stale_lease(lease, steal_seq++)) {
          ++stats.leases_taken_over;
        }
        claimed = try_claim_lease(lease);
      }
      if (!claimed) {
        // A live worker owns this cell; revisit on the next pass.
        ++remaining;
        continue;
      }
      if (sweep_ckpt::cell_exists(opts.dir, i)) {
        // A peer finished the cell and released its lease between the
        // check above and this claim: the cell file wins.
        ::unlink(lease.c_str());
        done[i] = 1;
        continue;
      }
      const BurstResult result = run_burst(scenarios[i]);
      sweep_ckpt::write_cell(opts.dir, i, scenarios[i], result);
      ::unlink(lease.c_str());
      done[i] = 1;
      ++stats.cells_run;
      progressed = true;
    }
    if (remaining == 0) return stats;
    if (!progressed) {
      // Every remaining cell is leased by a live worker: wait for its
      // snapshot to appear (or its lease to go stale) and rescan.
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
}

}  // namespace gs::sim
