#include "sim/sweep.hpp"

#include <atomic>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <optional>

#include "ckpt/rotation.hpp"
#include "ckpt/snapshot.hpp"
#include "ckpt/state_io.hpp"
#include "common/assert.hpp"
#include "common/keyed_cache.hpp"
#include "common/thread_annotations.hpp"
#include "common/thread_pool.hpp"
#include "sim/sweep_ckpt.hpp"

namespace gs::sim {

std::vector<BurstResult> run_sweep(const std::vector<Scenario>& scenarios,
                                   std::size_t threads) {
  std::vector<BurstResult> results(scenarios.size());
  if (scenarios.empty()) return results;
  ThreadPool pool(threads);
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  Mutex error_mu;  // guards first_error across worker threads
  parallel_for(
      pool, scenarios.size(),
      [&](std::size_t i) {
        try {
          results[i] = run_burst(scenarios[i]);
        } catch (...) {
          MutexLock lock(error_mu);
          if (!failed.exchange(true)) first_error = std::current_exception();
        }
      },
      /*chunk=*/1);
  if (failed) std::rethrow_exception(first_error);
  return results;
}

namespace sweep_ckpt {

namespace {

constexpr std::uint32_t kSweepManifestVersion = 1;
constexpr std::uint32_t kSweepCellVersion = 1;

/// The manifest is rotated (sweep.manifest.gNNNNNN + pointer) so a torn
/// or bit-rotted newest copy falls back to the previous generation
/// instead of condemning the campaign. Two generations suffice: the
/// manifest is campaign-deterministic, so any intact copy is *the* copy.
constexpr std::uint32_t kManifestKeep = 2;

ckpt::RotatingSnapshot manifest_rotation(const std::string& dir) {
  ckpt::RotationOptions opts;
  opts.keep = kManifestKeep;
  return ckpt::RotatingSnapshot(
      std::filesystem::path(dir) / "sweep.manifest", opts);
}

/// Newest intact manifest payload: rotation generations first, then a
/// plain pre-rotation `sweep.manifest` file. nullopt when nothing on
/// disk validates.
std::optional<std::string> manifest_payload(const std::string& dir) {
  if (auto loaded = manifest_rotation(dir).load_last_known_good()) {
    for (const std::string& note : loaded->notes) {
      std::fprintf(stderr, "sweep manifest recovery: %s\n", note.c_str());
    }
    return std::move(loaded->payload);
  }
  const std::filesystem::path legacy =
      std::filesystem::path(dir) / "sweep.manifest";
  if (std::filesystem::exists(legacy)) {
    try {
      return ckpt::read_snapshot_file(legacy);
    } catch (const ckpt::SnapshotError&) {
      return std::nullopt;
    }
  }
  return std::nullopt;
}

/// True when anything manifest-shaped (intact or not) is on disk.
bool manifest_present(const std::string& dir) {
  return ckpt::RotatingSnapshot::exists(
             std::filesystem::path(dir) / "sweep.manifest") ||
         std::filesystem::exists(std::filesystem::path(dir) /
                                 "sweep.manifest");
}

/// An *intact* manifest that belongs to a different campaign: never
/// self-healed, unlike corruption — the user pointed two sweeps at one
/// directory.
class ManifestMismatch : public ckpt::SnapshotError {
  using SnapshotError::SnapshotError;
};

/// Validate a decoded manifest payload against this campaign; throws
/// ManifestMismatch on a campaign mismatch, SnapshotError (from the
/// StateReader) on a malformed payload.
void check_manifest_payload(const std::string& payload,
                            const std::vector<Scenario>& scenarios) {
  ckpt::StateReader r(payload);
  r.begin_section("sweep_manifest", kSweepManifestVersion);
  const std::uint64_t cells = r.u64();
  if (cells != scenarios.size()) {
    throw ManifestMismatch(
        "sweep manifest describes " + std::to_string(cells) +
        " cells, the requested sweep has " +
        std::to_string(scenarios.size()));
  }
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    if (r.u64() != scenario_fingerprint(scenarios[i])) {
      throw ManifestMismatch(
          "sweep manifest cell " + std::to_string(i) +
          " was produced by a different scenario; delete the checkpoint "
          "directory to start a new campaign");
    }
  }
  r.end_section();
}

}  // namespace

std::string cell_file_name(std::size_t i) {
  std::string idx = std::to_string(i);
  while (idx.size() < 6) idx.insert(idx.begin(), '0');
  return "cell-" + idx + ".gsck";
}

void write_manifest(const std::string& dir,
                    const std::vector<Scenario>& scenarios) {
  ckpt::StateWriter w;
  w.begin_section("sweep_manifest", kSweepManifestVersion);
  w.u64(scenarios.size());
  for (const Scenario& sc : scenarios) w.u64(scenario_fingerprint(sc));
  w.end_section();
  manifest_rotation(dir).write(w.buffer());
}

void check_manifest(const std::string& dir,
                    const std::vector<Scenario>& scenarios) {
  const std::optional<std::string> payload = manifest_payload(dir);
  if (!payload) {
    throw ckpt::SnapshotError("no intact sweep manifest in " + dir);
  }
  check_manifest_payload(*payload, scenarios);
}

void ensure_manifest(const std::string& dir,
                     const std::vector<Scenario>& scenarios, bool resume) {
  namespace fs = std::filesystem;
  fs::create_directories(fs::path(dir));
  if (resume && manifest_present(dir)) {
    if (const std::optional<std::string> payload = manifest_payload(dir)) {
      // An intact manifest from a *different* campaign is a hard error;
      // a malformed payload is handled like corruption below.
      try {
        check_manifest_payload(*payload, scenarios);
        return;
      } catch (const ManifestMismatch&) {
        throw;
      } catch (const ckpt::SnapshotError& e) {
        std::fprintf(stderr,
                     "sweep manifest in %s is malformed (%s); rewriting "
                     "from the campaign definition\n",
                     dir.c_str(), e.what());
      }
    } else {
      // Every copy on disk is damaged. The manifest is derived entirely
      // from the campaign definition, so rewrite it instead of throwing
      // the checkpoint directory away; the per-cell fingerprints still
      // guard against foreign cells.
      std::fprintf(stderr,
                   "sweep manifest in %s is corrupt; rewriting from the "
                   "campaign definition\n",
                   dir.c_str());
    }
  }
  write_manifest(dir, scenarios);
}

void write_cell(const std::string& dir, std::size_t i, const Scenario& sc,
                const BurstResult& result) {
  ckpt::StateWriter w;
  w.begin_section("sweep_cell", kSweepCellVersion);
  w.u64(scenario_fingerprint(sc));
  save_burst_result(w, result);
  w.end_section();
  ckpt::write_snapshot_file(std::filesystem::path(dir) / cell_file_name(i),
                            w.buffer());
}

bool cell_exists(const std::string& dir, std::size_t i) {
  return std::filesystem::exists(std::filesystem::path(dir) /
                                 cell_file_name(i));
}

bool load_cell(const std::string& dir, std::size_t i, const Scenario& sc,
               BurstResult* out) {
  const std::filesystem::path cell =
      std::filesystem::path(dir) / cell_file_name(i);
  if (!std::filesystem::exists(cell)) return false;
  try {
    const std::string payload = ckpt::read_snapshot_file(cell);
    ckpt::StateReader r(payload);
    r.begin_section("sweep_cell", kSweepCellVersion);
    if (r.u64() != scenario_fingerprint(sc)) {
      throw ckpt::SnapshotError("sweep cell fingerprint mismatch");
    }
    *out = load_burst_result(r);
    r.end_section();
    return true;
  } catch (const ckpt::SnapshotError&) {
    // Missing, stale, or corrupt cell snapshot: the caller recomputes.
    return false;
  }
}

}  // namespace sweep_ckpt

std::vector<BurstResult> run_sweep_checkpointed(
    const std::vector<Scenario>& scenarios, const SweepCheckpointOptions& opts,
    std::size_t threads, SweepCheckpointStats* stats) {
  GS_REQUIRE(!opts.dir.empty(), "checkpointed sweep needs a directory");
  sweep_ckpt::ensure_manifest(opts.dir, scenarios, opts.resume);

  std::vector<BurstResult> results(scenarios.size());
  std::vector<char> loaded(scenarios.size(), 0);
  std::size_t resumed = 0;
  if (opts.resume) {
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      if (sweep_ckpt::load_cell(opts.dir, i, scenarios[i], &results[i])) {
        loaded[i] = 1;
        ++resumed;
      }
    }
  }
  if (stats) {
    stats->cells_total = scenarios.size();
    stats->cells_resumed = resumed;
    stats->cells_run = scenarios.size() - resumed;
  }
  if (scenarios.empty()) return results;

  ThreadPool pool(threads);
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  Mutex error_mu;  // guards first_error across worker threads
  parallel_for(
      pool, scenarios.size(),
      [&](std::size_t i) {
        if (loaded[i]) return;
        try {
          results[i] = run_burst(scenarios[i]);
          // Cells write to distinct paths and write_snapshot_file is
          // atomic (temp + rename), so workers need no coordination.
          sweep_ckpt::write_cell(opts.dir, i, scenarios[i], results[i]);
        } catch (...) {
          MutexLock lock(error_mu);
          if (!failed.exchange(true)) first_error = std::current_exception();
        }
      },
      /*chunk=*/1);
  if (failed) std::rethrow_exception(first_error);
  return results;
}

std::uint64_t sweep_fingerprint(const std::vector<BurstResult>& results) {
  std::uint64_t h = 0x5eedf00dull;
  const auto mix_d = [&h](double v) { h = hash_combine(h, v); };
  const auto mix_u = [&h](std::uint64_t v) { h = hash_combine(h, v); };
  mix_u(results.size());
  for (const auto& r : results) {
    mix_d(r.mean_goodput);
    mix_d(r.normal_goodput);
    mix_d(r.normalized_perf);
    mix_d(r.final_battery_dod);
    mix_d(r.battery_cycles);
    mix_d(r.re_energy_used.value());
    mix_d(r.batt_energy_used.value());
    mix_d(r.grid_energy_used.value());
    mix_d(r.window_start.value());
    mix_u(r.degraded_epochs);
    mix_u(r.crash_epochs);
    mix_d(r.fault_downtime.value());
    mix_u(r.epochs.size());
    for (const auto& e : r.epochs) {
      mix_d(e.time.value());
      mix_u(std::uint64_t(e.setting.cores));
      mix_d(e.setting.frequency().value());
      mix_u(std::uint64_t(e.power_case));
      mix_d(e.offered_load);
      mix_d(e.goodput);
      mix_d(e.latency.value());
      mix_d(e.demand.value());
      mix_d(e.re_used.value());
      mix_d(e.batt_used.value());
      mix_d(e.grid_used.value());
      mix_d(e.re_available.value());
      mix_d(e.battery_soc);
      mix_u((std::uint64_t(e.downgraded) << 3) |
            (std::uint64_t(e.faulted) << 2) | (std::uint64_t(e.crashed) << 1) |
            std::uint64_t(e.degraded));
    }
  }
  return h;
}

std::vector<double> sweep_normalized_perf(
    const std::vector<Scenario>& scenarios, std::size_t threads) {
  const auto results = run_sweep(scenarios, threads);
  std::vector<double> perf;
  perf.reserve(results.size());
  for (const auto& r : results) perf.push_back(r.normalized_perf);
  return perf;
}

RunningStats replicate_normalized_perf(Scenario scenario, int replicas,
                                       std::size_t threads) {
  GS_REQUIRE(replicas >= 1, "need at least one replica");
  std::vector<Scenario> cells;
  cells.reserve(std::size_t(replicas));
  for (int i = 0; i < replicas; ++i) {
    cells.push_back(scenario);
    cells.back().seed = scenario.seed + std::uint64_t(i);
  }
  const auto perf = sweep_normalized_perf(cells, threads);
  RunningStats stats;
  for (double p : perf) stats.add(p);
  return stats;
}

}  // namespace gs::sim
