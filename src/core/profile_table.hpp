// Exhaustive (workload level, server setting) profile.
//
// The paper measures LoadPower_j(L, S) for every setting and intensity
// level "with a priori knowledge using an exhaustive method on real
// servers" (Section III-B). Our substrate evaluates the calibrated power
// and performance models over the same grid once and memoizes power,
// goodput and tail latency; the strategies and the Hybrid seeding read
// from this table exactly as the paper's PMK reads its profiling records.
#pragma once

#include <memory>
#include <vector>

#include "common/keyed_cache.hpp"
#include "server/power_model.hpp"
#include "server/setting.hpp"
#include "workload/perf_model.hpp"

namespace gs::core {

class ProfileTable {
 public:
  /// Levels L1..Lw partition [0, lambda_max] (paper uses w workload levels
  /// between the minimum and maximum intensity for the application).
  /// lambda_max defaults to the Int=12 burst load.
  ProfileTable(const workload::PerfModel& perf,
               const server::ServerPowerModel& power, int num_levels = 12,
               double lambda_max = 0.0);

  /// Memoized construction. Filling the table evaluates the SLA bisection
  /// over the full (level x setting) grid, which dominates per-cell setup
  /// in sweeps; cells whose app / power-model parameters match share one
  /// immutable table. Keyed on the AppDescriptor's model parameters (name
  /// included), the idle power, and the table shape.
  [[nodiscard]] static std::shared_ptr<const ProfileTable> shared(
      const workload::PerfModel& perf, const server::ServerPowerModel& power,
      int num_levels = 12, double lambda_max = 0.0);

  /// Cache bookkeeping for tests and the perf bench.
  [[nodiscard]] static CacheStats shared_cache_stats();
  static void clear_shared_cache();

  [[nodiscard]] int num_levels() const { return num_levels_; }
  [[nodiscard]] const server::SettingLattice& lattice() const {
    return lattice_;
  }

  /// Level index (0-based) for an offered load; clamps into range.
  [[nodiscard]] int level_for(double lambda) const;
  /// Representative offered load of a level (its upper edge).
  [[nodiscard]] double lambda_for(int level) const;
  [[nodiscard]] double lambda_max() const { return lambda_max_; }

  /// LoadPower(L, S): electrical demand at level `level`, setting index
  /// `setting` (utilization-dependent).
  [[nodiscard]] Watts power(int level, std::size_t setting) const;
  /// The level's LoadPower row: lattice().size() contiguous watts, indexed
  /// by setting. One range check for the row instead of one per setting.
  [[nodiscard]] const double* power_row(int level) const;
  /// SLA-goodput (req/s) at the level/setting.
  [[nodiscard]] double goodput(int level, std::size_t setting) const;
  /// Achieved tail latency at the level/setting.
  [[nodiscard]] Seconds latency(int level, std::size_t setting) const;

  /// Content digest over the table shape and every profiled value,
  /// computed once at construction. Anything derived purely from the
  /// table (e.g. the Hybrid seed bootstrap) can use it as a cache key.
  [[nodiscard]] std::uint64_t fingerprint() const { return fingerprint_; }

 private:
  [[nodiscard]] std::size_t idx(int level, std::size_t setting) const;

  server::SettingLattice lattice_;
  int num_levels_;
  double lambda_max_;
  std::vector<double> power_w_;
  std::vector<double> goodput_;
  std::vector<double> latency_s_;
  std::uint64_t fingerprint_ = 0;
};

}  // namespace gs::core
