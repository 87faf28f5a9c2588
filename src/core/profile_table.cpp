#include "core/profile_table.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/assert.hpp"

namespace gs::core {

namespace {

/// Everything the table's contents depend on: the app's service/power
/// parameters, the power model's idle anchor, and the table shape.
struct ProfileKey {
  std::string app_name;
  double base_service_s;
  double freq_sensitivity;
  double congestion_delta;
  double qos_percentile;
  double qos_limit_s;
  double normal_full_w;
  double sprint_peak_w;
  double core_static_w;
  double kappa;
  double idle_w;
  int num_levels;
  double lambda_max;

  bool operator==(const ProfileKey& o) const = default;
};

struct ProfileKeyHash {
  std::size_t operator()(const ProfileKey& k) const {
    std::uint64_t h = 0x9e0f11eull;
    for (char c : k.app_name) h = hash_combine(h, std::uint64_t(c));
    h = hash_combine(h, k.base_service_s);
    h = hash_combine(h, k.freq_sensitivity);
    h = hash_combine(h, k.congestion_delta);
    h = hash_combine(h, k.qos_percentile);
    h = hash_combine(h, k.qos_limit_s);
    h = hash_combine(h, k.normal_full_w);
    h = hash_combine(h, k.sprint_peak_w);
    h = hash_combine(h, k.core_static_w);
    h = hash_combine(h, k.kappa);
    h = hash_combine(h, k.idle_w);
    h = hash_combine(h, std::uint64_t(k.num_levels));
    h = hash_combine(h, k.lambda_max);
    return std::size_t(h);
  }
};

// Process-wide shared-table cache. Thread safety: race-free static
// initialization plus an internally synchronized (capability-annotated)
// KeyedCache; safe to call from concurrent sweep cells.
KeyedCache<ProfileKey, ProfileTable, ProfileKeyHash>& profile_cache() {
  static KeyedCache<ProfileKey, ProfileTable, ProfileKeyHash> cache(32);
  return cache;
}

ProfileKey make_key(const workload::AppDescriptor& app,
                    const server::ServerPowerModel& power, int num_levels,
                    double lambda_max) {
  return ProfileKey{app.name,
                    app.base_service_s,
                    app.freq_sensitivity,
                    app.congestion_delta,
                    app.qos.percentile,
                    app.qos.limit.value(),
                    app.normal_full_power.value(),
                    app.sprint_peak_power.value(),
                    app.activity.core_static_w,
                    app.activity.kappa,
                    power.idle_power().value(),
                    num_levels,
                    lambda_max};
}

}  // namespace

std::shared_ptr<const ProfileTable> ProfileTable::shared(
    const workload::PerfModel& perf, const server::ServerPowerModel& power,
    int num_levels, double lambda_max) {
  const ProfileKey key = make_key(perf.app(), power, num_levels, lambda_max);
  return profile_cache().get_or_create(key, [&] {
    return ProfileTable(perf, power, num_levels, lambda_max);
  });
}

CacheStats ProfileTable::shared_cache_stats() {
  return profile_cache().stats();
}

void ProfileTable::clear_shared_cache() { profile_cache().clear(); }

ProfileTable::ProfileTable(const workload::PerfModel& perf,
                           const server::ServerPowerModel& power,
                           int num_levels, double lambda_max)
    : num_levels_(num_levels),
      lambda_max_(lambda_max > 0.0 ? lambda_max
                                   : perf.intensity_load(server::kMaxCores)) {
  GS_REQUIRE(num_levels_ >= 1, "profile needs at least one level");
  const auto n_settings = lattice_.size();
  const auto total = std::size_t(num_levels_) * n_settings;
  power_w_.resize(total);
  goodput_.resize(total);
  latency_s_.resize(total);
  for (int l = 0; l < num_levels_; ++l) {
    const double lambda = lambda_for(l);
    for (std::size_t s = 0; s < n_settings; ++s) {
      const auto& setting = lattice_.at(s);
      const double u = perf.utilization(setting, lambda);
      power_w_[idx(l, s)] =
          power.power(setting, u, perf.app().activity).value();
      goodput_[idx(l, s)] = perf.goodput(setting, lambda);
      latency_s_[idx(l, s)] = perf.latency(setting, lambda).value();
    }
  }
  std::uint64_t h = 0x9e0f11e2ull;
  h = hash_combine(h, std::uint64_t(num_levels_));
  h = hash_combine(h, lambda_max_);
  h = hash_combine(h, std::uint64_t(n_settings));
  for (double v : power_w_) h = hash_combine(h, v);
  for (double v : goodput_) h = hash_combine(h, v);
  for (double v : latency_s_) h = hash_combine(h, v);
  fingerprint_ = h;
}

int ProfileTable::level_for(double lambda) const {
  GS_REQUIRE(lambda >= 0.0, "load must be non-negative");
  const double frac = lambda / lambda_max_;
  const int level = int(std::ceil(frac * num_levels_)) - 1;
  return std::clamp(level, 0, num_levels_ - 1);
}

double ProfileTable::lambda_for(int level) const {
  GS_REQUIRE(level >= 0 && level < num_levels_, "level out of range");
  return lambda_max_ * double(level + 1) / double(num_levels_);
}

Watts ProfileTable::power(int level, std::size_t setting) const {
  return Watts(power_w_[idx(level, setting)]);
}

const double* ProfileTable::power_row(int level) const {
  GS_REQUIRE(level >= 0 && level < num_levels_, "level out of range");
  return &power_w_[std::size_t(level) * lattice_.size()];
}

double ProfileTable::goodput(int level, std::size_t setting) const {
  return goodput_[idx(level, setting)];
}

Seconds ProfileTable::latency(int level, std::size_t setting) const {
  return Seconds(latency_s_[idx(level, setting)]);
}

std::size_t ProfileTable::idx(int level, std::size_t setting) const {
  GS_REQUIRE(level >= 0 && level < num_levels_, "level out of range");
  GS_REQUIRE(setting < lattice_.size(), "setting out of range");
  return std::size_t(level) * lattice_.size() + setting;
}

}  // namespace gs::core
