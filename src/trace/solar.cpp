#include "trace/solar.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "common/rng.hpp"

namespace gs::trace {

SolarTrace::SolarTrace(std::vector<double> samples, Seconds period)
    : samples_(std::move(samples)), period_(period) {
  GS_REQUIRE(!samples_.empty(), "solar trace needs at least one sample");
  GS_REQUIRE(period.value() > 0.0, "solar trace period must be positive");
}

namespace {

/// floor(x) clamped to [0, n]. The bounds are checked in double first:
/// converting a double outside size_t's range is undefined. NaN maps to 0.
std::size_t clamped_index(double x, std::size_t n) {
  if (!(x > 0.0)) return 0;
  if (x >= double(n)) return n;
  return std::size_t(x);
}

}  // namespace

double SolarTrace::at(Seconds t) const {
  return samples_[clamped_index(t.value() / period_.value(),
                                samples_.size() - 1)];
}

double SolarTrace::mean(Seconds start, Seconds len) const {
  GS_REQUIRE(len.value() > 0.0, "window length must be positive");
  const std::size_t first = clamped_index(
      std::max(0.0, start.value()) / period_.value(), samples_.size());
  const std::size_t last = clamped_index(
      (start.value() + len.value()) / period_.value(), samples_.size());
  if (first >= last) return at(start);
  double sum = 0.0;
  for (std::size_t i = first; i < last; ++i) sum += samples_[i];
  return sum / double(last - first);
}

Seconds SolarTrace::duration() const {
  return Seconds(double(samples_.size()) * period_.value());
}

namespace {

struct Regime {
  double mean;
  double sigma;
};

Regime regime_for(DayType t, const SolarTraceConfig& cfg) {
  switch (t) {
    case DayType::Clear:
      return {cfg.clear_mean, cfg.clear_sigma};
    case DayType::Variable:
      return {cfg.variable_mean, cfg.variable_sigma};
    case DayType::Overcast:
      return {cfg.overcast_mean, cfg.overcast_sigma};
  }
  return {cfg.variable_mean, cfg.variable_sigma};
}

/// Pick the per-day weather regimes: a sticky three-state chain, with the
/// first day forced Clear and the second Overcast so every weekly trace
/// contains max- and min-availability daylight windows.
std::vector<DayType> pick_regimes(const SolarTraceConfig& cfg, Rng& rng) {
  std::vector<DayType> days(std::size_t(std::max(1, cfg.days)));
  for (std::size_t d = 0; d < days.size(); ++d) {
    if (d == 0) {
      days[d] = DayType::Clear;
    } else if (d == 1) {
      days[d] = DayType::Overcast;
    } else if (rng.uniform() < cfg.regime_persistence) {
      days[d] = days[d - 1];
    } else {
      days[d] = DayType(rng.uniform_int(3));
    }
  }
  return days;
}

}  // namespace

double clear_sky_envelope(double hour_of_day, const SolarTraceConfig& cfg) {
  const double hour = std::fmod(std::fmod(hour_of_day, 24.0) + 24.0, 24.0);
  if (hour <= cfg.sunrise_h || hour >= cfg.sunset_h) return 0.0;
  const double phase =
      (hour - cfg.sunrise_h) / (cfg.sunset_h - cfg.sunrise_h);
  return std::pow(std::sin(phase * 3.14159265358979323846),
                  cfg.envelope_exponent);
}

SolarTrace generate_solar_trace(const SolarTraceConfig& cfg) {
  GS_REQUIRE(cfg.days >= 1, "trace needs at least one day");
  GS_REQUIRE(cfg.sunset_h > cfg.sunrise_h, "sunset must follow sunrise");
  Rng rng(cfg.seed);
  const auto regimes = pick_regimes(cfg, rng);

  const double period_s = cfg.sample_period.value();
  const auto samples_per_day = std::size_t(86400.0 / period_s);
  std::vector<double> out;
  out.reserve(samples_per_day * std::size_t(cfg.days));

  // The envelope depends only on the sample's place in the day, so every
  // day reads the same values: evaluate each once, not once per day.
  std::vector<double> envelope(samples_per_day);
  for (std::size_t s = 0; s < samples_per_day; ++s) {
    envelope[s] = clear_sky_envelope(double(s) * period_s / 3600.0, cfg);
  }

  for (int d = 0; d < cfg.days; ++d) {
    const Regime reg = regime_for(regimes[std::size_t(d)], cfg);
    double transmittance = reg.mean;
    for (std::size_t s = 0; s < samples_per_day; ++s) {
      transmittance = cfg.cloud_persistence * transmittance +
                      (1.0 - cfg.cloud_persistence) * reg.mean +
                      reg.sigma * rng.normal();
      transmittance = std::clamp(transmittance, 0.0, 1.0);
      out.push_back(std::clamp(envelope[s] * transmittance, 0.0, 1.0));
    }
  }
  return SolarTrace(std::move(out), cfg.sample_period);
}

bool operator==(const SolarTraceConfig& a, const SolarTraceConfig& b) {
  return a.days == b.days &&
         a.sample_period.value() == b.sample_period.value() &&
         a.sunrise_h == b.sunrise_h && a.sunset_h == b.sunset_h &&
         a.envelope_exponent == b.envelope_exponent &&
         a.clear_mean == b.clear_mean && a.variable_mean == b.variable_mean &&
         a.overcast_mean == b.overcast_mean &&
         a.cloud_persistence == b.cloud_persistence &&
         a.clear_sigma == b.clear_sigma &&
         a.variable_sigma == b.variable_sigma &&
         a.overcast_sigma == b.overcast_sigma &&
         a.regime_persistence == b.regime_persistence && a.seed == b.seed;
}

std::size_t SolarTraceConfigHash::operator()(
    const SolarTraceConfig& cfg) const {
  std::uint64_t h = cfg.seed;
  h = hash_combine(h, std::uint64_t(cfg.days));
  h = hash_combine(h, cfg.sample_period.value());
  h = hash_combine(h, cfg.sunrise_h);
  h = hash_combine(h, cfg.sunset_h);
  h = hash_combine(h, cfg.envelope_exponent);
  h = hash_combine(h, cfg.clear_mean);
  h = hash_combine(h, cfg.variable_mean);
  h = hash_combine(h, cfg.overcast_mean);
  h = hash_combine(h, cfg.cloud_persistence);
  h = hash_combine(h, cfg.clear_sigma);
  h = hash_combine(h, cfg.variable_sigma);
  h = hash_combine(h, cfg.overcast_sigma);
  h = hash_combine(h, cfg.regime_persistence);
  return std::size_t(h);
}

namespace {

struct WindowKey {
  SolarTraceConfig cfg;
  double len_s;
  Availability avail;
  AvailabilityBands bands;

  bool operator==(const WindowKey& o) const {
    return cfg == o.cfg && len_s == o.len_s && avail == o.avail &&
           bands.min_below == o.bands.min_below &&
           bands.med_low == o.bands.med_low &&
           bands.med_high == o.bands.med_high &&
           bands.max_above == o.bands.max_above;
  }
};

struct WindowKeyHash {
  std::size_t operator()(const WindowKey& k) const {
    std::uint64_t h = SolarTraceConfigHash{}(k.cfg);
    h = hash_combine(h, k.len_s);
    h = hash_combine(h, std::uint64_t(k.avail));
    h = hash_combine(h, k.bands.min_below);
    h = hash_combine(h, k.bands.med_low);
    h = hash_combine(h, k.bands.med_high);
    h = hash_combine(h, k.bands.max_above);
    return std::size_t(h);
  }
};

// Process-wide substrate caches. A week-long default trace is ~80 KB, a
// window result one double: capacities are sized for the biggest multi-seed
// replicate sweeps in bench/ with room to spare.
//
// Thread safety: the function-local statics initialize race-free
// ([stmt.dcl]) and KeyedCache is internally synchronized behind a
// capability-annotated gs::Mutex, so sweep cells on the thread pool may
// call these accessors freely; the TSan CI lane runs the sweep
// bit-identity tests over exactly these paths.
KeyedCache<SolarTraceConfig, SolarTrace, SolarTraceConfigHash>& trace_cache() {
  static KeyedCache<SolarTraceConfig, SolarTrace, SolarTraceConfigHash> cache(
      64);
  return cache;
}

KeyedCache<WindowKey, std::optional<Seconds>, WindowKeyHash>& window_cache() {
  static KeyedCache<WindowKey, std::optional<Seconds>, WindowKeyHash> cache(
      512);
  return cache;
}

}  // namespace

std::shared_ptr<const SolarTrace> shared_solar_trace(
    const SolarTraceConfig& cfg) {
  return trace_cache().get_or_create(
      cfg, [&cfg] { return generate_solar_trace(cfg); });
}

std::optional<Seconds> shared_solar_window(const SolarTraceConfig& cfg,
                                           Seconds len, Availability a,
                                           const AvailabilityBands& bands) {
  const WindowKey key{cfg, len.value(), a, bands};
  const auto result = window_cache().get_or_create(key, [&] {
    return find_window(*shared_solar_trace(cfg), len, a, bands);
  });
  return *result;
}

CacheStats solar_cache_stats() {
  const CacheStats t = trace_cache().stats();
  const CacheStats w = window_cache().stats();
  return {t.hits + w.hits, t.misses + w.misses};
}

void clear_solar_cache() {
  trace_cache().clear();
  window_cache().clear();
}

const char* to_string(Availability a) {
  switch (a) {
    case Availability::Min:
      return "Min";
    case Availability::Med:
      return "Med";
    case Availability::Max:
      return "Max";
  }
  return "?";
}

std::optional<Seconds> find_window(const SolarTrace& trace, Seconds len,
                                   Availability a,
                                   const AvailabilityBands& bands) {
  GS_REQUIRE(len.value() > 0.0, "window length must be positive");
  const double period = trace.period().value();
  const auto n = trace.samples().size();
  const std::size_t win =
      clamped_index(std::max(1.0, len.value() / period), n + 1);
  if (win > n) return std::nullopt;

  // Sliding-window mean/variance at sample granularity. Among all windows
  // matching the class, pick the most representative one: the darkest for
  // Min, the brightest for Max, and — for Med — the most *intermittent*
  // (highest in-window variance). Medium availability in the paper is the
  // challenging regime where clouds swing the supply around the sprint
  // demand; a smooth ramp with the same mean would not exercise the PSS.
  double sum = 0.0;
  double sumsq = 0.0;
  for (std::size_t i = 0; i < win; ++i) {
    sum += trace.samples()[i];
    sumsq += trace.samples()[i] * trace.samples()[i];
  }
  std::optional<std::size_t> best;
  double best_score = 0.0;
  for (std::size_t start = 0;; ++start) {
    const double mean = sum / double(win);
    const double var = std::max(0.0, sumsq / double(win) - mean * mean);
    bool match = false;
    double score = 0.0;  // lower is better
    switch (a) {
      case Availability::Min:
        match = mean <= bands.min_below;
        score = mean;
        break;
      case Availability::Med:
        match = mean >= bands.med_low && mean <= bands.med_high;
        score = -var;
        break;
      case Availability::Max:
        match = mean >= bands.max_above;
        score = -mean;
        break;
    }
    if (match && (!best || score < best_score)) {
      best = start;
      best_score = score;
    }
    if (start + win >= n) break;
    const double out = trace.samples()[start];
    const double in = trace.samples()[start + win];
    sum += in - out;
    sumsq += in * in - out * out;
  }
  if (!best) return std::nullopt;
  return Seconds(double(*best) * period);
}

}  // namespace gs::trace
