#include "faults/correlation.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/assert.hpp"
#include "common/rng.hpp"

namespace gs::faults {

namespace {

// Latent-process streams are disjoint from the base generator's candidate
// streams (faults/fault_schedule.cpp uses 0xfa170), so enabling correlation
// never advances — and therefore never perturbs — the candidate draws.
constexpr std::uint64_t kFrontStreamTag = 0xf207ull;
constexpr std::uint64_t kRegimeStreamTag = 0x4e91ull;

}  // namespace

bool is_weather_class(FaultClass c) {
  return c == FaultClass::PanelDropout || c == FaultClass::CloudTransient ||
         c == FaultClass::GridBrownout;
}

int RackTopology::rack_of(int server) const {
  GS_REQUIRE(server >= 0 && server < servers,
             "server index outside rack topology");
  return server / std::max(1, servers_per_rack);
}

bool RackTopology::same_rack(int a, int b) const {
  return rack_of(a) == rack_of(b);
}

bool CorrelationSpec::enabled() const {
  return storm_intensity > 0.0 || cascade_hazard > 0.0 || regime_on > 0.0;
}

CorrelationSpec CorrelationSpec::parse(const std::string& text) {
  CorrelationSpec spec;
  std::istringstream in(text);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (item.empty()) continue;
    const auto eq = item.find('=');
    GS_REQUIRE(eq != std::string::npos,
               "correlation spec entry '" + item + "' is not key=value");
    const std::string key = item.substr(0, eq);
    const std::string val = item.substr(eq + 1);
    double num = 0.0;
    try {
      num = std::stod(val);
    } catch (...) {
      GS_REQUIRE(false,
                 "correlation spec value '" + val + "' is not a number");
    }
    if (key == "storm") {
      GS_REQUIRE(num >= 0.0 && num <= 1.0, "storm must be in [0,1]");
      spec.storm_intensity = num;
    } else if (key == "front_spacing") {
      GS_REQUIRE(num > 0.0, "front_spacing must be positive");
      spec.front_spacing_epochs = num;
    } else if (key == "front_min") {
      GS_REQUIRE(num >= 1.0, "front_min must be >= 1 epoch");
      spec.front_min_epochs = int(num);
    } else if (key == "front_max") {
      GS_REQUIRE(num >= 1.0, "front_max must be >= 1 epoch");
      spec.front_max_epochs = int(num);
    } else if (key == "front_boost") {
      GS_REQUIRE(num > 0.0, "front_boost must be positive");
      spec.front_boost = num;
    } else if (key == "cascade") {
      GS_REQUIRE(num >= 0.0 && num <= 1.0, "cascade must be in [0,1]");
      spec.cascade_hazard = num;
    } else if (key == "cascade_window") {
      GS_REQUIRE(num >= 1.0, "cascade_window must be >= 1 epoch");
      spec.cascade_window_epochs = int(num);
    } else if (key == "rack") {
      GS_REQUIRE(num >= 1.0, "rack (servers per rack) must be >= 1");
      spec.servers_per_rack = int(num);
    } else if (key == "regime_on") {
      GS_REQUIRE(num >= 0.0 && num <= 1.0, "regime_on must be in [0,1]");
      spec.regime_on = num;
    } else if (key == "regime_off") {
      GS_REQUIRE(num > 0.0 && num <= 1.0, "regime_off must be in (0,1]");
      spec.regime_off = num;
    } else if (key == "regime_boost") {
      GS_REQUIRE(num > 0.0, "regime_boost must be positive");
      spec.regime_boost = num;
    } else if (key == "regime_damp") {
      GS_REQUIRE(num >= 0.0, "regime_damp must be non-negative");
      spec.regime_damp = num;
    } else if (key == "seed") {
      GS_REQUIRE(num >= 0.0, "correlation seed must be non-negative");
      spec.seed = std::uint64_t(num);
    } else {
      GS_REQUIRE(false, "unknown key '" + key + "' in correlation spec");
    }
  }
  GS_REQUIRE(spec.front_min_epochs <= spec.front_max_epochs,
             "front_min must not exceed front_max");
  return spec;
}

std::string CorrelationSpec::to_string() const {
  const CorrelationSpec def;
  std::ostringstream out;
  bool first = true;
  const auto emit = [&](const char* key, auto v, auto dv) {
    if (v == dv) return;
    if (!first) out << ",";
    out << key << "=" << v;
    first = false;
  };
  emit("storm", storm_intensity, def.storm_intensity);
  emit("front_spacing", front_spacing_epochs, def.front_spacing_epochs);
  emit("front_min", front_min_epochs, def.front_min_epochs);
  emit("front_max", front_max_epochs, def.front_max_epochs);
  emit("front_boost", front_boost, def.front_boost);
  emit("cascade", cascade_hazard, def.cascade_hazard);
  emit("cascade_window", cascade_window_epochs, def.cascade_window_epochs);
  emit("rack", servers_per_rack, def.servers_per_rack);
  emit("regime_on", regime_on, def.regime_on);
  emit("regime_off", regime_off, def.regime_off);
  emit("regime_boost", regime_boost, def.regime_boost);
  emit("regime_damp", regime_damp, def.regime_damp);
  emit("seed", seed, def.seed);
  return out.str();
}

StormModel::StormModel(const FaultSpec& spec, const CorrelationSpec& corr,
                       Seconds horizon, Seconds epoch)
    : corr_(corr) {
  GS_REQUIRE(horizon.value() >= 0.0, "storm horizon must be non-negative");
  GS_REQUIRE(epoch.value() > 0.0, "storm epoch must be positive");
  GS_REQUIRE(corr.front_min_epochs >= 1 &&
                 corr.front_max_epochs >= corr.front_min_epochs,
             "front length bounds must satisfy 1 <= min <= max");
  if (!corr.enabled() || horizon.value() <= 0.0) return;
  const std::uint64_t seed = corr.seed != 0 ? corr.seed : spec.seed;
  const double n_epochs = horizon.value() / epoch.value();

  if (corr.storm_intensity > 0.0) {
    Rng rng = Rng::stream(seed, {kFrontStreamTag});
    const auto n_fronts = std::max<std::uint64_t>(
        1, std::uint64_t(n_epochs / corr.front_spacing_epochs));
    const auto span =
        std::uint64_t(corr.front_max_epochs - corr.front_min_epochs + 1);
    for (std::uint64_t i = 0; i < n_fronts; ++i) {
      // Unconditional draws, like the base generator's candidates: the
      // front population is intensity-independent, so fronts nest in
      // storm_intensity and the stream position never depends on which
      // fronts activate.
      const double start_frac = rng.uniform();
      const auto len_epochs =
          corr.front_min_epochs + std::int64_t(rng.uniform_int(span));
      const double latent = rng.uniform(0.3, 1.0);
      const double activation = rng.uniform();
      if (activation >= corr.storm_intensity) continue;
      StormFront f;
      f.start = Seconds(start_frac * horizon.value());
      f.duration = epoch * double(len_epochs);
      f.intensity = latent;
      fronts_.push_back(f);
    }
    std::stable_sort(fronts_.begin(), fronts_.end(),
                     [](const StormFront& a, const StormFront& b) {
                       return a.start.value() < b.start.value();
                     });
  }

  if (corr.regime_on > 0.0) {
    // Two-state Markov chain iterated once per epoch; a single draw per
    // epoch serves both transition tests, so the realized windows are a
    // pure function of (seed, regime_on, regime_off, horizon, epoch).
    Rng rng = Rng::stream(seed, {kRegimeStreamTag});
    bool stormy = false;
    Seconds open{0.0};
    const auto total = std::uint64_t(std::ceil(n_epochs));
    for (std::uint64_t k = 0; k < total; ++k) {
      const double u = rng.uniform();
      const Seconds t = epoch * double(k);
      if (!stormy && u < corr.regime_on) {
        stormy = true;
        open = t;
      } else if (stormy && u < corr.regime_off) {
        stormy = false;
        regimes_.push_back({open, t});
      }
    }
    if (stormy) regimes_.push_back({open, horizon});
  }
}

double StormModel::weather_boost(FaultClass c, Seconds t) const {
  if (!is_weather_class(c) || fronts_.empty()) return 1.0;
  double boost = 1.0;
  for (const StormFront& f : fronts_) {
    if (f.covers(t)) boost *= 1.0 + (corr_.front_boost - 1.0) * f.intensity;
  }
  return boost;
}

double StormModel::regime_factor(Seconds t) const {
  if (corr_.regime_on <= 0.0) return 1.0;
  for (const RegimeWindow& w : regimes_) {
    if (w.covers(t)) return corr_.regime_boost;
  }
  return corr_.regime_damp;
}

}  // namespace gs::faults
