#include "faults/fault_schedule.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>
#include <sstream>

#include "common/assert.hpp"
#include "common/rng.hpp"

namespace gs::faults {

namespace {

constexpr std::uint64_t kFaultStreamTag = 0xfa170ull;
// Per-(trigger, neighbour) cascade draws; disjoint from the candidate and
// latent-process streams so cascades never perturb either.
constexpr std::uint64_t kCascadeStreamTag = 0xca5cull;

/// Boolean classes are either fully in effect or absent.
bool is_boolean(FaultClass c) {
  return c == FaultClass::PssStuck || c == FaultClass::ServerCrash ||
         c == FaultClass::SensorDropout;
}

bool is_server_targeted(FaultClass c) {
  return c == FaultClass::ServerCrash || c == FaultClass::ServerStraggler;
}

/// Mean spacing between candidate events, in epochs. Wear-like classes
/// (fade, charge loss) occur rarely but persist long.
double candidate_spacing_epochs(FaultClass c) {
  switch (c) {
    case FaultClass::BatteryFade:
    case FaultClass::ChargeLoss:
      return 16.0;
    case FaultClass::CloudTransient:
    case FaultClass::SensorNoise:
      return 4.0;
    default:
      return 8.0;
  }
}

/// Duration of one candidate, in epochs (uniform in [lo, hi]).
std::pair<int, int> duration_epochs(FaultClass c) {
  switch (c) {
    case FaultClass::BatteryFade:
    case FaultClass::ChargeLoss:
      return {4, 20};
    case FaultClass::PssLatency:
    case FaultClass::SensorNoise:
    case FaultClass::SensorDropout:
      return {1, 3};
    default:
      return {1, 8};
  }
}

/// An untargeted event hits every target, and an untargeted query matches
/// every event.
bool hits_target(const FaultEvent& ev, int target) {
  return ev.target < 0 || target < 0 || ev.target == target;
}

FaultClass class_from_name(const std::string& name) {
  for (FaultClass c : all_fault_classes()) {
    if (name == to_string(c)) return c;
  }
  GS_REQUIRE(false, "unknown fault class name '" + name + "'");
  return FaultClass::GridBrownout;
}

}  // namespace

const char* to_string(FaultOrigin o) {
  switch (o) {
    case FaultOrigin::Independent:
      return "Independent";
    case FaultOrigin::Storm:
      return "Storm";
    case FaultOrigin::Cascade:
      return "Cascade";
  }
  return "?";
}

FaultSchedule FaultSchedule::generate(const FaultSpec& spec,
                                      const CorrelationSpec& corr,
                                      Seconds horizon, Seconds epoch,
                                      int servers) {
  GS_REQUIRE(horizon.value() >= 0.0, "fault horizon must be non-negative");
  GS_REQUIRE(epoch.value() > 0.0, "fault epoch must be positive");
  GS_REQUIRE(servers >= 1, "fault schedule needs at least one server");
  FaultSchedule sched;
  sched.spec_ = spec;
  // A disabled spec keeps the inert default model: its activation_scale is
  // exactly 1.0, so the loop below reproduces the independent schedule.
  if (corr.enabled()) sched.storm_ = StormModel(spec, corr, horizon, epoch);
  // A zero spec stays fault-free: correlation modulates intensities, it
  // cannot conjure faults from none.
  if (!spec.any() || horizon.value() <= 0.0) return sched;

  const double n_epochs = horizon.value() / epoch.value();
  for (FaultClass c : all_fault_classes()) {
    const double intensity = spec.intensity(c);
    // Candidates are drawn independently of intensity and correlation, so
    // schedules nest (see header): correlation reshapes only the activating
    // *subset* (and the applied magnitudes).
    Rng rng = Rng::stream(spec.seed, {kFaultStreamTag, std::uint64_t(c)});
    const auto n_candidates = std::max<std::uint64_t>(
        1, std::uint64_t(n_epochs / candidate_spacing_epochs(c)));
    const auto [dur_lo, dur_hi] = duration_epochs(c);
    for (std::uint64_t i = 0; i < n_candidates; ++i) {
      // Draw every field unconditionally: the stream position must not
      // depend on which candidates activate.
      const double start_frac = rng.uniform();
      const auto dur_epochs =
          dur_lo + std::int64_t(rng.uniform_int(
                       std::uint64_t(dur_hi - dur_lo + 1)));
      const double severity_base = rng.uniform(0.3, 1.0);
      const double activation = rng.uniform();
      const int target =
          is_server_targeted(c) ? int(rng.uniform_int(std::uint64_t(servers)))
                                : -1;
      const Seconds start{start_frac * horizon.value()};
      const double eff = std::clamp(
          intensity * sched.storm_.activation_scale(c, start), 0.0, 1.0);
      if (eff <= 0.0 || activation >= eff) continue;
      FaultEvent ev;
      ev.cls = c;
      ev.start = start;
      ev.duration = epoch * double(dur_epochs);
      ev.magnitude = is_boolean(c) ? 1.0 : std::min(0.95, severity_base * eff);
      ev.target = target;
      // Would the candidate have fired without the latent boost?
      ev.origin = activation < intensity ? FaultOrigin::Independent
                                         : FaultOrigin::Storm;
      sched.events_.push_back(ev);
    }
  }

  if (corr.cascade_hazard > 0.0) {
    // Single-generation propagation: only the base events above trigger,
    // cascade crashes never re-trigger, so the storm is bounded by
    // construction (at most servers-1 children per trigger, each within
    // cascade_window_epochs of its trigger's start).
    const std::uint64_t seed = corr.seed != 0 ? corr.seed : spec.seed;
    const RackTopology topo{servers, corr.servers_per_rack};
    std::vector<FaultEvent> cascades;
    std::uint64_t trigger_idx = 0;
    for (const FaultEvent& trig : sched.events_) {
      const bool rack_trigger = trig.cls == FaultClass::ServerCrash;
      const bool pss_trigger = trig.cls == FaultClass::PssStuck;
      if (!rack_trigger && !pss_trigger) continue;
      for (int s = 0; s < servers; ++s) {
        // A crash endangers its rack neighbours; a stuck PSS is shared
        // infrastructure and endangers every server.
        if (rack_trigger && trig.target >= 0 &&
            (s == trig.target || !topo.same_rack(s, trig.target))) {
          continue;
        }
        Rng rng = Rng::stream(
            seed, {kCascadeStreamTag, trigger_idx, std::uint64_t(s)});
        const auto window = std::uint64_t(corr.cascade_window_epochs);
        const auto delay_epochs = 1 + std::int64_t(rng.uniform_int(window));
        const auto crash_epochs = 1 + std::int64_t(rng.uniform_int(window));
        const double activation = rng.uniform();
        if (activation >= corr.cascade_hazard) continue;
        const Seconds start = trig.start + epoch * double(delay_epochs);
        if (start.value() >= horizon.value()) continue;
        FaultEvent ev;
        ev.cls = FaultClass::ServerCrash;
        ev.start = start;
        ev.duration = epoch * double(crash_epochs);
        ev.magnitude = 1.0;
        ev.target = s;
        ev.origin = FaultOrigin::Cascade;
        cascades.push_back(ev);
      }
      ++trigger_idx;
    }
    sched.events_.insert(sched.events_.end(), cascades.begin(),
                         cascades.end());
  }

  std::stable_sort(sched.events_.begin(), sched.events_.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.start.value() < b.start.value();
                   });
  sched.build_index();
  return sched;
}

double FaultSchedule::magnitude_at(FaultClass c, Seconds t, int target) const {
  double survive = 1.0;
  for_each_covering(t, [&](const FaultEvent& ev) {
    if (ev.cls == c && hits_target(ev, target)) survive *= 1.0 - ev.magnitude;
  });
  return 1.0 - survive;
}

bool FaultSchedule::active(FaultClass c, Seconds t, int target) const {
  bool any = false;
  for_each_covering(t, [&](const FaultEvent& ev) {
    any = any || (ev.cls == c && hits_target(ev, target));
  });
  return any;
}

bool FaultSchedule::correlated_active(FaultClass c, Seconds t,
                                      int target) const {
  bool any = false;
  for_each_covering(t, [&](const FaultEvent& ev) {
    any = any || (ev.origin != FaultOrigin::Independent && ev.cls == c &&
                  hits_target(ev, target));
  });
  return any;
}

void FaultSchedule::build_index() {
  by_start_.clear();
  longest_ = 0.0;
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const FaultEvent& ev = events_[i];
    if (!std::isfinite(ev.start.value()) || !(ev.duration.value() > 0.0)) {
      continue;
    }
    by_start_.push_back(i);
    longest_ = std::max(longest_, ev.duration.value());
  }
  std::stable_sort(by_start_.begin(), by_start_.end(),
                   [this](std::size_t a, std::size_t b) {
                     return events_[a].start.value() < events_[b].start.value();
                   });
}

std::string FaultSchedule::to_csv() const {
  std::ostringstream out;
  // Shortest-exact doubles: a replayed incident must re-run bit for bit.
  out << std::setprecision(std::numeric_limits<double>::max_digits10);
  out << "class,start_s,duration_s,magnitude,target,origin\n";
  for (const auto& ev : events_) {
    out << to_string(ev.cls) << "," << ev.start.value() << ","
        << ev.duration.value() << "," << ev.magnitude << "," << ev.target
        << "," << int(ev.origin) << "\n";
  }
  return out.str();
}

FaultSchedule FaultSchedule::from_csv(const std::string& text) {
  FaultSchedule sched;
  std::istringstream in(text);
  std::string line;
  bool header = true;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (header) {
      header = false;
      continue;
    }
    std::istringstream fields(line);
    std::string cls, start, dur, mag, target, origin;
    GS_REQUIRE(std::getline(fields, cls, ',') &&
                   std::getline(fields, start, ',') &&
                   std::getline(fields, dur, ',') &&
                   std::getline(fields, mag, ',') &&
                   std::getline(fields, target, ','),
               "fault schedule CSV row needs 5 fields: " + line);
    // The origin column is optional: pre-correlation captures lack it.
    const bool has_origin = bool(std::getline(fields, origin, ','));
    FaultEvent ev;
    ev.cls = class_from_name(cls);
    int origin_num = 0;
    try {
      ev.start = Seconds(std::stod(start));
      ev.duration = Seconds(std::stod(dur));
      ev.magnitude = std::stod(mag);
      ev.target = std::stoi(target);
      if (has_origin) origin_num = std::stoi(origin);
    } catch (...) {
      GS_REQUIRE(false, "bad numeric field in fault schedule CSV: " + line);
    }
    GS_REQUIRE(origin_num >= 0 && origin_num <= int(FaultOrigin::Cascade),
               "fault origin out of range in CSV: " + line);
    ev.origin = FaultOrigin(origin_num);
    GS_REQUIRE(ev.magnitude >= 0.0 && ev.magnitude <= 1.0,
               "fault magnitude must be in [0,1]");
    sched.events_.push_back(ev);
  }
  sched.build_index();
  return sched;
}

}  // namespace gs::faults
