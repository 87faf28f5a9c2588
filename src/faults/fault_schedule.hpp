// Deterministic, seed-driven fault event schedule.
//
// The generator draws a fixed population of *candidate* events per fault
// class from Rng::stream(seed, {class}) — starts, durations, severities and
// targets are sampled independently of the spec's intensities. A candidate
// activates iff its activation draw falls below the class intensity, and
// its applied magnitude scales with the intensity. Two consequences:
//
//  * identical (spec, horizon, epoch, servers) inputs replay the identical
//    event stream (the determinism acceptance criterion), and
//  * schedules are *nested* in intensity — the events active at 0.2 are a
//    subset of those active at 0.4, with weaker magnitudes — so the
//    resilience bench's QoS-vs-intensity curves degrade monotonically
//    instead of resampling an unrelated failure history per point.
//
// generate_correlated() layers the latent processes of faults/correlation.hpp
// on top: the *same* candidate population and draw order, with only the
// activation threshold modulated per candidate, plus a single-generation
// rack-cascade pass. With a disabled CorrelationSpec it returns generate()'s
// schedule bit for bit.
//
// Schedules serialize to CSV so a replayed incident can be attached to a
// bug report and re-run exactly.
//
// Queries at time t go through a time index derived from the events (never
// serialized): they examine only the events that start in
// [t - 2 x longest duration, t], not the whole schedule, and visit the ones
// covering t in events() order so every rounded product step matches a
// front-to-back scan.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <memory_resource>
#include <string>
#include <vector>

#include "ckpt/fwd.hpp"
#include "common/units.hpp"
#include "faults/correlation.hpp"
#include "faults/fault_spec.hpp"

namespace gs::faults {

/// Provenance of an event: drawn independently, activated only because a
/// latent storm process boosted its class, or propagated by a rack cascade.
enum class FaultOrigin : std::uint8_t {
  Independent = 0,
  Storm = 1,
  Cascade = 2,
};

[[nodiscard]] const char* to_string(FaultOrigin o);

/// One timed fault: [start, start + duration) at the given severity.
/// `target` selects a green server for ServerCrash / ServerStraggler
/// events and is -1 for component-wide classes.
struct FaultEvent {
  FaultClass cls = FaultClass::GridBrownout;
  Seconds start{0.0};
  Seconds duration{0.0};
  double magnitude = 0.0;  ///< Severity in [0,1] (fraction lost / derated).
  int target = -1;
  FaultOrigin origin = FaultOrigin::Independent;

  [[nodiscard]] bool covers(Seconds t) const {
    return t.value() >= start.value() &&
           t.value() < start.value() + duration.value();
  }
};

class FaultSchedule {
 public:
  FaultSchedule() = default;  ///< Empty schedule (no faults).

  /// Generate the event stream for a run of length `horizon` with
  /// scheduling epoch `epoch` over `servers` green servers. Times are
  /// run-relative (t = 0 is the first fault-injected epoch).
  [[nodiscard]] static FaultSchedule generate(const FaultSpec& spec,
                                              Seconds horizon, Seconds epoch,
                                              int servers);

  /// Correlation-aware entry point: realizes a StormModel from `corr` and
  /// modulates each candidate's activation probability by its latent
  /// weather-front and regime factors, then runs one rack-cascade
  /// propagation pass over the trigger events. When `corr` is disabled
  /// (the default spec) this is generate() bit for bit.
  [[nodiscard]] static FaultSchedule generate_correlated(
      const FaultSpec& spec, const CorrelationSpec& corr, Seconds horizon,
      Seconds epoch, int servers);

  [[nodiscard]] const std::vector<FaultEvent>& events() const {
    return events_;
  }
  [[nodiscard]] bool empty() const { return events_.empty(); }

  /// Combined severity of a class at time t (events overlap via the
  /// complement product: two 50% droops give 75%). Classes with a target
  /// only match events for that target.
  [[nodiscard]] double magnitude_at(FaultClass c, Seconds t,
                                    int target = -1) const;
  [[nodiscard]] bool active(FaultClass c, Seconds t, int target = -1) const;

  /// active() restricted to correlated events (origin Storm or Cascade),
  /// for BurstResult's correlated-burst telemetry.
  [[nodiscard]] bool correlated_active(FaultClass c, Seconds t,
                                       int target = -1) const;

  /// Calls visit(ev) for every event covering t, in events() order (the
  /// order is part of the contract: callers fold rounded products).
  template <class Visit>
  void for_each_covering(Seconds t, Visit&& visit) const;

  /// CSV round-trip for replaying a recorded incident. The trailing
  /// `origin` column is optional on input (older captures omit it).
  [[nodiscard]] std::string to_csv() const;
  [[nodiscard]] static FaultSchedule from_csv(const std::string& text);

  [[nodiscard]] const FaultSpec& spec() const { return spec_; }
  /// The correlation knobs this schedule was realized under (disabled for
  /// generate() / from_csv() schedules).
  [[nodiscard]] const CorrelationSpec& correlation() const {
    return storm_.spec();
  }
  /// The realized latent processes (inert unless generate_correlated ran
  /// with an enabled spec).
  [[nodiscard]] const StormModel& storm() const { return storm_; }

  // --- Checkpoint/restore (src/ckpt): binary round-trip of the spec, the
  // realized storm model and the full event stream (bit-exact, unlike the
  // human-readable CSV). v2 adds per-event origins and the storm model.
  static constexpr std::uint32_t kStateVersion = 2;
  void save_state(ckpt::StateWriter& w) const;
  void load_state(ckpt::StateReader& r);

 private:
  /// Derives by_start_ and longest_ from events_; every assignment of
  /// events_ ends with it.
  void build_index();

  std::vector<FaultEvent> events_;
  // Time index: positions in events_ stably sorted by start, skipping
  // events that cover no t (non-finite start, duration not > 0), and the
  // longest duration among them.
  std::vector<std::size_t> by_start_;
  double longest_ = 0.0;
  FaultSpec spec_;
  StormModel storm_;
};

template <class Visit>
void FaultSchedule::for_each_covering(Seconds t, Visit&& visit) const {
  const double now = t.value();
  // Twice the longest duration: no event starting earlier can reach t, even
  // with start + duration rounded up.
  const double window_start = now - 2.0 * longest_;
  auto it = std::upper_bound(
      by_start_.begin(), by_start_.end(), now,
      [this](double v, std::size_t i) { return v < events_[i].start.value(); });
  // Hits live on the stack unless more than 32 events cover t at once.
  std::array<std::size_t, 32> inline_hits;
  std::pmr::monotonic_buffer_resource arena(inline_hits.data(),
                                            sizeof inline_hits);
  std::pmr::vector<std::size_t> hits(&arena);
  hits.reserve(inline_hits.size());
  while (it != by_start_.begin()) {
    const std::size_t i = *--it;
    if (!(events_[i].start.value() >= window_start)) break;
    if (events_[i].covers(t)) hits.push_back(i);
  }
  std::sort(hits.begin(), hits.end());
  for (const std::size_t i : hits) visit(events_[i]);
}

}  // namespace gs::faults
