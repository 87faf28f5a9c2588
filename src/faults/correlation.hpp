// Correlated fault processes layered over the independent FaultSchedule
// generator (robustness extension; see DESIGN.md §12).
//
// Real incidents cluster: a storm front cuts panel output *and* browns out
// the feeder *and* crashes rack-adjacent machines. Three deterministic,
// seeded latent processes reproduce that structure:
//
//  * weather fronts  — time-windowed latent intensities that jointly scale
//    the activation probability of the supply-side weather classes
//    (PanelDropout, CloudTransient, GridBrownout);
//  * rack cascades   — a ServerCrash (or shared-PSS PssStuck) event raises
//    the crash hazard of its rack neighbours for a bounded propagation
//    window, using a static rack topology map;
//  * burst regimes   — a two-state Markov chain (quiet/stormy) modulates
//    every class's activation probability, replacing the independent
//    per-candidate Bernoulli draws with clustered on/off episodes.
//
// Correlation is strictly opt-in: under a default (disabled)
// CorrelationSpec, FaultSchedule::generate returns the plain independent
// schedule, so existing schedules, CSV replays and sweep fingerprints are
// unchanged. The latent processes draw from their own Rng::stream tags,
// never advancing the candidate streams of the base generator.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "faults/fault_spec.hpp"

namespace gs::faults {

/// The supply-side classes a weather front modulates jointly.
[[nodiscard]] bool is_weather_class(FaultClass c);

/// Static rack topology: servers are assigned to racks in contiguous
/// blocks of `servers_per_rack` (server / servers_per_rack = rack index).
struct RackTopology {
  int servers = 1;
  int servers_per_rack = 4;

  [[nodiscard]] int rack_of(int server) const;
  [[nodiscard]] bool same_rack(int a, int b) const;
};

/// Knobs of the three latent processes. All-zero process gains (the
/// default) disable correlation entirely.
struct CorrelationSpec {
  // --- Weather fronts -------------------------------------------------------
  /// Activation probability of each candidate front in [0,1]; 0 disables.
  double storm_intensity = 0.0;
  /// Mean spacing between candidate fronts, in epochs.
  double front_spacing_epochs = 60.0;
  /// Front length bounds, in epochs.
  int front_min_epochs = 5;
  int front_max_epochs = 30;
  /// Peak joint multiplier on the weather classes' activation probability
  /// (scaled by each front's latent intensity in [0.3, 1]).
  double front_boost = 3.0;

  // --- Rack cascades --------------------------------------------------------
  /// Probability a trigger (ServerCrash/PssStuck) propagates a crash to
  /// each rack neighbour within the window; 0 disables.
  double cascade_hazard = 0.0;
  /// Propagation window after the trigger start, in epochs.
  int cascade_window_epochs = 3;
  /// Rack topology map: servers per rack (contiguous blocks).
  int servers_per_rack = 4;

  // --- Burst regimes (Markov-modulated activation) --------------------------
  /// Per-epoch quiet->stormy transition probability; 0 disables.
  double regime_on = 0.0;
  /// Per-epoch stormy->quiet transition probability.
  double regime_off = 0.25;
  /// Activation multiplier while the chain is stormy...
  double regime_boost = 2.0;
  /// ...and while it is quiet (faults cluster into the stormy episodes).
  double regime_damp = 0.25;

  /// Latent-process seed; 0 reuses the FaultSpec seed, so one seed knob
  /// moves candidates and storms together by default.
  std::uint64_t seed = 0;

  /// Any latent process active? False for a default-constructed spec:
  /// FaultSchedule::generate then yields the independent schedule.
  [[nodiscard]] bool enabled() const;

  /// Parse "storm=0.6,cascade=0.5,regime_on=0.1,...,seed=9" (keys:
  /// storm, front_spacing, front_min, front_max, front_boost, cascade,
  /// cascade_window, rack, regime_on, regime_off, regime_boost,
  /// regime_damp, seed). Throws gs::ContractError on unknown keys or
  /// out-of-range values.
  [[nodiscard]] static CorrelationSpec parse(const std::string& text);
  /// Inverse of parse(); emits only non-default fields.
  [[nodiscard]] std::string to_string() const;
};

/// One realized weather front: while it covers t, the weather classes'
/// activation probabilities are jointly multiplied.
struct StormFront {
  Seconds start{0.0};
  Seconds duration{0.0};
  double intensity = 0.0;  ///< Latent strength in [0.3, 1].

  [[nodiscard]] bool covers(Seconds t) const {
    return t.value() >= start.value() &&
           t.value() < start.value() + duration.value();
  }
};

/// One stormy interval of the Markov regime chain: [start, end).
struct RegimeWindow {
  Seconds start{0.0};
  Seconds end{0.0};

  [[nodiscard]] bool covers(Seconds t) const {
    return t.value() >= start.value() && t.value() < end.value();
  }
};

/// The realized latent processes of one run. Construction is a pure
/// function of (seed, spec, horizon, epoch) — same inputs, same fronts and
/// regime windows — and the model is immutable afterwards, so a schedule
/// can carry it for telemetry.
class StormModel {
 public:
  StormModel() = default;  ///< Inert (disabled spec, no fronts).
  StormModel(const FaultSpec& spec, const CorrelationSpec& corr,
             Seconds horizon, Seconds epoch);

  [[nodiscard]] const CorrelationSpec& spec() const { return corr_; }
  [[nodiscard]] const std::vector<StormFront>& fronts() const {
    return fronts_;
  }
  [[nodiscard]] const std::vector<RegimeWindow>& regimes() const {
    return regimes_;
  }

  /// Joint weather-front multiplier on class c's activation probability at
  /// time t (1.0 for non-weather classes and uncovered times).
  [[nodiscard]] double weather_boost(FaultClass c, Seconds t) const;
  /// Markov-regime multiplier at time t (1.0 when the chain is disabled).
  [[nodiscard]] double regime_factor(Seconds t) const;
  /// Combined activation-probability multiplier for class c at time t.
  [[nodiscard]] double activation_scale(FaultClass c, Seconds t) const {
    return weather_boost(c, t) * regime_factor(t);
  }

 private:
  CorrelationSpec corr_;
  std::vector<StormFront> fronts_;
  std::vector<RegimeWindow> regimes_;
};

}  // namespace gs::faults
