// Feed sequencing and stall fallback for the serve daemon, factored out of
// the event loop so the policy is deterministic and unit-testable without
// sockets or wall clocks.
//
// Every feed event names the epoch it drives (seq == epoch index). The
// LiveFeed admits exactly the next expected epoch, drops duplicates and
// late arrivals as Stale (a restarted feeder replays from its file start;
// the hello reply tells it where to resume, this is the backstop), and
// rejects events from the future as Gap (the feeder skipped epochs —
// admitting them would silently desynchronize feed and sim).
//
// When the feed stalls in paced mode, the daemon keeps the control loop
// ticking from the EWMA workload predictor (paper Equation 1, alpha 0.3
// over the admitted lambdas) and the last seen irradiance, with the burst
// flag off — the conservative no-sprint assumption. Fallback epochs are
// counted (stale_epochs()), surfaced as the `feed_stale` health flag and
// tsdb series, and consume their epoch slot: a late event for a
// fallback-covered epoch is Stale, keeping feed and sim in lockstep.
#pragma once

#include <cstdint>

#include "ckpt/fwd.hpp"
#include "common/ewma.hpp"
#include "serve/protocol.hpp"
#include "sim/day_runner.hpp"

namespace gs::serve {

class LiveFeed {
 public:
  enum class Admit { Accepted, Stale, Gap };

  /// `alpha` is the fallback predictor's EWMA weight (paper: 0.3).
  explicit LiveFeed(double alpha = 0.3) : lambda_ewma_(alpha) {}

  /// Epoch index the next admissible event must carry.
  [[nodiscard]] std::uint64_t next_seq() const { return next_seq_; }

  /// Classify an event; Accepted advances the sequence and updates the
  /// fallback predictor. Call live() afterwards for the admitted epoch.
  Admit admit(const FeedEvent& ev);

  /// The admitted event's epoch inputs (pass-through).
  [[nodiscard]] static sim::LiveEpoch live(const FeedEvent& ev) {
    return {ev.lambda, ev.irradiance, ev.burst};
  }

  /// Synthesize the fallback epoch for a stalled feed and consume its
  /// epoch slot. Deterministic in the admit/fallback history alone.
  [[nodiscard]] sim::LiveEpoch fallback();

  [[nodiscard]] std::uint64_t accepted() const { return accepted_; }
  [[nodiscard]] std::uint64_t stale_drops() const { return stale_drops_; }
  [[nodiscard]] std::uint64_t gap_drops() const { return gap_drops_; }
  [[nodiscard]] std::uint64_t stale_epochs() const { return stale_epochs_; }

  // --- Checkpoint/restore (src/ckpt): the full sequencing + predictor
  // state, so a restarted daemon resumes the exact fallback behavior.
  static constexpr std::uint32_t kStateVersion = 1;
  void save_state(ckpt::StateWriter& w) const;
  void load_state(ckpt::StateReader& r);

 private:
  std::uint64_t next_seq_ = 0;
  Ewma lambda_ewma_;
  double last_irradiance_ = 0.0;
  std::uint64_t accepted_ = 0;
  std::uint64_t stale_drops_ = 0;
  std::uint64_t gap_drops_ = 0;
  std::uint64_t stale_epochs_ = 0;
};

}  // namespace gs::serve
