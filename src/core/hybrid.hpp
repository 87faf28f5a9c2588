// The Hybrid strategy (paper Section III-B, Algorithm 1): tabular
// Q-learning over the full (core count, frequency) lattice.
//
// State  c_t: (quantized power supply, workload intensity level, controller
//         health). The paper quantizes supply from idle power to maximum
//         sprint power in 5% steps and reuses the workload levels L1..Lw.
//         The health dimension (robustness extension, DESIGN.md §12) lets a
//         health-aware controller learn recovery actions — partial sprint
//         under a battery fade, shed-then-resprint after a brownout —
//         instead of clamping to Normal. Every health slice is seeded
//         identically and a health-unaware controller only ever visits
//         slice 0, so behavior without the feature is bit-identical.
// Action a_t: a ServerSetting from the lattice S.
// Reward r_t: Algorithm 1, built from Rpower = PowerSupp/PowerCurr and
//         Rqos = QoStarget/QoScurrent.
//
// Deviation from the paper, documented in DESIGN.md: Algorithm 1 line 9
// sets r = Rpower - Rqos + 1 when QoS is violated, which *increases* the
// reward as latency gets worse (Rqos shrinks toward 0) — degenerate as
// written. We implement the evidently intended monotone penalty
// r = Rpower - QoScurrent/QoStarget + 1, which reduces the reward in
// proportion to the depth of the violation.
//
// The lookup table R(c,a) is seeded from the exhaustive profiling records
// (the paper seeds from data collected by Parallel and Pacing) by sweeping
// the Algorithm-1 update until the bootstrap settles, then continues to
// learn online from per-epoch feedback with alpha = 0.7, gamma = 0.9.
#pragma once

#include <cstddef>
#include <vector>

#include "core/profile_table.hpp"
#include "core/strategy.hpp"
#include "workload/app.hpp"

namespace gs::core {

struct QLearningConfig {
  double learning_rate = 0.7;   ///< alpha in Algorithm 1 line 15.
  double discount = 0.9;        ///< gamma.
  double supply_step = 0.05;    ///< 5% supply quantization.
  int seed_sweeps = 25;         ///< Bootstrap sweeps over the profile.
  double max_violation = 50.0;  ///< Cap on QoScurrent/QoStarget.
  /// Cap on Rqos once the target is met: an interactive service that meets
  /// its SLA gains nothing from being even faster, so past this point the
  /// power term decides and Hybrid picks the most power-efficient
  /// QoS-satisfying setting (the energy-efficiency goal of Section III-B).
  double max_qos_reward = 2.0;
};

/// Algorithm-1 reward (with the monotone QoS penalty described above).
[[nodiscard]] double algorithm1_reward(Watts power_supply, Watts power_demand,
                                       Seconds qos_target,
                                       Seconds qos_current,
                                       double max_violation = 50.0,
                                       double max_qos_reward = 2.0);

/// Dense (state, action) value table.
class QTable {
 public:
  QTable(std::size_t num_states, std::size_t num_actions);

  [[nodiscard]] double value(std::size_t state, std::size_t action) const;
  void set(std::size_t state, std::size_t action, double v);

  /// R(c,a) += alpha * (r + gamma * max_a' R(c',a') - R(c,a)).
  void update(std::size_t state, std::size_t action, double reward,
              std::size_t next_state, const QLearningConfig& cfg);

  [[nodiscard]] double max_value(std::size_t state) const;
  [[nodiscard]] std::size_t best_action(std::size_t state) const;

  [[nodiscard]] std::size_t num_states() const { return states_; }
  [[nodiscard]] std::size_t num_actions() const { return actions_; }

  /// True iff no value has been written (fresh table).
  [[nodiscard]] bool all_zero() const;

  /// O(1) conservative freshness check: true iff no write (set / update /
  /// mutable row_data) has ever touched the table. pristine() implies
  /// all_zero(); a table whose writes happened to store only zeros reports
  /// non-pristine, which callers may treat as "maybe non-zero" (the slow
  /// path they fall back to is bit-identical on an all-zero table).
  [[nodiscard]] bool pristine() const { return pristine_; }

  /// Raw row access (num_actions() contiguous doubles) for the seed
  /// bootstrap kernel; state updates only ever read their own row, so the
  /// kernel can process rows independently.
  [[nodiscard]] double* row_data(std::size_t state);
  [[nodiscard]] const double* row_data(std::size_t state) const;

 private:
  std::size_t states_;
  std::size_t actions_;
  std::vector<double> q_;
  bool pristine_ = true;  ///< No write has touched the table yet.
};

class HybridStrategy final : public Strategy {
 public:
  HybridStrategy(const ProfileTable& profile,
                 const workload::AppDescriptor& app, Watts idle_power,
                 QLearningConfig cfg = {});

  [[nodiscard]] std::string_view name() const override { return "Hybrid"; }

  /// Feasibility-masked argmax over the lattice: the PMK must keep the
  /// server within the power budget, so actions whose profiled demand
  /// exceeds the supply are never selected (Normal is the floor).
  [[nodiscard]] server::ServerSetting decide(const EpochContext& ctx) override;

  /// Online Algorithm-1 update from the settled epoch.
  void feedback(const EpochFeedback& fb) override;

  /// Seed R(c,a) from the exhaustive profiling table. The bootstrap is a
  /// pure function of (profile contents, QoS/power anchors, config), so a
  /// freshly-constructed strategy copies a process-wide cached table
  /// instead of re-running the sweeps; seeding on top of an already
  /// non-zero table (e.g. after load_state) runs the sweeps in place.
  void seed_from_profile();

  /// Checkpoint/restore: the learned Q-table, bit-exact. The paper's
  /// controller reuses profiling data across runs; this is how a
  /// deployment warm-starts Hybrid from a previously learned policy.
  /// Dimensions are validated against this strategy's lattice on load
  /// (ckpt::SnapshotError on a mismatch).
  // Schema version inherited from Strategy::kStateVersion.
  // gs-lint: allow(ckpt-schema-version)
  void save_state(ckpt::StateWriter& w) const override;
  void load_state(ckpt::StateReader& r) override;

  /// Bookkeeping for the process-wide seeded-table cache (tests / bench).
  [[nodiscard]] static CacheStats seed_cache_stats();
  static void clear_seed_cache();

  /// Distinct values of the Q-state's health dimension (HealthState's
  /// Healthy / Degraded / Recovering).
  static constexpr std::size_t kNumHealthStates = 3;

  /// State index for a (supply, load, health) triple — exposed for tests.
  /// Out-of-range health is clamped into [0, kNumHealthStates).
  [[nodiscard]] std::size_t state_index(Watts supply, double lambda,
                                        int health = 0) const;
  [[nodiscard]] std::size_t num_supply_buckets() const { return buckets_; }
  [[nodiscard]] const QTable& table() const { return q_; }

 private:
  [[nodiscard]] std::size_t supply_bucket(Watts supply) const;
  /// Representative supply of a bucket (its midpoint).
  [[nodiscard]] Watts bucket_supply(std::size_t bucket) const;
  /// The Algorithm-1 bootstrap sweeps, applied to an arbitrary table.
  void run_seed_sweeps(QTable& q) const;

  const ProfileTable& profile_;  // NOLINT: non-owning, outlives strategy
  workload::AppDescriptor app_;
  QLearningConfig cfg_;
  Watts idle_;
  Watts peak_;
  std::size_t buckets_;
  QTable q_;
};

}  // namespace gs::core
