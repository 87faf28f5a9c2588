#include "core/hybrid.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "ckpt/state_io.hpp"
#include "common/assert.hpp"
#include "common/keyed_cache.hpp"

namespace gs::core {

namespace {

/// Everything the seed bootstrap depends on. The profile is represented by
/// its content fingerprint, so two controllers over equal tables share one
/// seeded Q-table even if the ProfileTable instances differ.
struct SeedKey {
  std::uint64_t profile_fp;
  double idle_w;
  double peak_w;
  double qos_limit_s;
  double learning_rate;
  double discount;
  double supply_step;
  double max_violation;
  double max_qos_reward;
  int seed_sweeps;

  bool operator==(const SeedKey& o) const = default;
};

struct SeedKeyHash {
  std::size_t operator()(const SeedKey& k) const {
    std::uint64_t h = k.profile_fp;
    h = hash_combine(h, k.idle_w);
    h = hash_combine(h, k.peak_w);
    h = hash_combine(h, k.qos_limit_s);
    h = hash_combine(h, k.learning_rate);
    h = hash_combine(h, k.discount);
    h = hash_combine(h, k.supply_step);
    h = hash_combine(h, k.max_violation);
    h = hash_combine(h, k.max_qos_reward);
    h = hash_combine(h, std::uint64_t(k.seed_sweeps));
    return std::size_t(h);
  }
};

// Process-wide Algorithm-1 seed-table cache: the seeded values, row-major,
// which every controller over the key reads through a QTable view. Thread
// safety: race-free static initialization plus an internally synchronized
// (capability-annotated) KeyedCache; safe to call from concurrent sweep
// cells.
KeyedCache<SeedKey, std::vector<double>, SeedKeyHash>& seed_cache() {
  static KeyedCache<SeedKey, std::vector<double>, SeedKeyHash> cache(32);
  return cache;
}

}  // namespace

double algorithm1_reward(Watts power_supply, Watts power_demand,
                         Seconds qos_target, Seconds qos_current,
                         double max_violation, double max_qos_reward) {
  GS_REQUIRE(power_demand.value() > 0.0, "power demand must be positive");
  GS_REQUIRE(qos_target.value() > 0.0, "QoS target must be positive");
  const double r_power = power_supply / power_demand;
  if (r_power <= 1.0) {
    // Power supply cannot meet the demand: negative reward.
    return -r_power - 1.0;
  }
  // Guard against a zero-latency epoch (no requests): treat as satisfied.
  const double latency =
      std::max(qos_current.value(), 1e-9 * qos_target.value());
  const double r_qos = qos_target.value() / latency;
  if (r_qos > 1.0) {
    return r_power + std::min(r_qos, max_qos_reward) + 1.0;
  }
  const double violation = std::min(1.0 / r_qos, max_violation);
  return r_power - violation + 1.0;
}

QTable::QTable(std::size_t num_states, std::size_t num_actions)
    : states_(num_states),
      actions_(num_actions),
      base_(std::make_shared<const std::vector<double>>(num_actions, 0.0)),
      base_rows_(base_->data()),
      base_stride_(0),
      slots_(num_states, kShared) {
  GS_REQUIRE(num_states > 0 && num_states < kShared && num_actions > 0,
             "QTable dimensions must be positive");
}

QTable::QTable(std::size_t num_states, std::size_t num_actions,
               std::shared_ptr<const std::vector<double>> values)
    : states_(num_states),
      actions_(num_actions),
      base_(std::move(values)),
      base_rows_(base_ ? base_->data() : nullptr),
      base_stride_(num_actions),
      slots_(num_states, kShared) {
  GS_REQUIRE(num_states > 0 && num_states < kShared && num_actions > 0,
             "QTable dimensions must be positive");
  GS_REQUIRE(base_ && base_->size() == num_states * num_actions,
             "QTable values must match its dimensions");
}

double* QTable::own_row(std::size_t state) {
  std::uint32_t& slot = slots_[state];
  if (slot == kShared) {
    // The base never aliases own_, so growing own_ cannot move `shared`.
    const double* shared = base_rows_ + state * base_stride_;
    slot = std::uint32_t(own_.size() / actions_);
    own_.insert(own_.end(), shared, shared + actions_);
  }
  return own_.data() + std::size_t(slot) * actions_;
}

double QTable::value(std::size_t state, std::size_t action) const {
  GS_REQUIRE(state < states_ && action < actions_, "QTable index range");
  return row(state)[action];
}

void QTable::set(std::size_t state, std::size_t action, double v) {
  GS_REQUIRE(state < states_ && action < actions_, "QTable index range");
  own_row(state)[action] = v;
}

void QTable::update(std::size_t state, std::size_t action, double reward,
                    std::size_t next_state, const QLearningConfig& cfg) {
  GS_REQUIRE(state < states_ && action < actions_ && next_state < states_,
             "QTable index range");
  // max_a' R(c',a') in one pass over four independent std::max chains, so
  // the compares do not serialize on one accumulator. Every chain starts
  // at the row's first entry, which keeps max_element's NaN rule (a NaN
  // there is the result; any later NaN is skipped). The max of a set is
  // order-free except for which zero wins a +0/-0 tie, and that cannot
  // change the stored value (DESIGN.md §9).
  const double* next = row(next_state);
  double m0 = next[0], m1 = next[0], m2 = next[0], m3 = next[0];
  std::size_t a = 1;
  for (; a + 4 <= actions_; a += 4) {
    m0 = std::max(m0, next[a]);
    m1 = std::max(m1, next[a + 1]);
    m2 = std::max(m2, next[a + 2]);
    m3 = std::max(m3, next[a + 3]);
  }
  for (; a < actions_; ++a) m0 = std::max(m0, next[a]);
  const double m = std::max(std::max(m0, m1), std::max(m2, m3));
  // Owning the state's row may move every owned row: `next` is dead here.
  double& q = own_row(state)[action];
  const double old = q;
  const double target = reward + cfg.discount * m;
  q = old + cfg.learning_rate * (target - old);
}

double QTable::max_value(std::size_t state) const {
  GS_REQUIRE(state < states_, "QTable state range");
  const double* r = row(state);
  return *std::max_element(r, r + actions_);
}

const double* QTable::row_data(std::size_t state) const {
  GS_REQUIRE(state < states_, "QTable state range");
  return row(state);
}

std::size_t QTable::best_action(std::size_t state) const {
  GS_REQUIRE(state < states_, "QTable state range");
  const double* r = row(state);
  return std::size_t(std::max_element(r, r + actions_) - r);
}

HybridStrategy::HybridStrategy(const ProfileTable& profile,
                               const workload::AppDescriptor& app,
                               Watts idle_power, QLearningConfig cfg)
    : profile_(profile),
      app_(app),
      cfg_(cfg),
      idle_(idle_power),
      peak_(app.sprint_peak_power),
      buckets_(std::size_t(std::ceil(1.0 / cfg.supply_step)) + 1),
      q_(buckets_ * std::size_t(profile.num_levels()) * kNumHealthStates,
         profile.lattice().size()) {
  GS_REQUIRE(peak_ > idle_, "sprint peak must exceed idle power");
}

std::size_t HybridStrategy::supply_bucket(Watts supply) const {
  const double span = (peak_ - idle_).value();
  const double frac = (supply - idle_).value() / span;
  const auto b = frac <= 0.0
                     ? std::size_t{0}
                     : std::size_t(frac / cfg_.supply_step);
  return std::min(b, buckets_ - 1);
}

Watts HybridStrategy::bucket_supply(std::size_t bucket) const {
  const double span = (peak_ - idle_).value();
  const double frac = (double(bucket) + 0.5) * cfg_.supply_step;
  return idle_ + Watts(span * frac);
}

std::size_t HybridStrategy::state_index(Watts supply, double lambda,
                                        int health) const {
  const auto level = std::size_t(profile_.level_for(lambda));
  const auto h = std::size_t(
      std::clamp(health, 0, int(kNumHealthStates) - 1));
  return (supply_bucket(supply) * std::size_t(profile_.num_levels()) + level) *
             kNumHealthStates +
         h;
}

server::ServerSetting HybridStrategy::decide(const EpochContext& ctx) {
  const std::size_t state =
      state_index(ctx.supply, ctx.predicted_load, ctx.health);
  const int level = profile_.level_for(ctx.predicted_load);
  // Both rows are read through raw pointers: one range check each, not
  // two per action. Reading never copies a row or clears pristine().
  const double* power = profile_.power_row(level);
  const double* q = q_.row_data(state);
  const double supply = ctx.supply.value();
  const std::size_t actions = profile_.lattice().size();
  // Feasibility-masked argmax: the PMK cooperates with the PSS to stay
  // within the available supply.
  double best = -1e300;
  std::size_t best_action = profile_.lattice().index_of(server::normal_mode());
  bool found = false;
  for (std::size_t a = 0; a < actions; ++a) {
    if (power[a] > supply) continue;
    if (!found || q[a] > best) {
      best = q[a];
      best_action = a;
      found = true;
    }
  }
  return profile_.lattice().at(best_action);
}

void HybridStrategy::feedback(const EpochFeedback& fb) {
  const std::size_t state = state_index(
      fb.context.supply, fb.context.predicted_load, fb.context.health);
  const std::size_t action = profile_.lattice().index_of(fb.action);
  const double reward =
      algorithm1_reward(fb.actual_supply, fb.power_demand, app_.qos.limit,
                        fb.achieved_latency, cfg_.max_violation,
                        cfg_.max_qos_reward);
  const std::size_t next_state =
      state_index(fb.next_context.supply, fb.next_context.predicted_load,
                  fb.next_context.health);
  q_.update(state, action, reward, next_state, cfg_);
}

namespace {

// All seed_sweeps bootstrap passes over one Q-table row. Each update is
// exactly QTable::update(state, a, reward, state, cfg): the quasi-static
// bootstrap reads only its own row, so processing a row to completion
// before the next (instead of interleaving rows sweep-by-sweep) reorders
// independent operations and is bit-identical to the historical nesting.
// The row maximum is carried incrementally: a write can only raise the
// max (new value), keep it, or — when it overwrote the previous max —
// force one rescan; every value the update reads is therefore identical
// to what a fresh std::max_element scan would produce.
void seed_row(double* row, const double* rewards, std::size_t actions,
              int sweeps, const QLearningConfig& cfg) {
  double m = *std::max_element(row, row + actions);
  for (int sweep = 0; sweep < sweeps; ++sweep) {
    for (std::size_t a = 0; a < actions; ++a) {
      const double old = row[a];
      const double target = rewards[a] + cfg.discount * m;
      const double v = old + cfg.learning_rate * (target - old);
      row[a] = v;
      if (v >= m) {
        m = v;
      } else if (old == m) {
        m = *std::max_element(row, row + actions);
      }
    }
  }
}

}  // namespace

void HybridStrategy::run_seed_sweeps(double* values, bool fresh) const {
  const auto levels = std::size_t(profile_.num_levels());
  const auto actions = profile_.lattice().size();
  // Fresh tables (the cache-miss path of a cold sweep) start every health
  // slice of a (bucket, level) state at zero; identical rewards then drive
  // identical update sequences, so slice 0 is computed once and copied.
  // Seeding on top of learned values keeps per-slice differences: every
  // slice runs its own passes.
  std::vector<double> rewards(actions);
  for (std::size_t b = 0; b < buckets_; ++b) {
    const Watts supply = bucket_supply(b);
    for (std::size_t l = 0; l < levels; ++l) {
      // The reward is a pure function of (bucket, level, action) — hoisted
      // out of the sweep and health loops, which repeat it unchanged.
      for (std::size_t a = 0; a < actions; ++a) {
        rewards[a] = algorithm1_reward(
            supply, profile_.power(int(l), a), app_.qos.limit,
            profile_.latency(int(l), a), cfg_.max_violation,
            cfg_.max_qos_reward);
      }
      const std::size_t base = (b * levels + l) * kNumHealthStates;
      // Profiling episodes carry no health signal, so every health slice
      // is seeded with the same update sequence: a health-unaware run
      // (always slice 0) behaves exactly as it did before the dimension
      // existed, and online feedback alone differentiates the slices.
      double* row0 = values + base * actions;
      if (fresh) {
        seed_row(row0, rewards.data(), actions, cfg_.seed_sweeps, cfg_);
        for (std::size_t h = 1; h < kNumHealthStates; ++h) {
          std::copy(row0, row0 + actions, row0 + h * actions);
        }
      } else {
        for (std::size_t h = 0; h < kNumHealthStates; ++h) {
          seed_row(row0 + h * actions, rewards.data(), actions,
                   cfg_.seed_sweeps, cfg_);
        }
      }
    }
  }
}

void HybridStrategy::seed_from_profile() {
  const std::size_t states = q_.num_states();
  const std::size_t actions = q_.num_actions();
  if (!q_.pristine()) {
    // Seeding on top of learned / loaded values is order-dependent; run
    // the sweeps over this table's own values rather than use the
    // fresh-table cache.
    auto values = std::make_shared<std::vector<double>>(states * actions);
    for (std::size_t s = 0; s < states; ++s) {
      const double* row = q_.row_data(s);
      std::copy(row, row + actions, values->data() + s * actions);
    }
    run_seed_sweeps(values->data(), /*fresh=*/false);
    q_ = QTable(states, actions, std::move(values));
    return;
  }
  const SeedKey key{profile_.fingerprint(),
                    idle_.value(),
                    peak_.value(),
                    app_.qos.limit.value(),
                    cfg_.learning_rate,
                    cfg_.discount,
                    cfg_.supply_step,
                    cfg_.max_violation,
                    cfg_.max_qos_reward,
                    cfg_.seed_sweeps};
  // The view adopts the cached values: nothing is copied, and its
  // shared_ptr keeps them alive past clear_seed_cache() or eviction.
  q_ = QTable(states, actions,
              seed_cache().get_or_create(key, [&] {
                std::vector<double> values(states * actions, 0.0);
                run_seed_sweeps(values.data(), /*fresh=*/true);
                return values;
              }));
}

CacheStats HybridStrategy::seed_cache_stats() { return seed_cache().stats(); }

void HybridStrategy::clear_seed_cache() { seed_cache().clear(); }

void HybridStrategy::save_state(ckpt::StateWriter& w) const {
  w.begin_section("strategy.hybrid", kStateVersion);
  w.u64(q_.num_states());
  w.u64(q_.num_actions());
  for (std::size_t s = 0; s < q_.num_states(); ++s) {
    for (std::size_t a = 0; a < q_.num_actions(); ++a) {
      w.f64(q_.value(s, a));
    }
  }
  w.end_section();
}

void HybridStrategy::load_state(ckpt::StateReader& r) {
  r.begin_section("strategy.hybrid", kStateVersion);
  const auto states = std::size_t(r.u64());
  const auto actions = std::size_t(r.u64());
  if (states != q_.num_states() || actions != q_.num_actions()) {
    throw ckpt::SnapshotError(
        "hybrid Q-table dimension mismatch: snapshot " +
        std::to_string(states) + "x" + std::to_string(actions) +
        ", strategy " + std::to_string(q_.num_states()) + "x" +
        std::to_string(q_.num_actions()));
  }
  auto values = std::make_shared<std::vector<double>>(states * actions);
  for (double& v : *values) v = r.f64();
  r.end_section();
  q_ = QTable(states, actions, std::move(values));
}

}  // namespace gs::core
