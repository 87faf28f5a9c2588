#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/state_io.hpp"
#include "common/assert.hpp"
#include "common/rng.hpp"

#include "core/hybrid.hpp"

namespace gs::core {
namespace {

TEST(Algorithm1Reward, InsufficientPowerIsNegative) {
  const double r = algorithm1_reward(Watts(100.0), Watts(155.0),
                                     Seconds(0.5), Seconds(0.3));
  EXPECT_LT(r, 0.0);
  EXPECT_NEAR(r, -(100.0 / 155.0) - 1.0, 1e-12);
}

TEST(Algorithm1Reward, BothSatisfiedIsPositive) {
  const double r = algorithm1_reward(Watts(200.0), Watts(155.0),
                                     Seconds(0.5), Seconds(0.25));
  EXPECT_NEAR(r, 200.0 / 155.0 + 0.5 / 0.25 + 1.0, 1e-12);
}

TEST(Algorithm1Reward, QosViolationPenalizedMonotonically) {
  // Deeper latency violations must score strictly worse (the monotone fix
  // of the paper's line 9; see hybrid.hpp).
  const double mild = algorithm1_reward(Watts(200.0), Watts(155.0),
                                        Seconds(0.5), Seconds(0.6));
  const double severe = algorithm1_reward(Watts(200.0), Watts(155.0),
                                          Seconds(0.5), Seconds(2.0));
  EXPECT_GT(mild, severe);
  EXPECT_LT(mild, algorithm1_reward(Watts(200.0), Watts(155.0), Seconds(0.5),
                                    Seconds(0.4)));
}

TEST(Algorithm1Reward, ViolationIsCapped) {
  const double deep = algorithm1_reward(Watts(200.0), Watts(155.0),
                                        Seconds(0.5), Seconds(1e6));
  const double capped = algorithm1_reward(Watts(200.0), Watts(155.0),
                                          Seconds(0.5), Seconds(100.0));
  EXPECT_DOUBLE_EQ(deep, capped);  // both at max_violation
}

TEST(Algorithm1Reward, SatisfiedBeatsViolatedBeatsInfeasible) {
  const double good = algorithm1_reward(Watts(200.0), Watts(150.0),
                                        Seconds(0.5), Seconds(0.2));
  const double violated = algorithm1_reward(Watts(200.0), Watts(150.0),
                                            Seconds(0.5), Seconds(1.0));
  const double infeasible = algorithm1_reward(Watts(100.0), Watts(150.0),
                                              Seconds(0.5), Seconds(0.2));
  EXPECT_GT(good, violated);
  EXPECT_GT(violated, infeasible);
}

TEST(Algorithm1Reward, ZeroLatencyEpochTreatedAsSatisfied) {
  const double r = algorithm1_reward(Watts(200.0), Watts(100.0),
                                     Seconds(0.5), Seconds(0.0));
  EXPECT_GT(r, 0.0);
}

TEST(QTableTest, StartsAtZeroAndUpdates) {
  QTable q(4, 3);
  EXPECT_DOUBLE_EQ(q.value(0, 0), 0.0);
  QLearningConfig cfg;
  q.update(0, 1, 10.0, 0, cfg);
  // First update from zero: alpha * (r + gamma * 0 - 0) = 7.0.
  EXPECT_NEAR(q.value(0, 1), 7.0, 1e-12);
  EXPECT_EQ(q.best_action(0), 1u);
  EXPECT_NEAR(q.max_value(0), 7.0, 1e-12);
}

TEST(QTableTest, UpdateUsesNextStateBootstrap) {
  QTable q(2, 2);
  QLearningConfig cfg;
  q.set(1, 0, 100.0);
  q.update(0, 0, 0.0, 1, cfg);
  // alpha * (0 + gamma * 100) = 0.7 * 90 = 63.
  EXPECT_NEAR(q.value(0, 0), 63.0, 1e-12);
}

TEST(QTableTest, IndexContracts) {
  QTable q(2, 2);
  EXPECT_THROW((void)(q.value(2, 0)), gs::ContractError);
  EXPECT_THROW((void)(q.value(0, 2)), gs::ContractError);
}

TEST(QTableTest, ViewCopiesARowOnFirstWrite) {
  const auto values = std::make_shared<const std::vector<double>>(
      std::vector<double>{1.0, 2.0, 3.0, 4.0, 5.0, 6.0});
  QTable q(3, 2, values);
  EXPECT_FALSE(q.pristine());  // a view over values is never pristine
  EXPECT_EQ(q.value(2, 1), 6.0);
  EXPECT_EQ(q.row_data(1), values->data() + 2);
  q.set(1, 0, -3.0);
  EXPECT_EQ(q.value(1, 0), -3.0);
  EXPECT_EQ(q.value(1, 1), 4.0);  // the rest of the row came along
  EXPECT_NE(q.row_data(1), values->data() + 2);
  EXPECT_EQ((*values)[2], 3.0);  // the shared values are never written
  EXPECT_EQ(q.max_value(1), 4.0);
  EXPECT_EQ(q.best_action(0), 1u);
  EXPECT_THROW(QTable(2, 2, values), gs::ContractError);
  EXPECT_THROW(QTable(3, 2, nullptr), gs::ContractError);
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Replace a strategy's Q-table through its checkpoint path, which keeps
/// every f64 bit pattern (-0 and NaN included).
void install_table(HybridStrategy& h, const QTable& q) {
  ckpt::StateWriter w;
  w.begin_section("strategy.hybrid", Strategy::kStateVersion);
  w.u64(q.num_states());
  w.u64(q.num_actions());
  for (std::size_t s = 0; s < q.num_states(); ++s) {
    for (std::size_t a = 0; a < q.num_actions(); ++a) w.f64(q.value(s, a));
  }
  w.end_section();
  ckpt::StateReader r(w.buffer());
  h.load_state(r);
}

void expect_tables_bit_equal(const QTable& got, const QTable& want) {
  ASSERT_EQ(got.num_states(), want.num_states());
  ASSERT_EQ(got.num_actions(), want.num_actions());
  for (std::size_t s = 0; s < want.num_states(); ++s) {
    for (std::size_t a = 0; a < want.num_actions(); ++a) {
      ASSERT_EQ(bits(got.value(s, a)), bits(want.value(s, a)))
          << "state=" << s << " action=" << a;
    }
  }
}

/// A table with `q`'s values that shares nothing: every row is written,
/// so none is read through a base.
QTable unshared_copy(const QTable& q) {
  QTable out(q.num_states(), q.num_actions());
  for (std::size_t s = 0; s < q.num_states(); ++s) {
    for (std::size_t a = 0; a < q.num_actions(); ++a) {
      out.set(s, a, q.value(s, a));
    }
  }
  return out;
}

// The historical bootstrap nesting (sweep-outermost over every state with
// a full row rescan per update), written against the public QTable API.
// The production kernel reorders independent row updates and carries the
// row max and the count of entries equal to it; these tests pin exact
// equality.
void reference_seed_sweeps(QTable& q, const ProfileTable& table,
                           const workload::AppDescriptor& app, double idle_w,
                           std::size_t buckets, const QLearningConfig& cfg) {
  const auto levels = std::size_t(table.num_levels());
  const auto actions = table.lattice().size();
  const double span = app.sprint_peak_power.value() - idle_w;
  for (int sweep = 0; sweep < cfg.seed_sweeps; ++sweep) {
    for (std::size_t b = 0; b < buckets; ++b) {
      const Watts supply =
          Watts(idle_w) + Watts(span * ((double(b) + 0.5) * cfg.supply_step));
      for (std::size_t l = 0; l < levels; ++l) {
        for (std::size_t h = 0; h < HybridStrategy::kNumHealthStates; ++h) {
          const std::size_t state =
              (b * levels + l) * HybridStrategy::kNumHealthStates + h;
          for (std::size_t a = 0; a < actions; ++a) {
            const double reward = algorithm1_reward(
                supply, table.power(int(l), a), app.qos.limit,
                table.latency(int(l), a), cfg.max_violation,
                cfg.max_qos_reward);
            q.update(state, a, reward, state, cfg);
          }
        }
      }
    }
  }
}

/// A HybridStrategy over one app's profile, beside what it borrows.
struct HybridRig {
  explicit HybridRig(const workload::AppDescriptor& a,
                     const QLearningConfig& c = {})
      : app(a),
        cfg(c),
        perf(app),
        table(perf, power),
        hybrid(table, app, power.idle_power(), cfg) {}
  // `hybrid` borrows `table`: a copy would read the original's.
  HybridRig(const HybridRig&) = delete;
  HybridRig& operator=(const HybridRig&) = delete;

  /// The historical sweeps, over `ref` in place.
  void reference_seed(QTable& ref) const {
    reference_seed_sweeps(ref, table, app, power.idle_power().value(),
                          hybrid.num_supply_buckets(), cfg);
  }

  workload::AppDescriptor app;
  QLearningConfig cfg;
  workload::PerfModel perf;
  server::ServerPowerModel power{Watts(76.0)};
  ProfileTable table;
  HybridStrategy hybrid;
};

struct HybridFixture : ::testing::Test, HybridRig {
  HybridFixture() : HybridRig(workload::specjbb()) {}

  EpochContext ctx(double supply_w, int intensity = 12) {
    return {perf.intensity_load(intensity), Watts(supply_w), Seconds(60.0)};
  }
};

/// One seed-kernel input: an app's profile under a QLearningConfig.
struct SeedCase {
  workload::AppDescriptor app;
  QLearningConfig cfg;
  std::string name;
};

/// Every app under the defaults, and again with more bootstrap sweeps over
/// a coarser supply grid.
std::vector<SeedCase> seed_cases() {
  QLearningConfig coarse;
  coarse.seed_sweeps = 60;
  coarse.supply_step = 0.1;
  std::vector<SeedCase> out;
  for (const workload::AppDescriptor& app :
       {workload::specjbb(), workload::websearch(), workload::memcached()}) {
    out.push_back({app, QLearningConfig{}, app.name + " defaults"});
    out.push_back({app, coarse, app.name + " seed_sweeps=60 supply_step=0.1"});
  }
  return out;
}

TEST_F(HybridFixture, SeedKernelBitIdenticalToHistoricalSweeps) {
  for (const SeedCase& c : seed_cases()) {
    SCOPED_TRACE(c.name);
    HybridStrategy::clear_seed_cache();
    HybridRig rig(c.app, c.cfg);
    rig.hybrid.seed_from_profile();
    QTable ref(rig.hybrid.table().num_states(),
               rig.hybrid.table().num_actions());
    rig.reference_seed(ref);
    expect_tables_bit_equal(rig.hybrid.table(), ref);
  }
}

TEST_F(HybridFixture, InPlaceReseedBitIdenticalToHistoricalSweeps) {
  // Seeding on top of learned values takes the in-place path (no fresh-
  // table health-slice replication); it must still match the historical
  // nesting exactly.
  for (const SeedCase& c : seed_cases()) {
    SCOPED_TRACE(c.name);
    HybridStrategy::clear_seed_cache();
    HybridRig rig(c.app, c.cfg);
    rig.hybrid.seed_from_profile();
    const EpochContext now{rig.perf.intensity_load(12), Watts(180.0),
                           Seconds(60.0)};
    EpochFeedback fb;
    fb.context = now;
    fb.action = rig.hybrid.decide(now);
    fb.power_demand = Watts(150.0);
    fb.actual_supply = Watts(170.0);
    fb.achieved_latency = Seconds(0.4);
    fb.next_context = {rig.perf.intensity_load(10), Watts(175.0),
                       Seconds(60.0)};
    rig.hybrid.feedback(fb);  // the table now differs across health slices

    QTable ref = unshared_copy(rig.hybrid.table());
    rig.hybrid.seed_from_profile();  // in-place reseed
    rig.reference_seed(ref);
    expect_tables_bit_equal(rig.hybrid.table(), ref);
  }
}

/// Rows real profiles never produce. After the first write of a fresh
/// row, no update lands on a tie at the row maximum, so the seed kernel's
/// tie count is exercised only by rows like these: several equal maxima,
/// a +0/-0 pair holding the maximum (either sign first), a row of one
/// value, an inf pair whose first write stores inf - inf = NaN, and a NaN
/// after the first entry, which the maximum skips.
QTable planted_table(std::size_t states, std::size_t actions) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  QTable q(states, actions);
  std::vector<double> row(actions);
  for (std::size_t s = 0; s < states; ++s) {
    for (std::size_t a = 0; a < actions; ++a) {
      row[a] = -1.0 - 0.01 * double(a);
    }
    switch (s % 6) {
      case 0:  // far above every target, so each write lowers one tie
        for (const std::size_t a : {std::size_t(0), std::size_t(5),
                                    actions / 2, actions - 1}) {
          row[a] = 1000.0;
        }
        break;
      case 1:
        row[2] = -0.0;
        row[actions - 3] = 0.0;
        break;
      case 2:
        row[0] = 0.0;
        row[7] = -0.0;
        break;
      case 3:
        std::fill(row.begin(), row.end(), 2.5);
        break;
      case 4:
        row[0] = inf;
        row[9] = inf;
        break;
      default:
        row[4] = nan;
        row[actions / 3] = 7.0;
        row[actions / 3 + 1] = 7.0;
        break;
    }
    for (std::size_t a = 0; a < actions; ++a) q.set(s, a, row[a]);
  }
  return q;
}

TEST(HybridSeedKernel, InPlaceReseedOverPlantedRowsIsBitIdentical) {
  std::vector<SeedCase> cases = seed_cases();
  // Within one sweep the NaN an inf pair stores has not yet spread over its
  // whole row, so the rescan the kernel owes the NaN shows in the values.
  QLearningConfig one_sweep;
  one_sweep.seed_sweeps = 1;
  cases.push_back({workload::specjbb(), one_sweep,
                   workload::specjbb().name + " seed_sweeps=1"});
  for (const SeedCase& c : cases) {
    SCOPED_TRACE(c.name);
    HybridRig rig(c.app, c.cfg);
    QTable ref = planted_table(rig.hybrid.table().num_states(),
                               rig.hybrid.table().num_actions());
    install_table(rig.hybrid, ref);
    rig.hybrid.seed_from_profile();
    rig.reference_seed(ref);
    expect_tables_bit_equal(rig.hybrid.table(), ref);
  }
}

TEST_F(HybridFixture, SeededHybridSprintsWithAmpleSupply) {
  hybrid.seed_from_profile();
  const auto s = hybrid.decide(ctx(211.0));
  // With a saturating burst and full supply the best action is (near-)max.
  EXPECT_GE(s.cores, 11);
  EXPECT_GE(s.freq_idx, server::kMaxFreqIndex - 1);
}

TEST_F(HybridFixture, DecisionAlwaysFitsSupply) {
  hybrid.seed_from_profile();
  for (double supply = 95.0; supply <= 215.0; supply += 3.0) {
    const auto c = ctx(supply);
    const auto s = hybrid.decide(c);
    const int level = table.level_for(c.predicted_load);
    const double demand =
        table.power(level, table.lattice().index_of(s)).value();
    if (s != server::normal_mode()) {
      EXPECT_LE(demand, supply + 1e-6) << "supply=" << supply;
    }
  }
}

TEST_F(HybridFixture, LowIntensityBurstAvoidsWastefulMaxSprint) {
  hybrid.seed_from_profile();
  // At Int=7 the offered load saturates ~7 cores; spinning all 12 at max
  // frequency burns power without goodput. Hybrid should pick less than
  // the maximal sprint.
  const auto s = hybrid.decide(ctx(211.0, 7));
  const auto max_idx = table.lattice().index_of(server::max_sprint());
  const auto s_idx = table.lattice().index_of(s);
  const int level = table.level_for(perf.intensity_load(7));
  EXPECT_LT(table.power(level, s_idx).value(),
            table.power(level, max_idx).value());
}

TEST_F(HybridFixture, StateIndexSeparatesSupplyAndLoad) {
  const auto a = hybrid.state_index(Watts(100.0), perf.intensity_load(12));
  const auto b = hybrid.state_index(Watts(200.0), perf.intensity_load(12));
  const auto c = hybrid.state_index(Watts(100.0), perf.intensity_load(6));
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
}

TEST_F(HybridFixture, SupplyBucketsClamp) {
  const auto lo = hybrid.state_index(Watts(0.0), 1.0);
  const auto hi = hybrid.state_index(Watts(1e6), 1.0);
  EXPECT_LT(lo, hybrid.table().num_states());
  EXPECT_LT(hi, hybrid.table().num_states());
}

TEST_F(HybridFixture, FeedbackMovesTheTable) {
  hybrid.seed_from_profile();
  const auto c = ctx(150.0);
  const auto action = hybrid.decide(c);
  const auto state = hybrid.state_index(c.supply, c.predicted_load);
  const double before =
      hybrid.table().value(state, table.lattice().index_of(action));
  EpochFeedback fb;
  fb.context = c;
  fb.action = action;
  fb.power_demand = Watts(150.0);
  fb.actual_supply = Watts(80.0);  // supply collapsed: negative reward
  fb.achieved_latency = Seconds(2.0);
  fb.observed_load = c.predicted_load;
  fb.next_context = c;
  hybrid.feedback(fb);
  const double after =
      hybrid.table().value(state, table.lattice().index_of(action));
  EXPECT_LT(after, before);
}

TEST_F(HybridFixture, StateIndexSeparatesHealthAndClamps) {
  const Watts supply{150.0};
  const double load = perf.intensity_load(12);
  const auto healthy = hybrid.state_index(supply, load, 0);
  const auto degraded = hybrid.state_index(supply, load, 1);
  const auto recovering = hybrid.state_index(supply, load, 2);
  EXPECT_NE(healthy, degraded);
  EXPECT_NE(degraded, recovering);
  EXPECT_NE(healthy, recovering);
  // Out-of-range health clamps instead of indexing out of the table.
  EXPECT_EQ(hybrid.state_index(supply, load, -1), healthy);
  EXPECT_EQ(hybrid.state_index(supply, load, 99), recovering);
  // The default is the healthy slice, so health-unaware callers (who never
  // set ctx.health) keep their exact pre-health-dimension indices.
  EXPECT_EQ(hybrid.state_index(supply, load), healthy);
}

TEST_F(HybridFixture, QTableCarriesTheHealthSlices) {
  EXPECT_EQ(hybrid.table().num_states() % HybridStrategy::kNumHealthStates,
            0u);
  EXPECT_EQ(hybrid.table().num_states(),
            hybrid.num_supply_buckets() * std::size_t(table.num_levels()) *
                HybridStrategy::kNumHealthStates);
}

TEST_F(HybridFixture, HealthSlicesSeedIdenticallyAndDivergeOnFeedback) {
  hybrid.seed_from_profile();
  const auto c0 = ctx(150.0);
  auto c1 = c0;
  c1.health = 1;
  // Identical seeding per slice: the degraded slice starts with the same
  // values, so the first decision matches the healthy one bit-for-bit.
  const auto s0 = hybrid.state_index(c0.supply, c0.predicted_load, 0);
  const auto s1 = hybrid.state_index(c1.supply, c1.predicted_load, 1);
  for (std::size_t a = 0; a < hybrid.table().num_actions(); ++a) {
    ASSERT_DOUBLE_EQ(hybrid.table().value(s0, a), hybrid.table().value(s1, a));
  }
  EXPECT_EQ(hybrid.decide(c0), hybrid.decide(c1));
  // Feedback against the degraded slice leaves the healthy slice intact:
  // a health-unaware controller (slice 0 only) is unaffected by the
  // dimension's existence.
  const auto action = hybrid.decide(c1);
  EpochFeedback fb;
  fb.context = c1;
  fb.action = action;
  fb.power_demand = Watts(200.0);
  fb.actual_supply = Watts(50.0);
  fb.achieved_latency = Seconds(5.0);
  fb.observed_load = c1.predicted_load;
  fb.next_context = c1;
  hybrid.feedback(fb);
  const auto a_idx = table.lattice().index_of(action);
  EXPECT_NE(hybrid.table().value(s1, a_idx), hybrid.table().value(s0, a_idx));
}

TEST_F(HybridFixture, OnlineLearningAbandonsFailingAction) {
  hybrid.seed_from_profile();
  const auto c = ctx(160.0);
  // Repeatedly punish whatever it picks at this state; it must eventually
  // switch actions.
  const auto first = hybrid.decide(c);
  server::ServerSetting current = first;
  for (int i = 0; i < 50; ++i) {
    EpochFeedback fb;
    fb.context = c;
    fb.action = current;
    fb.power_demand = Watts(200.0);
    fb.actual_supply = Watts(50.0);
    fb.achieved_latency = Seconds(5.0);
    fb.observed_load = c.predicted_load;
    fb.next_context = c;
    hybrid.feedback(fb);
    current = hybrid.decide(c);
    if (current != first) break;
  }
  EXPECT_NE(current, first);
}


// --- Row-pointer decide / single-pass update vs the per-call originals ------
//
// decide() reads the level's power row and the state's Q row through raw
// pointers, and QTable::update takes the next-state max in one pass over
// four std::max chains. The references below are the earlier code: one
// power(level, a) and value(s, a) call per action, and update as value +
// max_value + set. Decisions must match exactly and updated entries bit
// for bit.

std::size_t reference_decide(const HybridStrategy& h, const QTable& q,
                             const ProfileTable& t, const EpochContext& ctx) {
  const std::size_t state =
      h.state_index(ctx.supply, ctx.predicted_load, ctx.health);
  const int level = t.level_for(ctx.predicted_load);
  double best = -1e300;
  std::size_t best_action = t.lattice().index_of(server::normal_mode());
  bool found = false;
  for (std::size_t a = 0; a < t.lattice().size(); ++a) {
    if (t.power(level, a) > ctx.supply) continue;
    const double v = q.value(state, a);
    if (!found || v > best) {
      best = v;
      best_action = a;
      found = true;
    }
  }
  return best_action;
}

void reference_update(QTable& q, std::size_t state, std::size_t action,
                      double reward, std::size_t next_state,
                      const QLearningConfig& cfg) {
  const double old = q.value(state, action);
  const double target = reward + cfg.discount * q.max_value(next_state);
  q.set(state, action, old + cfg.learning_rate * (target - old));
}

/// Drive `h` through `epochs` random decide/feedback epochs drawn from
/// `seed`; every fourth epoch stays in its state (next_state == state).
/// With `ref`, each decision must equal reference_decide on `ref`, and
/// each update is mirrored into `ref` with reference_update and must
/// match it bit for bit.
void random_epochs(HybridStrategy& h, const ProfileTable& t,
                   const workload::AppDescriptor& app, std::uint64_t seed,
                   int epochs, QTable* ref = nullptr) {
  const QLearningConfig cfg;
  Rng rng(seed);
  const double lambda_max = t.lambda_max();
  const auto random_ctx = [&] {
    EpochContext c{rng.uniform(0.0, 1.1 * lambda_max),
                   Watts(rng.uniform(40.0, 240.0)), Seconds(60.0)};
    c.health = int(rng.uniform_int(3));
    return c;
  };
  EpochContext c = random_ctx();
  for (int i = 0; i < epochs; ++i) {
    const std::size_t a = t.lattice().index_of(h.decide(c));
    if (ref != nullptr) {
      ASSERT_EQ(a, reference_decide(h, *ref, t, c)) << "epoch " << i;
    }
    EpochFeedback fb;
    fb.context = c;
    fb.action = t.lattice().at(a);
    fb.power_demand = Watts(rng.uniform(60.0, 220.0));
    fb.actual_supply = Watts(rng.uniform(0.0, 240.0));
    fb.achieved_latency = Seconds(rng.uniform(0.0, 3.0));
    fb.observed_load = c.predicted_load;
    fb.next_context = i % 4 == 0 ? c : random_ctx();
    h.feedback(fb);
    if (ref != nullptr) {
      const std::size_t s =
          h.state_index(c.supply, c.predicted_load, c.health);
      const std::size_t next = h.state_index(fb.next_context.supply,
                                             fb.next_context.predicted_load,
                                             fb.next_context.health);
      const double reward = algorithm1_reward(
          fb.actual_supply, fb.power_demand, app.qos.limit,
          fb.achieved_latency, cfg.max_violation, cfg.max_qos_reward);
      reference_update(*ref, s, a, reward, next, cfg);
      ASSERT_EQ(bits(h.table().value(s, a)), bits(ref->value(s, a)))
          << "epoch " << i;
    }
    c = fb.next_context;
  }
}

struct HybridRowFixture : HybridFixture {
  /// The decision as a lattice index, checked against the reference.
  std::size_t decide_checked(const EpochContext& c) {
    const std::size_t got = table.lattice().index_of(hybrid.decide(c));
    EXPECT_EQ(got, reference_decide(hybrid, hybrid.table(), table, c))
        << "supply=" << c.supply.value() << " load=" << c.predicted_load
        << " health=" << c.health;
    return got;
  }
  /// Fill one state's Q row, leaving the rest of the table as it is.
  void set_row(std::size_t state, const std::vector<double>& row) {
    QTable q = hybrid.table();
    for (std::size_t a = 0; a < row.size(); ++a) q.set(state, a, row[a]);
    install_table(hybrid, q);
  }
  [[nodiscard]] std::size_t actions() const { return table.lattice().size(); }
};

TEST_F(HybridRowFixture, DecideAndFeedbackMatchReferenceOnSeededTable) {
  hybrid.seed_from_profile();
  QTable ref = unshared_copy(hybrid.table());
  random_epochs(hybrid, table, app, 0x5eed0021u, 3000, &ref);
  expect_tables_bit_equal(hybrid.table(), ref);
}

TEST_F(HybridRowFixture, TiedRowTakesTheFirstFeasibleMax) {
  const auto c = ctx(160.0, 9);
  const std::size_t s = hybrid.state_index(c.supply, c.predicted_load);
  const int level = table.level_for(c.predicted_load);
  set_row(s, std::vector<double>(actions(), 2.5));
  std::size_t first_feasible = actions();
  for (std::size_t a = 0; a < actions(); ++a) {
    if (table.power(level, a) <= c.supply) {
      first_feasible = a;
      break;
    }
  }
  ASSERT_LT(first_feasible, actions());
  EXPECT_EQ(decide_checked(c), first_feasible);

  // Two feasible maxima above the tied floor: the earlier one wins.
  std::vector<std::size_t> feasible;
  for (std::size_t a = 0; a < actions(); ++a) {
    if (table.power(level, a) <= c.supply) feasible.push_back(a);
  }
  ASSERT_GE(feasible.size(), 3u);
  std::vector<double> row(actions(), 1.0);
  row[feasible[1]] = 4.0;
  row[feasible.back()] = 4.0;
  set_row(s, row);
  EXPECT_EQ(decide_checked(c), feasible[1]);
}

TEST_F(HybridRowFixture, NoFeasibleActionFallsBackToNormal) {
  hybrid.seed_from_profile();
  for (const double supply : {0.0, 1.0, 50.0}) {
    const auto c = ctx(supply, 12);
    EXPECT_EQ(table.lattice().at(decide_checked(c)), server::normal_mode());
  }
}

TEST_F(HybridRowFixture, SupplyEqualToARowEntryIsFeasible) {
  // `power > supply` masks an action; equality keeps it.
  const int intensity = 10;
  const double load = perf.intensity_load(intensity);
  const int level = table.level_for(load);
  for (const std::size_t k :
       {std::size_t(0), actions() / 3, actions() / 2, actions() - 1}) {
    const Watts supply = table.power(level, k);
    const EpochContext c{load, supply, Seconds(60.0)};
    const std::size_t s = hybrid.state_index(c.supply, c.predicted_load);
    std::vector<double> row(actions(), -3.0);
    row[k] = 9.0;
    set_row(s, row);
    EXPECT_EQ(decide_checked(c), k) << "k=" << k;
  }
}

TEST_F(HybridRowFixture, SignedZeroRowsMatchReference) {
  const auto c = ctx(170.0, 8);
  const std::size_t s = hybrid.state_index(c.supply, c.predicted_load);
  std::vector<double> row(actions());
  for (std::size_t a = 0; a < actions(); ++a) {
    row[a] = a % 3 == 0 ? -0.0 : 0.0;
  }
  set_row(s, row);
  decide_checked(c);
  row.assign(actions(), -0.0);
  row[actions() - 1] = 0.0;
  set_row(s, row);
  decide_checked(c);
}

TEST_F(HybridRowFixture, LastElementMaxIsFound) {
  // Ample supply makes the whole lattice feasible.
  const auto c = ctx(1e6, 12);
  const std::size_t s = hybrid.state_index(c.supply, c.predicted_load);
  std::vector<double> row(actions());
  for (std::size_t a = 0; a < actions(); ++a) row[a] = double(a) * 0.01;
  set_row(s, row);
  EXPECT_EQ(decide_checked(c), actions() - 1);
}

TEST(QTableUpdate, MatchesReferenceOnHandMadeRows) {
  const QLearningConfig cfg;
  const std::size_t actions = 108;  // the full lattice
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<std::vector<double>> rows;
  rows.emplace_back(actions, 1.25);  // all tied
  {
    std::vector<double> r(actions);
    for (std::size_t a = 0; a < actions; ++a) r[a] = a % 2 ? 0.0 : -0.0;
    rows.push_back(r);  // +0 / -0 mix, max is a zero tie
    r.assign(actions, -0.0);
    r[57] = 0.0;
    rows.push_back(r);
    r.assign(actions, 0.0);
    r[0] = -0.0;
    rows.push_back(r);
  }
  {
    std::vector<double> r(actions);
    for (std::size_t a = 0; a < actions; ++a) r[a] = -double(actions - a);
    r[actions - 1] = 3.0;  // max is the last element (the chain tail)
    rows.push_back(r);
    for (std::size_t a = 0; a < actions; ++a) r[a] = double(a) - 200.0;
    rows.push_back(r);  // strictly increasing
    r.assign(actions, -inf);
    r[5] = -1e300;
    rows.push_back(r);
  }
  {
    std::vector<double> r(actions, 2.0);
    r[0] = nan;  // a leading NaN is the max in both versions
    rows.push_back(r);
    r.assign(actions, 2.0);
    r[1] = nan;  // later NaNs are skipped in both
    r[40] = nan;
    r[actions - 1] = nan;
    r[77] = 6.5;
    rows.push_back(r);
  }
  Rng rng(0x0d5eed21u);
  for (int i = 0; i < 16; ++i) {
    std::vector<double> r(actions);
    for (double& v : r) v = rng.uniform(-5.0, 5.0);
    rows.push_back(r);
  }
  // Rewards as algorithm1_reward produces them: <= -1, > 2, and the
  // QoS-violation branch's x + 1.0, which can land on +0.
  const std::vector<double> rewards{-1.5, -1.0, 0.0, 0.75, 3.25};
  const std::size_t states = 3;
  for (std::size_t ri = 0; ri < rows.size(); ++ri) {
    for (const double reward : rewards) {
      for (const std::size_t action : {std::size_t(0), std::size_t(57),
                                       actions - 1}) {
        for (const std::size_t next : {std::size_t(0), std::size_t(1)}) {
          // state 0 is updated; next_state 0 is the state itself.
          QTable got(states, actions);
          for (std::size_t s = 0; s < states; ++s) {
            const auto& row = rows[(ri + s) % rows.size()];
            for (std::size_t a = 0; a < actions; ++a) got.set(s, a, row[a]);
          }
          QTable want = got;
          got.update(0, action, reward, next, cfg);
          reference_update(want, 0, action, reward, next, cfg);
          ASSERT_EQ(bits(got.value(0, action)), bits(want.value(0, action)))
              << "row=" << ri << " reward=" << reward
              << " action=" << action << " next=" << next;
          expect_tables_bit_equal(got, want);
        }
      }
    }
  }
}

TEST(QTableUpdate, ShortRowsMatchReference) {
  // Row widths below, at and around one four-chain block.
  const QLearningConfig cfg;
  Rng rng(0xb10c4u);
  for (std::size_t actions = 1; actions <= 11; ++actions) {
    for (int trial = 0; trial < 20; ++trial) {
      QTable got(2, actions);
      for (std::size_t s = 0; s < 2; ++s) {
        for (std::size_t a = 0; a < actions; ++a) {
          got.set(s, a, rng.uniform(-4.0, 4.0));
        }
      }
      QTable want = got;
      const auto action = std::size_t(rng.uniform_int(actions));
      const auto next = std::size_t(rng.uniform_int(2));
      const double reward = rng.uniform(-3.0, 4.0);
      got.update(0, action, reward, next, cfg);
      reference_update(want, 0, action, reward, next, cfg);
      ASSERT_EQ(bits(got.value(0, action)), bits(want.value(0, action)))
          << "actions=" << actions << " trial=" << trial;
    }
  }
}

TEST(QTableUpdate, RangeContractCoversAllThreeIndices) {
  QTable q(2, 3);
  const QLearningConfig cfg;
  EXPECT_THROW(q.update(2, 0, 1.0, 0, cfg), gs::ContractError);
  EXPECT_THROW(q.update(0, 3, 1.0, 0, cfg), gs::ContractError);
  EXPECT_THROW(q.update(0, 0, 1.0, 2, cfg), gs::ContractError);
  EXPECT_TRUE(q.pristine());
  q.update(1, 2, 1.0, 0, cfg);
  EXPECT_FALSE(q.pristine());
}

TEST_F(HybridFixture, DecideLeavesAFreshTablePristine) {
  // decide() only reads; a write would mark the table non-pristine and
  // send seed_from_profile down the in-place path.
  (void)hybrid.decide(ctx(150.0));
  EXPECT_TRUE(hybrid.table().pristine());
}

// --- Controllers sharing one seeded table --------------------------------
//
// Every controller seeded over one key reads the same cached values, and
// copies a row only when it first writes it. None of that may show: each
// controller must behave as if it held its own full copy of the seed.

struct HybridSharedTable : HybridRowFixture {
  /// The seed as the historical sweeps compute it, in a table that
  /// shares nothing with the seed cache.
  [[nodiscard]] QTable reference_seed() const {
    QTable q(hybrid.table().num_states(), hybrid.table().num_actions());
    reference_seed_sweeps(q, table, app, power.idle_power().value(),
                          hybrid.num_supply_buckets(), QLearningConfig{});
    return q;
  }
  [[nodiscard]] std::unique_ptr<HybridStrategy> seeded() const {
    auto h = std::make_unique<HybridStrategy>(table, app, power.idle_power());
    h->seed_from_profile();
    return h;
  }
};

TEST_F(HybridSharedTable, FeedbackStaysInItsOwnController) {
  HybridStrategy::clear_seed_cache();
  hybrid.seed_from_profile();
  const auto b = seeded();  // a second view over the same cached seed
  EXPECT_EQ(HybridStrategy::seed_cache_stats().misses, 1u);
  const QTable seed = reference_seed();
  QTable ref = unshared_copy(seed);
  random_epochs(hybrid, table, app, 0x5eed0032u, 3000, &ref);
  const auto c = seeded();  // seeded after the writes above
  EXPECT_EQ(HybridStrategy::seed_cache_stats().misses, 1u);
  expect_tables_bit_equal(b->table(), seed);
  expect_tables_bit_equal(c->table(), seed);
  expect_tables_bit_equal(hybrid.table(), ref);
}

TEST_F(HybridSharedTable, CopiesDoNotSeeEachOthersWrites) {
  hybrid.seed_from_profile();
  const QTable seed = unshared_copy(hybrid.table());
  const QLearningConfig cfg;
  QTable a = hybrid.table();
  QTable want_a = unshared_copy(seed);
  a.update(40, 3, 2.5, 41, cfg);
  reference_update(want_a, 40, 3, 2.5, 41, cfg);
  a.set(7, 0, -1.0);
  want_a.set(7, 0, -1.0);
  // A copy of a written view carries its rows, then diverges.
  QTable b = a;
  QTable want_b = unshared_copy(want_a);
  b.set(40, 3, 42.0);
  want_b.set(40, 3, 42.0);
  b.update(7, 1, -0.5, 7, cfg);
  reference_update(want_b, 7, 1, -0.5, 7, cfg);
  b.update(300, 2, 1.0, 40, cfg);
  reference_update(want_b, 300, 2, 1.0, 40, cfg);
  a.update(300, 5, 0.25, 300, cfg);
  reference_update(want_a, 300, 5, 0.25, 300, cfg);
  expect_tables_bit_equal(a, want_a);
  expect_tables_bit_equal(b, want_b);
  expect_tables_bit_equal(hybrid.table(), seed);
}

TEST_F(HybridSharedTable, LoadStateIntoAViewRestoresTheTable) {
  hybrid.seed_from_profile();
  QTable ref = unshared_copy(hybrid.table());
  random_epochs(hybrid, table, app, 0x10adu, 500, &ref);
  ckpt::StateWriter saved;
  hybrid.save_state(saved);

  // The target is a view with rows of its own, over the same seed.
  const auto b = seeded();
  random_epochs(*b, table, app, 0x0dd5u, 200);
  ckpt::StateReader r(saved.buffer());
  b->load_state(r);
  expect_tables_bit_equal(b->table(), ref);
  ckpt::StateWriter again;
  b->save_state(again);
  EXPECT_EQ(again.buffer(), saved.buffer());

  // The restored controller learns on as the original does.
  random_epochs(hybrid, table, app, 0x7a11u, 300);
  random_epochs(*b, table, app, 0x7a11u, 300);
  expect_tables_bit_equal(b->table(), hybrid.table());
  expect_tables_bit_equal(seeded()->table(), reference_seed());
}

TEST_F(HybridSharedTable, ViewOutlivesTheSeedCache) {
  // Run under ASan: the view's shared_ptr, not the cache, must keep the
  // seeded values alive.
  HybridStrategy::clear_seed_cache();
  hybrid.seed_from_profile();
  QTable ref = unshared_copy(hybrid.table());
  HybridStrategy::clear_seed_cache();
  const auto fresh = seeded();  // rebuilds the seed: a new cache entry
  EXPECT_EQ(HybridStrategy::seed_cache_stats().misses, 1u);
  HybridStrategy::clear_seed_cache();
  random_epochs(hybrid, table, app, 0xc1ea5u, 1000, &ref);
  expect_tables_bit_equal(hybrid.table(), ref);
  expect_tables_bit_equal(fresh->table(), reference_seed());
}

TEST_F(HybridSharedTable, ConcurrentControllersMatchSerialRun) {
  // Four threads write their own controllers' rows while reading one
  // shared base; each table must match the same controller run alone.
  constexpr int kThreads = 4;
  constexpr int kEpochs = 2000;
  std::vector<QTable> serial;
  for (int t = 0; t < kThreads; ++t) {
    const auto h = seeded();
    random_epochs(*h, table, app, 0x7ead0u + std::uint64_t(t), kEpochs);
    serial.push_back(unshared_copy(h->table()));
  }
  HybridStrategy::clear_seed_cache();
  std::vector<std::unique_ptr<HybridStrategy>> hs;
  for (int t = 0; t < kThreads; ++t) hs.push_back(seeded());
  EXPECT_EQ(HybridStrategy::seed_cache_stats().misses, 1u);
  std::vector<std::string> errors(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      try {
        random_epochs(*hs[std::size_t(t)], table, app,
                      0x7ead0u + std::uint64_t(t), kEpochs);
      } catch (const std::exception& e) {
        errors[std::size_t(t)] = e.what();
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    SCOPED_TRACE("controller " + std::to_string(t));
    ASSERT_EQ(errors[std::size_t(t)], "");
    expect_tables_bit_equal(hs[std::size_t(t)]->table(),
                            serial[std::size_t(t)]);
  }
}

}  // namespace
}  // namespace gs::core
