// A learned Hybrid policy persists through the strategy's checkpoint
// section (save_state / load_state): decisions survive the round trip,
// and a table of the wrong shape is refused.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "ckpt/state_io.hpp"
#include "core/hybrid.hpp"

namespace gs::core {
namespace {

struct PolicyFixture : ::testing::Test {
  workload::AppDescriptor app = workload::specjbb();
  workload::PerfModel perf{app};
  server::ServerPowerModel power{Watts(76.0)};
  ProfileTable table{perf, power};
};

TEST(QTableIo, DimensionMismatchThrows) {
  const workload::AppDescriptor app = workload::specjbb();
  const workload::PerfModel perf(app);
  const server::ServerPowerModel power(Watts(76.0));
  const ProfileTable table(perf, power);
  const HybridStrategy fine(table, app, power.idle_power());
  QLearningConfig coarse_cfg;
  coarse_cfg.supply_step = 0.1;  // half the supply buckets
  HybridStrategy coarse(table, app, power.idle_power(), coarse_cfg);
  ASSERT_NE(coarse.table().num_states(), fine.table().num_states());
  ckpt::StateWriter w;
  fine.save_state(w);
  ckpt::StateReader r(w.buffer());
  EXPECT_THROW(coarse.load_state(r), ckpt::SnapshotError);
}

TEST_F(PolicyFixture, WarmStartReproducesDecisions) {
  // Train one Hybrid instance, persist its policy, load into a fresh
  // instance: decisions must match across the whole context grid.
  HybridStrategy trained(table, app, power.idle_power());
  trained.seed_from_profile();
  // A little online experience on top of the seeding.
  for (int i = 0; i < 10; ++i) {
    EpochContext ctx{perf.intensity_load(12), Watts(150.0), Seconds(60.0)};
    EpochFeedback fb;
    fb.context = ctx;
    fb.action = trained.decide(ctx);
    fb.power_demand = Watts(150.0);
    fb.actual_supply = Watts(120.0);
    fb.achieved_latency = Seconds(0.8);
    fb.observed_load = ctx.predicted_load;
    fb.next_context = ctx;
    trained.feedback(fb);
  }

  ckpt::StateWriter w;
  trained.save_state(w);
  HybridStrategy fresh(table, app, power.idle_power());
  ckpt::StateReader r(w.buffer());
  fresh.load_state(r);

  // The table itself comes back bit for bit.
  const QTable& a = trained.table();
  const QTable& b = fresh.table();
  for (std::size_t s = 0; s < a.num_states(); ++s) {
    for (std::size_t act = 0; act < a.num_actions(); ++act) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(b.value(s, act)),
                std::bit_cast<std::uint64_t>(a.value(s, act)))
          << "state " << s << " action " << act;
    }
  }
  for (double supply = 95.0; supply <= 215.0; supply += 7.0) {
    for (int intensity : {6, 9, 12}) {
      const EpochContext ctx{perf.intensity_load(intensity), Watts(supply),
                             Seconds(60.0)};
      EXPECT_EQ(fresh.decide(ctx), trained.decide(ctx))
          << "supply=" << supply << " Int=" << intensity;
    }
  }
}

}  // namespace
}  // namespace gs::core
