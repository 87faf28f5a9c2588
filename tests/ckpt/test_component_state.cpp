// Per-component checkpoint round-trips: saving a component and loading the
// snapshot into a freshly constructed instance must reproduce the original
// state bit-exactly, and loading a snapshot of the wrong component or
// schema version must throw ckpt::SnapshotError.
#include <gtest/gtest.h>

#include "ckpt/state_io.hpp"
#include "power/battery_bank.hpp"
#include "power/grid.hpp"

namespace gs {
namespace {

TEST(ComponentState, BatteryRoundTripContinuesBitExactly) {
  // A bank element is the battery state a cluster snapshot carries.
  power::BatteryBank original(power::BatteryConfig{}, 2);
  (void)original.discharge(1, Watts(50.0), Seconds(120.0));
  (void)original.charge(1, Watts(30.0), Seconds(60.0));
  original.set_capacity_fade_all(0.9);
  original.set_charge_derate_all(0.8);

  ckpt::StateWriter w;
  original.save_state_element(w, 1);
  power::BatteryBank restored(power::BatteryConfig{}, 2);
  ckpt::StateReader r(w.buffer());
  restored.load_state_element(r, 1);
  EXPECT_TRUE(r.at_end());

  EXPECT_EQ(restored.depth_of_discharge(1), original.depth_of_discharge(1));
  EXPECT_EQ(restored.equivalent_cycles(1), original.equivalent_cycles(1));
  EXPECT_EQ(restored.capacity_fade()[1], original.capacity_fade()[1]);
  // The untouched element keeps its own state.
  EXPECT_EQ(restored.depth_of_discharge(0), 0.0);
  EXPECT_EQ(restored.capacity_fade()[0], 1.0);
  // Future behavior must agree exactly, not just the observable summary;
  // the charge derate is visible only through a charge.
  EXPECT_EQ(restored.max_discharge_power(1, Seconds(60.0)).value(),
            original.max_discharge_power(1, Seconds(60.0)).value());
  EXPECT_EQ(restored.discharge(1, Watts(20.0), Seconds(60.0)).value(),
            original.discharge(1, Watts(20.0), Seconds(60.0)).value());
  EXPECT_EQ(restored.charge(1, Watts(40.0), Seconds(60.0)).value(),
            original.charge(1, Watts(40.0), Seconds(60.0)).value());
  EXPECT_EQ(restored.depth_of_discharge(1), original.depth_of_discharge(1));
}

TEST(ComponentState, GridRoundTripKeepsBreakerState) {
  power::GridConfig cfg;
  cfg.budget = Watts(200.0);
  power::Grid original(cfg);
  (void)original.draw(Watts(240.0), Seconds(60.0));  // eats overload time
  original.set_budget_derate(0.7);

  ckpt::StateWriter w;
  original.save_state(w);
  power::Grid restored(cfg);
  ckpt::StateReader r(w.buffer());
  restored.load_state(r);

  EXPECT_EQ(restored.tripped(), original.tripped());
  EXPECT_EQ(restored.energy_drawn().value(), original.energy_drawn().value());
  EXPECT_EQ(restored.overload_time_used().value(),
            original.overload_time_used().value());
  EXPECT_EQ(restored.budget_derate(), original.budget_derate());
  EXPECT_EQ(restored.draw(Watts(500.0), Seconds(60.0)).value(),
            original.draw(Watts(500.0), Seconds(60.0)).value());
}

TEST(ComponentState, WrongComponentSnapshotThrows) {
  const power::BatteryBank bank(power::BatteryConfig{}, 1);
  ckpt::StateWriter w;
  bank.save_state_element(w, 0);

  power::Grid grid(power::GridConfig{});
  ckpt::StateReader r(w.buffer());
  EXPECT_THROW(grid.load_state(r), ckpt::SnapshotError);
}

TEST(ComponentState, NewerSchemaVersionThrows) {
  // Hand-craft a "battery" section written by a (hypothetical) newer
  // schema; today's reader must refuse it rather than guess the layout.
  ckpt::StateWriter w;
  w.begin_section("battery", power::BatteryBank::kStateVersion + 1);
  w.end_section();

  power::BatteryBank bank(power::BatteryConfig{}, 1);
  ckpt::StateReader r(w.buffer());
  EXPECT_THROW(bank.load_state_element(r, 0), ckpt::SnapshotError);
}

}  // namespace
}  // namespace gs
