// Per-component checkpoint round-trips: saving a component and loading the
// snapshot into a freshly constructed instance must reproduce the original
// state bit-exactly, and loading a snapshot of the wrong component or
// schema version must throw ckpt::SnapshotError.
#include <gtest/gtest.h>

#include "ckpt/state_io.hpp"
#include "faults/fault_injector.hpp"
#include "power/battery.hpp"
#include "power/grid.hpp"
#include "power/pss.hpp"
#include "thermal/pcm.hpp"

namespace gs {
namespace {

TEST(ComponentState, BatteryRoundTripContinuesBitExactly) {
  power::Battery original{power::BatteryConfig{}};
  (void)original.discharge(Watts(50.0), Seconds(120.0));
  (void)original.charge(Watts(30.0), Seconds(60.0));
  original.set_capacity_fade(0.9);
  original.set_charge_derate(0.8);

  ckpt::StateWriter w;
  original.save_state(w);
  power::Battery restored{power::BatteryConfig{}};
  ckpt::StateReader r(w.buffer());
  restored.load_state(r);
  EXPECT_TRUE(r.at_end());

  EXPECT_EQ(restored.depth_of_discharge(), original.depth_of_discharge());
  EXPECT_EQ(restored.equivalent_cycles(), original.equivalent_cycles());
  EXPECT_EQ(restored.capacity_fade(), original.capacity_fade());
  EXPECT_EQ(restored.charge_derate(), original.charge_derate());
  // Future behavior must agree exactly, not just the observable summary.
  EXPECT_EQ(restored.max_discharge_power(Seconds(60.0)).value(),
            original.max_discharge_power(Seconds(60.0)).value());
  EXPECT_EQ(restored.discharge(Watts(20.0), Seconds(60.0)).value(),
            original.discharge(Watts(20.0), Seconds(60.0)).value());
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

TEST(ComponentState, PssRoundTripValidatesWiring) {
  power::PssConfig cfg;
  cfg.grid_charging = false;
  const power::PowerSourceSelector original(cfg);

  ckpt::StateWriter w;
  original.save_state(w);
  power::PowerSourceSelector same(cfg);
  ckpt::StateReader r(w.buffer());
  same.load_state(r);  // matching wiring loads cleanly

  power::PowerSourceSelector other;  // grid_charging defaults to true
  ckpt::StateReader r2(w.buffer());
  EXPECT_THROW(other.load_state(r2), ckpt::SnapshotError);
}

TEST(ComponentState, PcmRoundTripKeepsStoredHeat) {
  thermal::PcmBuffer original{thermal::PcmConfig{}};
  ASSERT_TRUE(original.absorb(Watts(150.0), Seconds(600.0)));

  ckpt::StateWriter w;
  original.save_state(w);
  thermal::PcmBuffer restored{thermal::PcmConfig{}};
  ckpt::StateReader r(w.buffer());
  restored.load_state(r);

  EXPECT_EQ(restored.stored().value(), original.stored().value());
  EXPECT_EQ(restored.time_to_saturation(Watts(160.0)).value(),
            original.time_to_saturation(Watts(160.0)).value());
}

TEST(ComponentState, FaultInjectorRoundTripReplaysIdentically) {
  const auto spec = faults::FaultSpec::uniform(0.4, 7);
  const faults::FaultInjector original(spec, Seconds(1800.0), Seconds(60.0),
                                       2);

  ckpt::StateWriter w;
  original.save_state(w);
  faults::FaultInjector restored;
  ckpt::StateReader r(w.buffer());
  restored.load_state(r);

  EXPECT_EQ(restored.enabled(), original.enabled());
  for (double t = 0.0; t < 1800.0; t += 60.0) {
    const auto a = original.at(Seconds(t));
    const auto b = restored.at(Seconds(t));
    EXPECT_EQ(b.solar_factor, a.solar_factor);
    EXPECT_EQ(b.battery_capacity_factor, a.battery_capacity_factor);
    EXPECT_EQ(b.grid_budget_factor, a.grid_budget_factor);
    EXPECT_EQ(b.battery_offline, a.battery_offline);
    EXPECT_EQ(b.sensor_dropout, a.sensor_dropout);
    EXPECT_EQ(b.sensor_load_factor, a.sensor_load_factor);
    EXPECT_EQ(b.switch_latency_fraction, a.switch_latency_fraction);
    for (int s = 0; s < 2; ++s) {
      EXPECT_EQ(b.speed(s), a.speed(s));
      EXPECT_EQ(b.crashed(s), a.crashed(s));
    }
  }
}

TEST(ComponentState, WrongComponentSnapshotThrows) {
  power::Battery battery{power::BatteryConfig{}};
  ckpt::StateWriter w;
  battery.save_state(w);

  thermal::PcmBuffer pcm{thermal::PcmConfig{}};
  ckpt::StateReader r(w.buffer());
  EXPECT_THROW(pcm.load_state(r), ckpt::SnapshotError);
}

TEST(ComponentState, NewerSchemaVersionThrows) {
  // Hand-craft a "battery" section written by a (hypothetical) newer
  // schema; today's reader must refuse it rather than guess the layout.
  ckpt::StateWriter w;
  w.begin_section("battery", power::Battery::kStateVersion + 1);
  w.end_section();

  power::Battery battery{power::BatteryConfig{}};
  ckpt::StateReader r(w.buffer());
  EXPECT_THROW(battery.load_state(r), ckpt::SnapshotError);
}

}  // namespace
}  // namespace gs
