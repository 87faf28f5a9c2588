#include <gtest/gtest.h>

#include <vector>

#include "ckpt/state_io.hpp"
#include "common/rng.hpp"
#include "power/battery.hpp"
#include "power/battery_bank.hpp"
#include "power/grid.hpp"
#include "power/pss.hpp"

namespace gs::power {
namespace {

BatteryConfig small_config() {
  BatteryConfig cfg;
  cfg.capacity = AmpHours(3.2);
  return cfg;
}

// Drive a vector<Battery> and a BatteryBank through the same randomized
// discharge / charge / fade sequence and demand *exact* equality at every
// step — the bank must be a re-layout of the scalar model, not a close
// approximation.
TEST(BatteryBank, BitIdenticalToScalarBatteries) {
  const BatteryConfig cfg = small_config();
  constexpr std::size_t kN = 4;
  std::vector<Battery> scalar(kN, Battery(cfg));
  BatteryBank bank(cfg, kN);
  Rng rng(99);
  const Seconds dt(60.0);

  for (int step = 0; step < 500; ++step) {
    for (std::size_t i = 0; i < kN; ++i) {
      const double u = rng.uniform();
      if (u < 0.5) {
        const Watts cap = scalar[i].max_discharge_power(dt);
        ASSERT_EQ(cap.value(), bank.max_discharge_power(i, dt).value());
        const Watts p = cap * rng.uniform();
        const Joules a = scalar[i].discharge(p, dt);
        const Joules b = bank.discharge(i, p, dt);
        ASSERT_EQ(a.value(), b.value());
      } else if (u < 0.9) {
        const Watts p(rng.uniform() * 120.0);
        const Watts a = scalar[i].charge(p, dt);
        const Watts b = bank.charge(i, p, dt);
        ASSERT_EQ(a.value(), b.value());
      } else {
        const double fade = 0.5 + 0.5 * rng.uniform();
        const double derate = 0.5 + 0.5 * rng.uniform();
        for (auto& s : scalar) {
          s.set_capacity_fade(fade);
          s.set_charge_derate(derate);
        }
        bank.set_capacity_fade_all(fade);
        bank.set_charge_derate_all(derate);
      }
      ASSERT_EQ(scalar[i].state_of_charge(), bank.state_of_charge(i));
      ASSERT_EQ(scalar[i].equivalent_cycles(), bank.equivalent_cycles(i));
    }
  }
}

TEST(BatteryBank, PssSettleMatchesScalarPath) {
  const BatteryConfig cfg = small_config();
  Battery scalar(cfg);
  BatteryBank bank(cfg, 2);
  GridConfig gc;
  gc.budget = Watts(500.0);
  Grid grid_a(gc), grid_b(gc);
  PowerSourceSelector pss;
  const Seconds dt(60.0);

  for (int step = 0; step < 50; ++step) {
    const Watts demand(double(step % 7) * 40.0);
    const Watts re(double(step % 5) * 30.0);
    const bool bursting = step % 3 != 0;
    const auto a = pss.settle(demand, re, scalar, grid_a, dt, bursting,
                              Watts(100.0));
    const auto b = pss.settle(demand, re, BatteryRef(bank, 1), grid_b, dt,
                              bursting, Watts(100.0));
    ASSERT_EQ(a.power_case, b.power_case);
    ASSERT_EQ(a.re_used.value(), b.re_used.value());
    ASSERT_EQ(a.batt_used.value(), b.batt_used.value());
    ASSERT_EQ(a.grid_used.value(), b.grid_used.value());
    ASSERT_EQ(a.re_to_battery.value(), b.re_to_battery.value());
    ASSERT_EQ(a.grid_to_battery.value(), b.grid_to_battery.value());
    ASSERT_EQ(a.shortfall.value(), b.shortfall.value());
    ASSERT_EQ(scalar.state_of_charge(), bank.state_of_charge(1));
  }
  // The untouched element stayed full.
  EXPECT_EQ(bank.state_of_charge(0), 1.0);
}

TEST(BatteryBank, SnapshotInterchangeableWithBattery) {
  // Pin of the `battery` v1 element layout, the one the scalar Battery's
  // snapshot used, so cluster snapshots written before the bank existed
  // still load: used Ah, lifetime Ah, capacity fade, charge derate.
  ckpt::StateWriter w;
  w.begin_section("battery", 1);
  w.f64(0.75);  // used Ah
  w.f64(4.5);   // lifetime discharge Ah
  w.f64(0.8);   // capacity fade
  w.f64(0.9);   // charge derate
  w.end_section();

  const BatteryConfig cfg = small_config();
  BatteryBank bank(cfg, 3);
  ckpt::StateReader r(w.buffer());
  bank.load_state_element(r, 2);
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(bank.used_ah()[2], 0.75);
  EXPECT_EQ(bank.state_of_charge(2), 1.0 - 0.75 / cfg.capacity.value());
  EXPECT_EQ(bank.equivalent_cycles(2), battmath::equivalent_cycles(cfg, 4.5));
  EXPECT_EQ(bank.capacity_fade()[2], 0.8);
  EXPECT_EQ(bank.state_of_charge(0), 1.0);  // other elements untouched

  // Saving the element writes the same bytes back.
  ckpt::StateWriter w2;
  bank.save_state_element(w2, 2);
  EXPECT_EQ(w2.buffer(), w.buffer());
}

}  // namespace
}  // namespace gs::power
