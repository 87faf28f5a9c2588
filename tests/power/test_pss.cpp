#include <gtest/gtest.h>

#include "common/assert.hpp"
#include "power/battery_bank.hpp"
#include "power/pss.hpp"

namespace gs::power {
namespace {

struct PssFixture : ::testing::Test {
  BatteryConfig bc() {
    BatteryConfig c;
    c.capacity = AmpHours(10.0);
    return c;
  }
  Battery battery{bc()};
  Grid grid{GridConfig{Watts(200.0), 1.25, Seconds(120.0)}};
  PowerSourceSelector pss{};
  Seconds epoch{60.0};
};

TEST_F(PssFixture, CaseOneRenewableOnlyWithSurplusCharging) {
  battery.discharge(Watts(50.0), Seconds(600.0));  // make charging possible
  const auto s = pss.settle(Watts(150.0), Watts(211.0), battery, grid, epoch,
                            /*bursting=*/true);
  EXPECT_EQ(s.power_case, PowerCase::RenewableOnly);
  EXPECT_DOUBLE_EQ(s.re_used.value(), 150.0);
  EXPECT_DOUBLE_EQ(s.batt_used.value(), 0.0);
  EXPECT_DOUBLE_EQ(s.grid_used.value(), 0.0);
  EXPECT_GT(s.re_to_battery.value(), 0.0);
  EXPECT_FALSE(s.deficit());
}

TEST_F(PssFixture, CaseTwoBatterySupplementsRenewable) {
  const auto s = pss.settle(Watts(155.0), Watts(100.0), battery, grid, epoch,
                            /*bursting=*/true);
  EXPECT_EQ(s.power_case, PowerCase::RenewableBattery);
  EXPECT_DOUBLE_EQ(s.re_used.value(), 100.0);
  EXPECT_NEAR(s.batt_used.value(), 55.0, 1e-9);
  EXPECT_FALSE(s.deficit());
  EXPECT_LT(battery.state_of_charge(), 1.0);
}

TEST_F(PssFixture, CaseThreeBatteryAlone) {
  const auto s = pss.settle(Watts(155.0), Watts(0.0), battery, grid, epoch,
                            /*bursting=*/true);
  EXPECT_EQ(s.power_case, PowerCase::BatteryOnly);
  EXPECT_NEAR(s.batt_used.value(), 155.0, 1e-9);
  EXPECT_FALSE(s.deficit());
}

TEST_F(PssFixture, GridFallbackCoversNormalMode) {
  // Battery empty, no sun: Normal-mode demand goes to the grid backstop.
  while (!battery.exhausted()) {
    const Watts p = battery.max_discharge_power(epoch);
    if (p.value() < 1.0) break;
    battery.discharge(p, epoch);
  }
  const auto s = pss.settle(Watts(100.0), Watts(0.0), battery, grid, epoch,
                            /*bursting=*/true, /*grid_fallback_cap=*/
                            Watts(100.0));
  EXPECT_EQ(s.power_case, PowerCase::GridFallback);
  EXPECT_DOUBLE_EQ(s.grid_used.value(), 100.0);
  EXPECT_FALSE(s.deficit());
}

TEST_F(PssFixture, DeficitReportedWhenNothingCanCover) {
  while (!battery.exhausted()) {
    const Watts p = battery.max_discharge_power(epoch);
    if (p.value() < 1.0) break;
    battery.discharge(p, epoch);
  }
  const auto s = pss.settle(Watts(155.0), Watts(0.0), battery, grid, epoch,
                            /*bursting=*/true, Watts(0.0));
  EXPECT_TRUE(s.deficit());
  EXPECT_NEAR(s.shortfall.value(), 155.0, 1.0);
}

TEST_F(PssFixture, GridChargesBatteryAfterBurst) {
  battery.discharge(Watts(155.0), Seconds(300.0));
  const double dod = battery.depth_of_discharge();
  const auto s = pss.settle(Watts(0.0), Watts(0.0), battery, grid, epoch,
                            /*bursting=*/false);
  EXPECT_GT(s.grid_to_battery.value(), 0.0);
  EXPECT_LT(battery.depth_of_discharge(), dod);
}

TEST_F(PssFixture, NoGridChargingDuringBurst) {
  battery.discharge(Watts(155.0), Seconds(300.0));
  const auto s = pss.settle(Watts(0.0), Watts(0.0), battery, grid, epoch,
                            /*bursting=*/true);
  EXPECT_DOUBLE_EQ(s.grid_to_battery.value(), 0.0);
}

TEST_F(PssFixture, SurplusChargingEvenDuringBurst) {
  battery.discharge(Watts(155.0), Seconds(300.0));
  const auto s = pss.settle(Watts(100.0), Watts(211.0), battery, grid, epoch,
                            /*bursting=*/true);
  EXPECT_GT(s.re_to_battery.value(), 0.0);
}

TEST_F(PssFixture, IdleEpoch) {
  const auto s = pss.settle(Watts(0.0), Watts(50.0), battery, grid, epoch,
                            /*bursting=*/false);
  EXPECT_EQ(s.power_case, PowerCase::Idle);
  EXPECT_DOUBLE_EQ(s.re_used.value(), 0.0);
}

TEST_F(PssFixture, PlannableSupplyCombinesSources) {
  const Watts supply = PowerSourceSelector::plannable_supply(
      Watts(100.0), battery, epoch);
  EXPECT_GT(supply.value(), 100.0);  // battery adds headroom
}

TEST_F(PssFixture, CaseTransitionSequenceMatchesFigureFour) {
  // Scripted T1..T4 walk: abundant RE -> fading RE -> none -> recovery.
  const auto s1 = pss.settle(Watts(150.0), Watts(211.0), battery, grid,
                             epoch, true);
  EXPECT_EQ(s1.power_case, PowerCase::RenewableOnly);
  const auto s2 = pss.settle(Watts(150.0), Watts(90.0), battery, grid, epoch,
                             true);
  EXPECT_EQ(s2.power_case, PowerCase::RenewableBattery);
  const auto s3 = pss.settle(Watts(150.0), Watts(0.0), battery, grid, epoch,
                             true);
  EXPECT_EQ(s3.power_case, PowerCase::BatteryOnly);
  const auto s4 = pss.settle(Watts(0.0), Watts(0.0), battery, grid, epoch,
                             false);
  EXPECT_EQ(s4.power_case, PowerCase::Idle);
  EXPECT_GT(s4.grid_to_battery.value(), 0.0);
}

TEST(PssNames, ToString) {
  EXPECT_STREQ(to_string(PowerCase::RenewableOnly), "RenewableOnly");
  EXPECT_STREQ(to_string(PowerCase::BatteryOnly), "BatteryOnly");
}

TEST_F(PssFixture, OverBudgetDrawContractViolationsThrow) {
  // Negative demand / supply are contract violations, not silent clamps.
  EXPECT_THROW(pss.settle(Watts(-1.0), Watts(0.0), battery, grid, epoch,
                          /*bursting=*/true),
               gs::ContractError);
  EXPECT_THROW(pss.settle(Watts(10.0), Watts(-1.0), battery, grid, epoch,
                          /*bursting=*/true),
               gs::ContractError);
  // A switch-latency fraction outside [0,1) would burn more than the epoch.
  PssFaultState fault;
  fault.switch_latency_fraction = 1.0;
  EXPECT_THROW(pss.settle(Watts(10.0), Watts(10.0), battery, grid, epoch,
                          /*bursting=*/true, Watts(0.0), fault),
               gs::ContractError);
}

TEST_F(PssFixture, ZeroDemandSettleStillRejectsNonPositiveDt) {
  // A zero-demand epoch never reaches the battery's Peukert solve, so
  // settle() must check dt itself, for both battery representations.
  BatteryBank bank(bc(), 2);
  for (const Seconds dt : {Seconds(0.0), Seconds(-60.0)}) {
    EXPECT_THROW(pss.settle(Watts(0.0), Watts(0.0), battery, grid, dt,
                            /*bursting=*/true),
                 gs::ContractError);
    EXPECT_THROW(pss.settle(Watts(0.0), Watts(50.0), BatteryRef(bank, 1),
                            grid, dt, /*bursting=*/false),
                 gs::ContractError);
  }
  // Renewables covering the whole demand take the same skip.
  const auto s = pss.settle(Watts(40.0), Watts(100.0), BatteryRef(bank, 0),
                            grid, epoch, /*bursting=*/true);
  EXPECT_EQ(s.power_case, PowerCase::RenewableOnly);
  EXPECT_EQ(s.batt_used.value(), 0.0);
}

TEST_F(PssFixture, GridDrawContractViolationsThrow) {
  EXPECT_THROW(grid.draw(Watts(-5.0), epoch), gs::ContractError);
  EXPECT_THROW(grid.draw(Watts(5.0), Seconds(0.0)), gs::ContractError);
}

}  // namespace
}  // namespace gs::power
