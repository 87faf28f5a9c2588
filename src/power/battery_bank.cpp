#include "power/battery_bank.hpp"

#include "ckpt/state_io.hpp"
#include "common/assert.hpp"

namespace gs::power {

BatteryBank::BatteryBank(BatteryConfig cfg, std::size_t n)
    : cfg_(cfg),
      used_ah_(n, 0.0),
      lifetime_ah_(n, 0.0),
      fade_(n, 1.0),
      derate_(n, 1.0) {
  GS_REQUIRE(cfg_.capacity.value() > 0.0, "battery capacity must be positive");
  GS_REQUIRE(cfg_.peukert_exponent >= 1.0, "Peukert exponent must be >= 1");
  GS_REQUIRE(cfg_.max_dod > 0.0 && cfg_.max_dod <= 1.0,
             "DoD cap must be in (0,1]");
  GS_REQUIRE(cfg_.charge_efficiency > 0.0 && cfg_.charge_efficiency <= 1.0,
             "charge efficiency must be in (0,1]");
}

void BatteryBank::set_capacity_fade_all(double factor) {
  GS_REQUIRE(factor > 0.0 && factor <= 1.0,
             "capacity fade factor must be in (0,1]");
  for (double& f : fade_) f = factor;
}

void BatteryBank::set_charge_derate_all(double factor) {
  GS_REQUIRE(factor > 0.0 && factor <= 1.0,
             "charge derate factor must be in (0,1]");
  for (double& d : derate_) d = factor;
}

double BatteryBank::total_soc() const {
  double sum = 0.0;
  for (std::size_t i = 0; i < used_ah_.size(); ++i) {
    sum += state_of_charge(i);
  }
  return sum;
}

double BatteryBank::total_equivalent_cycles() const {
  double sum = 0.0;
  for (std::size_t i = 0; i < lifetime_ah_.size(); ++i) {
    sum += equivalent_cycles(i);
  }
  return sum;
}

void BatteryBank::save_state_element(ckpt::StateWriter& w,
                                     std::size_t i) const {
  w.begin_section("battery", kStateVersion);
  w.f64(used_ah_[i]);
  w.f64(lifetime_ah_[i]);
  w.f64(fade_[i]);
  w.f64(derate_[i]);
  w.end_section();
}

void BatteryBank::load_state_element(ckpt::StateReader& r, std::size_t i) {
  r.begin_section("battery", kStateVersion);
  used_ah_[i] = r.f64();
  lifetime_ah_[i] = r.f64();
  fade_[i] = r.f64();
  derate_[i] = r.f64();
  r.end_section();
}

}  // namespace gs::power
