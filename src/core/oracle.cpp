#include "core/oracle.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "common/assert.hpp"
#include "power/battery_math.hpp"

namespace gs::core {

OraclePlan oracle_plan(const ProfileTable& profile,
                       const std::vector<Watts>& re_supply, double lambda,
                       const power::BatteryConfig& battery, Seconds epoch,
                       Watts grid_backstop, OracleConfig cfg) {
  GS_REQUIRE(!re_supply.empty(), "oracle needs at least one epoch");
  GS_REQUIRE(cfg.battery_grid >= 1, "battery grid must be positive");
  const auto n_epochs = re_supply.size();
  const auto n_actions = profile.lattice().size();
  const int level = profile.level_for(lambda);
  const double dt_h = epoch.value() / 3600.0;

  const double usable_ah = battery.max_dod * battery.capacity.value();
  const auto grid_pts = std::size_t(cfg.battery_grid) + 1;
  const double ah_step = usable_ah > 0.0 ? usable_ah / cfg.battery_grid : 0.0;

  // Precompute per-action demand, goodput and whether Normal (grid-backed).
  const std::size_t normal_idx =
      profile.lattice().index_of(server::normal_mode());
  std::vector<double> demand_w(n_actions), goodput(n_actions);
  for (std::size_t a = 0; a < n_actions; ++a) {
    demand_w[a] = profile.power(level, a).value();
    goodput[a] = profile.goodput(level, a);
  }

  // value[g] = best total goodput from the current epoch onward with g
  // grid-points of usable battery left. Iterate epochs backwards.
  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  std::vector<double> value(grid_pts, 0.0), next(grid_pts, 0.0);
  // choice[e][g] = best action index.
  std::vector<std::vector<std::uint16_t>> choice(
      n_epochs, std::vector<std::uint16_t>(grid_pts, 0));

  const double charge_ah_cap = battery.max_charge_power.value() *
                               battery.charge_efficiency * dt_h /
                               battery.nominal_voltage.value();

  for (std::size_t e = n_epochs; e-- > 0;) {
    std::swap(value, next);
    const double re = re_supply[e].value();
    for (std::size_t g = 0; g < grid_pts; ++g) {
      const double ah_left = double(g) * ah_step;
      double best = kNegInf;
      std::uint16_t best_a = std::uint16_t(normal_idx);
      for (std::size_t a = 0; a < n_actions; ++a) {
        const bool is_normal = a == normal_idx;
        double from_green = demand_w[a];
        if (is_normal) {
          // Grid backstop covers Normal mode demand beyond the green bus.
          from_green = std::max(0.0, demand_w[a] -
                                         std::min(demand_w[a],
                                                  grid_backstop.value()));
        }
        const double shortfall = std::max(0.0, from_green - re);
        double g_after = double(g);
        if (shortfall > 0.0) {
          const double amps = shortfall / battery.nominal_voltage.value();
          const double drain =
              power::battmath::effective_current(battery, amps) * dt_h;
          if (drain > ah_left + 1e-12) continue;  // infeasible action
          g_after = (ah_left - drain) / (ah_step > 0.0 ? ah_step : 1.0);
        } else {
          // Surplus renewable charges the battery (bounded by the
          // charger and by full).
          const double surplus = re - from_green;
          const double gain = std::min(
              {surplus * dt_h / battery.nominal_voltage.value(),
               charge_ah_cap, usable_ah - ah_left});
          g_after = ah_step > 0.0 ? (ah_left + gain) / ah_step : 0.0;
        }
        // Round down: conservative on remaining energy.
        const auto g_next =
            std::min(grid_pts - 1, std::size_t(std::max(0.0, g_after)));
        const double v = goodput[a] + next[g_next];
        if (v > best) {
          best = v;
          best_a = std::uint16_t(a);
        }
      }
      value[g] = best;
      choice[e][g] = best_a;
    }
  }

  // Forward pass: execute the plan from a full battery, tracking the exact
  // (un-discretized) state the same way the DP modeled it.
  OraclePlan plan;
  plan.settings.reserve(n_epochs);
  double ah_left = usable_ah;
  for (std::size_t e = 0; e < n_epochs; ++e) {
    const auto g = std::size_t(
        std::min(double(cfg.battery_grid),
                 std::max(0.0, ah_step > 0.0 ? ah_left / ah_step : 0.0)));
    const auto a = choice[e][g];
    plan.settings.push_back(profile.lattice().at(a));
    plan.total_goodput += goodput[a];
    const double re = re_supply[e].value();
    const bool is_normal = a == normal_idx;
    double from_green = demand_w[a];
    if (is_normal) {
      from_green = std::max(
          0.0, demand_w[a] - std::min(demand_w[a], grid_backstop.value()));
    }
    const double shortfall = std::max(0.0, from_green - re);
    if (shortfall > 0.0) {
      const double amps = shortfall / battery.nominal_voltage.value();
      const double drain =
          power::battmath::effective_current(battery, amps) * dt_h;
      ah_left = std::max(0.0, ah_left - drain);
    } else {
      const double surplus = re - from_green;
      const double gain =
          std::min({surplus * dt_h / battery.nominal_voltage.value(),
                    charge_ah_cap, usable_ah - ah_left});
      ah_left += gain;
    }
  }
  plan.mean_goodput = plan.total_goodput / double(n_epochs);
  return plan;
}

}  // namespace gs::core
