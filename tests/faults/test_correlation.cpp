// Correlated fault storms (faults/correlation): spec parsing, latent-model
// properties, cascade propagation bounds and determinism across thread
// counts. (That a disabled spec yields the independent schedule is pinned
// in test_fault_schedule.cpp.)
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/assert.hpp"
#include "common/thread_pool.hpp"
#include "faults/correlation.hpp"
#include "faults/fault_schedule.hpp"

namespace gs::faults {
namespace {

constexpr Seconds kHorizon{7200.0};
constexpr Seconds kEpoch{60.0};

CorrelationSpec storm_spec() {
  return CorrelationSpec::parse("storm=0.8,cascade=0.5,regime_on=0.15");
}

bool events_identical(const FaultSchedule& a, const FaultSchedule& b) {
  if (a.events().size() != b.events().size()) return false;
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    const auto& x = a.events()[i];
    const auto& y = b.events()[i];
    if (x.cls != y.cls || x.start.value() != y.start.value() ||
        x.duration.value() != y.duration.value() ||
        x.magnitude != y.magnitude || x.target != y.target ||
        x.origin != y.origin) {
      return false;
    }
  }
  return true;
}

TEST(CorrelationSpec, DefaultIsDisabled) {
  EXPECT_FALSE(CorrelationSpec{}.enabled());
  EXPECT_TRUE(CorrelationSpec{}.to_string().empty());
}

TEST(CorrelationSpec, ParseToStringRoundTrip) {
  const auto spec = CorrelationSpec::parse(
      "storm=0.6,front_spacing=40,front_min=3,front_max=12,front_boost=4,"
      "cascade=0.5,cascade_window=2,rack=8,regime_on=0.1,regime_off=0.3,"
      "regime_boost=2.5,regime_damp=0.5,seed=9");
  EXPECT_TRUE(spec.enabled());
  EXPECT_DOUBLE_EQ(spec.storm_intensity, 0.6);
  EXPECT_EQ(spec.front_min_epochs, 3);
  EXPECT_EQ(spec.front_max_epochs, 12);
  EXPECT_DOUBLE_EQ(spec.cascade_hazard, 0.5);
  EXPECT_EQ(spec.servers_per_rack, 8);
  EXPECT_DOUBLE_EQ(spec.regime_on, 0.1);
  EXPECT_EQ(spec.seed, 9u);
  const auto back = CorrelationSpec::parse(spec.to_string());
  EXPECT_EQ(back.to_string(), spec.to_string());
  EXPECT_DOUBLE_EQ(back.front_boost, spec.front_boost);
  EXPECT_EQ(back.cascade_window_epochs, spec.cascade_window_epochs);
}

TEST(CorrelationSpec, ParseRejectsBadInput) {
  EXPECT_THROW((void)CorrelationSpec::parse("bogus=1"), ContractError);
  EXPECT_THROW((void)CorrelationSpec::parse("storm=1.5"), ContractError);
  EXPECT_THROW((void)CorrelationSpec::parse("cascade=-0.1"), ContractError);
  EXPECT_THROW((void)CorrelationSpec::parse("front_min=9,front_max=2"),
               ContractError);
}

TEST(RackTopology, ContiguousBlocksAndBounds) {
  const RackTopology topo{8, 4};
  EXPECT_EQ(topo.rack_of(0), 0);
  EXPECT_EQ(topo.rack_of(3), 0);
  EXPECT_EQ(topo.rack_of(4), 1);
  EXPECT_EQ(topo.rack_of(7), 1);
  EXPECT_TRUE(topo.same_rack(0, 3));
  EXPECT_FALSE(topo.same_rack(3, 4));
  EXPECT_THROW((void)topo.rack_of(8), ContractError);
  EXPECT_THROW((void)topo.rack_of(-1), ContractError);
}

TEST(StormModel, FrontsBoostWeatherClassesOnly) {
  const auto spec = FaultSpec::uniform(0.3, 21);
  const auto corr = CorrelationSpec::parse("storm=0.9,front_boost=3");
  const StormModel model(spec, corr, kHorizon, kEpoch);
  ASSERT_FALSE(model.fronts().empty());
  const auto& front = model.fronts().front();
  const Seconds inside = front.start + front.duration * 0.5;
  // Inside a front the weather classes' activation scale exceeds 1 and is
  // bounded by the peak boost compounded over the (possibly overlapping)
  // fronts; crash (non-weather) stays at 1.
  const double boost = model.weather_boost(FaultClass::PanelDropout, inside);
  EXPECT_GT(boost, 1.0);
  EXPECT_LE(boost,
            std::pow(corr.front_boost, double(model.fronts().size())) + 1e-12);
  EXPECT_DOUBLE_EQ(model.weather_boost(FaultClass::ServerCrash, inside), 1.0);
  // With the regime chain disabled the regime factor is neutral.
  EXPECT_DOUBLE_EQ(model.regime_factor(inside), 1.0);
}

TEST(StormModel, RegimeWindowsClusterActivations) {
  const auto spec = FaultSpec::uniform(0.3, 22);
  const auto corr =
      CorrelationSpec::parse("regime_on=0.3,regime_boost=2,regime_damp=0.5");
  const StormModel model(spec, corr, kHorizon, kEpoch);
  ASSERT_FALSE(model.regimes().empty());
  const auto& win = model.regimes().front();
  const Seconds inside{(win.start.value() + win.end.value()) / 2.0};
  EXPECT_DOUBLE_EQ(model.regime_factor(inside), corr.regime_boost);
  // Any time not covered by a window is damped.
  Seconds outside{0.0};
  bool found = false;
  for (Seconds t{0.0}; t.value() < kHorizon.value(); t += kEpoch) {
    bool covered = false;
    for (const auto& w : model.regimes()) covered = covered || w.covers(t);
    if (!covered) {
      outside = t;
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found);
  EXPECT_DOUBLE_EQ(model.regime_factor(outside), corr.regime_damp);
}

TEST(GenerateCorrelated, ZeroFaultSpecStaysEmpty) {
  // Correlation modulates intensities; it cannot conjure faults from a
  // zero spec.
  const auto s = FaultSchedule::generate(
      FaultSpec{}, storm_spec(), kHorizon, kEpoch, 3);
  EXPECT_TRUE(s.empty());
}

TEST(GenerateCorrelated, FrontsOnlyAddEventsNeverRemove) {
  // With fronts only (boost >= 1 everywhere, no damping regime), the
  // independent schedule is a subset of the correlated one: every base
  // activation still fires, tagged Independent; the extras are Storm.
  const auto spec = FaultSpec::uniform(0.3, 31);
  const auto corr = CorrelationSpec::parse("storm=0.9,front_boost=4");
  const auto plain = FaultSchedule::generate(spec, {}, kHorizon, kEpoch, 3);
  const auto storm =
      FaultSchedule::generate(spec, corr, kHorizon, kEpoch, 3);
  EXPECT_GE(storm.events().size(), plain.events().size());
  std::size_t independent = 0, storm_origin = 0;
  for (const auto& ev : storm.events()) {
    if (ev.origin == FaultOrigin::Independent) ++independent;
    if (ev.origin == FaultOrigin::Storm) ++storm_origin;
  }
  EXPECT_EQ(independent, plain.events().size());
  EXPECT_GT(storm_origin, 0u);
  // Storm-origin events concentrate inside fronts (weather classes only
  // are modulated, and only covered times get a boost).
  for (const auto& ev : storm.events()) {
    if (ev.origin != FaultOrigin::Storm) continue;
    ASSERT_TRUE(is_weather_class(ev.cls));
    bool covered = false;
    for (const auto& f : storm.storm().fronts()) {
      covered = covered || f.covers(ev.start);
    }
    EXPECT_TRUE(covered);
  }
}

TEST(GenerateCorrelated, CascadesRespectTopologyAndWindow) {
  const auto spec = FaultSpec::parse("crash=0.9,seed=5");
  const auto corr = CorrelationSpec::parse("cascade=1,cascade_window=3,rack=4");
  const int servers = 8;
  const auto s =
      FaultSchedule::generate(spec, corr, kHorizon, kEpoch, servers);
  std::vector<FaultEvent> triggers, cascades;
  for (const auto& ev : s.events()) {
    if (ev.origin == FaultOrigin::Cascade) {
      cascades.push_back(ev);
    } else if (ev.cls == FaultClass::ServerCrash) {
      triggers.push_back(ev);
    }
  }
  ASSERT_FALSE(triggers.empty());
  ASSERT_FALSE(cascades.empty());
  const RackTopology topo{servers, corr.servers_per_rack};
  const double window_s = kEpoch.value() * double(corr.cascade_window_epochs);
  for (const auto& c : cascades) {
    EXPECT_EQ(c.cls, FaultClass::ServerCrash);
    ASSERT_GE(c.target, 0);
    ASSERT_LT(c.target, servers);
    EXPECT_LT(c.start.value(), kHorizon.value());
    EXPECT_LE(c.duration.value(), window_s);
    // Every cascade traces back to a same-rack trigger that is not the
    // victim itself, within the propagation window.
    bool explained = false;
    for (const auto& t : triggers) {
      const double delay = c.start.value() - t.start.value();
      if (delay >= kEpoch.value() - 1e-9 && delay <= window_s + 1e-9 &&
          t.target != c.target && topo.same_rack(t.target, c.target)) {
        explained = true;
        break;
      }
    }
    EXPECT_TRUE(explained) << "orphan cascade at t=" << c.start.value()
                           << " target=" << c.target;
  }
}

TEST(GenerateCorrelated, DeterministicAcrossThreadCounts) {
  // Generation is a pure function of its arguments: concurrent generation
  // from a thread pool must agree bit-for-bit with serial generation,
  // regardless of interleaving.
  const auto spec = FaultSpec::uniform(0.4, 77);
  const auto corr = storm_spec();
  const auto reference =
      FaultSchedule::generate(spec, corr, kHorizon, kEpoch, 8);
  for (const std::size_t threads : {1ul, 4ul}) {
    ThreadPool pool(threads);
    constexpr std::size_t kRuns = 12;
    std::vector<FaultSchedule> out(kRuns);
    parallel_for(pool, kRuns, [&](std::size_t i) {
      out[i] =
          FaultSchedule::generate(spec, corr, kHorizon, kEpoch, 8);
    });
    for (const auto& s : out) {
      ASSERT_TRUE(events_identical(reference, s));
    }
  }
}

TEST(GenerateCorrelated, CsvRoundTripPreservesOrigins) {
  const auto spec = FaultSpec::uniform(0.5, 77);
  const auto s =
      FaultSchedule::generate(spec, storm_spec(), kHorizon, kEpoch, 8);
  ASSERT_FALSE(s.empty());
  const auto back = FaultSchedule::from_csv(s.to_csv());
  ASSERT_EQ(back.events().size(), s.events().size());
  bool any_correlated = false;
  for (std::size_t i = 0; i < s.events().size(); ++i) {
    EXPECT_EQ(back.events()[i].origin, s.events()[i].origin);
    any_correlated =
        any_correlated || s.events()[i].origin != FaultOrigin::Independent;
  }
  EXPECT_TRUE(any_correlated);
}

TEST(GenerateCorrelated, LegacyCsvWithoutOriginColumnLoads) {
  const auto back = FaultSchedule::from_csv(
      "class,start_s,duration_s,magnitude,target\n"
      "GridBrownout,100,60,0.5,-1\n");
  ASSERT_EQ(back.events().size(), 1u);
  EXPECT_EQ(back.events()[0].origin, FaultOrigin::Independent);
}

TEST(GenerateCorrelated, CorrelatedActiveSkipsIndependentEvents) {
  const auto spec = FaultSpec::uniform(0.4, 31);
  const auto corr = CorrelationSpec::parse("storm=0.9,front_boost=4");
  const auto s =
      FaultSchedule::generate(spec, corr, kHorizon, kEpoch, 3);
  for (const auto& ev : s.events()) {
    const Seconds mid = ev.start + ev.duration * 0.5;
    if (ev.origin != FaultOrigin::Independent) {
      EXPECT_TRUE(s.correlated_active(ev.cls, mid, ev.target));
    }
    EXPECT_TRUE(s.active(ev.cls, mid, ev.target));
  }
  // A schedule with no correlated events reports none.
  const auto plain = FaultSchedule::generate(spec, {}, kHorizon, kEpoch, 3);
  for (const auto& ev : plain.events()) {
    EXPECT_FALSE(
        plain.correlated_active(ev.cls, ev.start + ev.duration * 0.5,
                                ev.target));
  }
}

}  // namespace
}  // namespace gs::faults
