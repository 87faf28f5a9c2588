#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string_view>
#include <tuple>

#include "ckpt/state_io.hpp"
#include "faults/fault_schedule.hpp"

namespace gs::faults {
namespace {

constexpr Seconds kHorizon{3600.0};
constexpr Seconds kEpoch{60.0};

TEST(FaultSchedule, ZeroSpecIsEmpty) {
  const auto s = FaultSchedule::generate(FaultSpec{}, {}, kHorizon, kEpoch, 3);
  EXPECT_TRUE(s.empty());
}

TEST(FaultSchedule, SameInputsReplayIdenticalStream) {
  const auto spec = FaultSpec::uniform(0.4, 123);
  const auto a = FaultSchedule::generate(spec, {}, kHorizon, kEpoch, 3);
  const auto b = FaultSchedule::generate(spec, {}, kHorizon, kEpoch, 3);
  ASSERT_EQ(a.events().size(), b.events().size());
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].cls, b.events()[i].cls);
    EXPECT_DOUBLE_EQ(a.events()[i].start.value(),
                     b.events()[i].start.value());
    EXPECT_DOUBLE_EQ(a.events()[i].duration.value(),
                     b.events()[i].duration.value());
    EXPECT_DOUBLE_EQ(a.events()[i].magnitude, b.events()[i].magnitude);
    EXPECT_EQ(a.events()[i].target, b.events()[i].target);
  }
}

TEST(FaultSchedule, DifferentSeedsDiffer) {
  const auto a = FaultSchedule::generate(FaultSpec::uniform(0.4, 1), {},
                                         kHorizon, kEpoch, 3);
  const auto b = FaultSchedule::generate(FaultSpec::uniform(0.4, 2), {},
                                         kHorizon, kEpoch, 3);
  bool differs = a.events().size() != b.events().size();
  for (std::size_t i = 0; !differs && i < a.events().size(); ++i) {
    differs = a.events()[i].start.value() != b.events()[i].start.value() ||
              a.events()[i].magnitude != b.events()[i].magnitude;
  }
  EXPECT_TRUE(differs);
}

TEST(FaultSchedule, NestedByIntensity) {
  // The events active at a low intensity must be a subset (by class, start,
  // duration, target) of those active at any higher intensity, with
  // magnitudes that never shrink. This is what makes the resilience
  // bench's QoS curve monotone rather than resampled noise.
  const std::uint64_t seed = 7;
  auto key = [](const FaultEvent& e) {
    return std::make_tuple(int(e.cls), e.start.value(), e.duration.value(),
                           e.target);
  };
  for (double lo = 0.1; lo < 0.5; lo += 0.1) {
    const double hi = lo + 0.1;
    const auto a = FaultSchedule::generate(FaultSpec::uniform(lo, seed), {},
                                           kHorizon, kEpoch, 3);
    const auto b = FaultSchedule::generate(FaultSpec::uniform(hi, seed), {},
                                           kHorizon, kEpoch, 3);
    std::map<std::tuple<int, double, double, int>, double> high;
    for (const auto& e : b.events()) high[key(e)] = e.magnitude;
    for (const auto& e : a.events()) {
      const auto it = high.find(key(e));
      ASSERT_NE(it, high.end())
          << "event at intensity " << lo << " missing at " << hi;
      EXPECT_GE(it->second, e.magnitude);
    }
    EXPECT_GE(b.events().size(), a.events().size());
  }
}

TEST(FaultSchedule, MagnitudeAtComposesOverlaps) {
  const auto spec = FaultSpec::uniform(0.9, 11);
  const auto s = FaultSchedule::generate(spec, {}, kHorizon, kEpoch, 3);
  ASSERT_FALSE(s.empty());
  for (const auto& e : s.events()) {
    const Seconds mid = e.start + e.duration * 0.5;
    EXPECT_TRUE(s.active(e.cls, mid, e.target));
    // Combined magnitude at least this event's own severity, capped at 1.
    const double m = s.magnitude_at(e.cls, mid, e.target);
    EXPECT_GE(m, e.magnitude - 1e-12);
    EXPECT_LE(m, 1.0);
  }
  // Before t=0 nothing is active.
  for (auto c : all_fault_classes()) {
    EXPECT_DOUBLE_EQ(s.magnitude_at(c, Seconds(-1.0)), 0.0);
  }
}

TEST(FaultSchedule, TargetsOnlyMatchTheirServer) {
  const auto spec = FaultSpec::parse("crash=0.9,straggler=0.9,seed=5");
  const auto s = FaultSchedule::generate(spec, {}, kHorizon, kEpoch, 4);
  ASSERT_FALSE(s.empty());
  for (const auto& e : s.events()) {
    ASSERT_GE(e.target, 0);
    ASSERT_LT(e.target, 4);
    const Seconds mid = e.start + e.duration * 0.5;
    EXPECT_GT(s.magnitude_at(e.cls, mid, e.target), 0.0);
  }
}

TEST(FaultSchedule, CsvRoundTrip) {
  const auto spec = FaultSpec::uniform(0.5, 77);
  const auto s = FaultSchedule::generate(spec, {}, kHorizon, kEpoch, 3);
  ASSERT_FALSE(s.empty());
  const auto back = FaultSchedule::from_csv(s.to_csv());
  ASSERT_EQ(back.events().size(), s.events().size());
  for (std::size_t i = 0; i < s.events().size(); ++i) {
    EXPECT_EQ(back.events()[i].cls, s.events()[i].cls);
    EXPECT_NEAR(back.events()[i].start.value(), s.events()[i].start.value(),
                1e-6);
    EXPECT_NEAR(back.events()[i].duration.value(),
                s.events()[i].duration.value(), 1e-6);
    EXPECT_NEAR(back.events()[i].magnitude, s.events()[i].magnitude, 1e-9);
    EXPECT_EQ(back.events()[i].target, s.events()[i].target);
  }
}

TEST(FaultSchedule, EventsStayInsideHorizonAndValid) {
  const auto spec = FaultSpec::uniform(1.0, 9);
  const auto s = FaultSchedule::generate(spec, {}, kHorizon, kEpoch, 3);
  ASSERT_FALSE(s.empty());
  for (const auto& e : s.events()) {
    EXPECT_GE(e.start.value(), 0.0);
    EXPECT_LT(e.start.value(), kHorizon.value());
    EXPECT_GT(e.duration.value(), 0.0);
    EXPECT_GT(e.magnitude, 0.0);
    EXPECT_LE(e.magnitude, 1.0);
  }
}

/// FNV-1a over `bytes`, continuing from `h`.
std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h) {
  for (const char c : bytes) {
    h ^= std::uint8_t(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

TEST(FaultSchedule, UncorrelatedSchedulesArePinned) {
  // Every uncorrelated schedule, as CSV and as checkpoint bytes, over a
  // grid of specs x servers x horizons (30 min to 3 days). The digests
  // were recorded from the independent-candidate generator that predates
  // correlation; with correlation disabled, generate() must reproduce it
  // byte for byte.
  struct Pin {
    const char* spec;
    std::uint64_t digest;
  };
  const Pin pins[] = {
      {"all=1,seed=5", 0x2d5805b158708a82ull},
      {"all=0.3,seed=7", 0xac279cdc38158319ull},
      {"all=0.05,seed=99", 0xfd03963a1ee1a3eaull},
      {"crash=0.5,straggler=0.4,seed=11", 0x9fd6c71d2e129685ull},
      {"brownout=0.6,panel=0.5,cloud=0.2,seed=3", 0xdfe1d1ccbed9a5e2ull},
      {"fade=0.8,charge=0.7,pss_stuck=0.3,pss_latency=0.5,seed=21",
       0x5f949a590ef15606ull},
      {"sensor_noise=0.9,sensor_dropout=0.6,seed=2", 0xac8d3664997b4724ull},
  };
  for (const Pin& pin : pins) {
    const FaultSpec spec = FaultSpec::parse(pin.spec);
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const int servers : {1, 3, 16}) {
      for (const double horizon_s : {1800.0, 86400.0, 259200.0}) {
        const auto s = FaultSchedule::generate(spec, {}, Seconds(horizon_s),
                                               kEpoch, servers);
        ckpt::StateWriter w;
        s.save_state(w);
        h = fnv1a(s.to_csv(), h);
        h = fnv1a(w.buffer(), h);
      }
    }
    EXPECT_EQ(h, pin.digest) << pin.spec << " digests to 0x" << std::hex << h;
  }
}

}  // namespace
}  // namespace gs::faults
