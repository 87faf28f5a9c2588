// Differential test of the fault schedule's time index: every query and
// FaultInjector::at must match, bit for bit, the front-to-back scans of
// the whole schedule that the index replaced. The reference functions
// below are those scans, kept verbatim.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "faults/fault_injector.hpp"

namespace gs::faults {
namespace {

// --- Reference: linear scans over events() --------------------------------

double ref_magnitude_at(const FaultSchedule& s, FaultClass c, Seconds t,
                        int target = -1) {
  double survive = 1.0;
  for (const auto& ev : s.events()) {
    if (ev.cls != c || !ev.covers(t)) continue;
    if (ev.target >= 0 && target >= 0 && ev.target != target) continue;
    survive *= 1.0 - ev.magnitude;
  }
  return 1.0 - survive;
}

bool ref_active(const FaultSchedule& s, FaultClass c, Seconds t,
                int target = -1) {
  for (const auto& ev : s.events()) {
    if (ev.cls != c || !ev.covers(t)) continue;
    if (ev.target >= 0 && target >= 0 && ev.target != target) continue;
    return true;
  }
  return false;
}

bool ref_correlated_active(const FaultSchedule& s, FaultClass c, Seconds t,
                           int target = -1) {
  for (const auto& ev : s.events()) {
    if (ev.origin == FaultOrigin::Independent) continue;
    if (ev.cls != c || !ev.covers(t)) continue;
    if (ev.target >= 0 && target >= 0 && ev.target != target) continue;
    return true;
  }
  return false;
}

EpochFaults ref_at(const FaultInjector& inj, int servers, Seconds t) {
  const FaultSchedule& s = inj.schedule();
  EpochFaults f;
  if (!inj.enabled()) return f;
  f.grid_budget_factor = 1.0 - ref_magnitude_at(s, FaultClass::GridBrownout, t);
  f.solar_factor =
      (1.0 - ref_magnitude_at(s, FaultClass::PanelDropout, t)) *
      (1.0 - ref_magnitude_at(s, FaultClass::CloudTransient, t));
  f.battery_capacity_factor =
      1.0 - ref_magnitude_at(s, FaultClass::BatteryFade, t);
  f.charge_efficiency_factor =
      1.0 - ref_magnitude_at(s, FaultClass::ChargeLoss, t);
  f.battery_offline = ref_active(s, FaultClass::PssStuck, t);
  f.switch_latency_fraction =
      std::min(0.5, ref_magnitude_at(s, FaultClass::PssLatency, t));
  f.sensor_dropout = ref_active(s, FaultClass::SensorDropout, t);
  const double noise_sigma = ref_magnitude_at(s, FaultClass::SensorNoise, t);
  if (noise_sigma > 0.0) {
    Rng noise = Rng::stream(
        s.spec().seed,
        {0x5e45ull, std::uint64_t(std::llround(t.value() * 1000.0))});
    f.sensor_load_factor =
        std::max(0.0, 1.0 + 0.5 * noise_sigma * noise.normal());
  }
  f.server_crashed.resize(std::size_t(std::max(servers, 0)), false);
  f.server_speed.resize(std::size_t(std::max(servers, 0)), 1.0);
  for (int k = 0; k < servers; ++k) {
    f.server_crashed[std::size_t(k)] =
        ref_active(s, FaultClass::ServerCrash, t, k);
    f.server_speed[std::size_t(k)] =
        1.0 - ref_magnitude_at(s, FaultClass::ServerStraggler, t, k);
  }
  return f;
}

// --- Bit-pattern comparison ------------------------------------------------

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Every EpochFaults field as one flat list of bit patterns.
std::vector<std::uint64_t> flatten(const EpochFaults& f) {
  std::vector<std::uint64_t> out = {
      bits(f.grid_budget_factor),       bits(f.solar_factor),
      bits(f.battery_capacity_factor),  bits(f.charge_efficiency_factor),
      std::uint64_t(f.battery_offline), bits(f.switch_latency_fraction),
      bits(f.sensor_load_factor),       std::uint64_t(f.sensor_dropout),
      f.server_crashed.size(),          f.server_speed.size()};
  for (const bool c : f.server_crashed) out.push_back(std::uint64_t(c));
  for (const double v : f.server_speed) out.push_back(bits(v));
  return out;
}

/// Probe times: the epoch grid and an off-grid step over [0, horizon],
/// every event's start and end plus the doubles just below them, negative
/// times, times past the horizon, and the infinities.
std::vector<Seconds> probe_times(const FaultSchedule& s, Seconds horizon,
                                 Seconds epoch) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> ts = {-kInf, -epoch.value(), -1e-9,
                            horizon.value(), horizon.value() + epoch.value(),
                            10.0 * horizon.value(), kInf};
  for (double t = 0.0; t <= horizon.value(); t += epoch.value()) {
    ts.push_back(t);
  }
  for (double t = 0.0; t <= horizon.value(); t += 37.3) ts.push_back(t);
  for (const FaultEvent& ev : s.events()) {
    const double end = (ev.start + ev.duration).value();
    for (const double e : {ev.start.value(), end}) {
      ts.push_back(e);
      ts.push_back(std::nextafter(e, -kInf));
    }
  }
  std::vector<Seconds> out;
  out.reserve(ts.size());
  for (const double t : ts) out.emplace_back(t);
  return out;
}

/// magnitude_at / active / correlated_active against the scans for every
/// class; server classes at every target, one past the last and -1.
void expect_queries_match(const FaultSchedule& s, int servers, Seconds t) {
  for (const FaultClass c : all_fault_classes()) {
    const bool per_server =
        c == FaultClass::ServerCrash || c == FaultClass::ServerStraggler;
    const int last_target = per_server ? servers + 1 : 0;
    for (int target = -1; target <= last_target; ++target) {
      ASSERT_EQ(bits(s.magnitude_at(c, t, target)),
                bits(ref_magnitude_at(s, c, t, target)))
          << to_string(c) << " target " << target << " at t=" << t.value();
      ASSERT_EQ(s.active(c, t, target), ref_active(s, c, t, target))
          << to_string(c) << " target " << target << " at t=" << t.value();
      ASSERT_EQ(s.correlated_active(c, t, target),
                ref_correlated_active(s, c, t, target))
          << to_string(c) << " target " << target << " at t=" << t.value();
    }
  }
}

/// at() and every query against the scans at every probe time.
void expect_matches_scan(const FaultInjector& inj, int servers,
                         Seconds horizon, Seconds epoch) {
  for (const Seconds t : probe_times(inj.schedule(), horizon, epoch)) {
    ASSERT_EQ(flatten(inj.at(t)), flatten(ref_at(inj, servers, t)))
        << "at(" << t.value() << ")";
    expect_queries_match(inj.schedule(), servers, t);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

constexpr Seconds kEpoch{60.0};

FaultSpec random_spec(Rng& rng) {
  FaultSpec spec;
  for (const FaultClass c : all_fault_classes()) {
    spec.set_intensity(c, rng.uniform(0.05, 0.95));
  }
  spec.seed = 1 + rng.uniform_int(1000);
  return spec;
}

CorrelationSpec storm_spec(Rng& rng) {
  CorrelationSpec corr;
  corr.storm_intensity = rng.uniform(0.3, 1.0);
  corr.cascade_hazard = rng.uniform(0.2, 0.8);
  corr.regime_on = rng.uniform(0.05, 0.3);
  corr.servers_per_rack = 1 + int(rng.uniform_int(6));
  return corr;
}

/// The CSV body rows, without the header.
std::vector<std::string> csv_rows(const std::string& csv) {
  std::istringstream in(csv);
  std::string line;
  std::getline(in, line);
  std::vector<std::string> rows;
  while (std::getline(in, line)) rows.push_back(line);
  return rows;
}

std::string csv_of(const std::vector<std::string>& rows) {
  std::string out = "class,start_s,duration_s,magnitude,target,origin\n";
  for (const std::string& r : rows) out += r + "\n";
  return out;
}

TEST(FaultIndex, MatchesLinearScanOnRandomSpecs) {
  Rng rng(20181);
  for (int i = 0; i < 24; ++i) {
    const FaultSpec spec = random_spec(rng);
    const int servers = 1 + int(rng.uniform_int(16));
    const Seconds horizon = kEpoch * double(60 + rng.uniform_int(180));
    const bool correlated = i % 2 == 1;
    const CorrelationSpec corr =
        correlated ? storm_spec(rng) : CorrelationSpec{};
    SCOPED_TRACE("spec " + spec.to_string() + " corr " + corr.to_string() +
                 " servers " + std::to_string(servers) + " horizon " +
                 std::to_string(horizon.value()));
    const FaultInjector inj(spec, corr, horizon, kEpoch, servers);
    ASSERT_FALSE(inj.schedule().empty());
    expect_matches_scan(inj, servers, horizon, kEpoch);
    if (HasFatalFailure()) return;
  }
}

TEST(FaultIndex, MatchesLinearScanOverTwoDays) {
  // A schedule far longer than its longest event: most of it lies outside
  // the walked window at any t.
  const Seconds horizon = kEpoch * (2.0 * 1440.0);
  Rng rng(7);
  const CorrelationSpec corr = storm_spec(rng);
  const FaultInjector inj(FaultSpec::uniform(0.5, 3), corr, horizon, kEpoch,
                          3);
  ASSERT_GT(inj.schedule().events().size(), 1000u);
  for (double t = -kEpoch.value(); t <= horizon.value() + kEpoch.value();
       t += kEpoch.value()) {
    ASSERT_EQ(flatten(inj.at(Seconds(t))), flatten(ref_at(inj, 3, Seconds(t))))
        << "at(" << t << ")";
  }
}

TEST(FaultIndex, CsvReplayInAnyRowOrderMatchesLinearScan) {
  // Survival products are rounded per step, so the index must visit the
  // events in events() order whatever order the CSV rows came in.
  const Seconds horizon = kEpoch * 160.0;
  constexpr int kServers = 8;
  const CorrelationSpec corr =
      CorrelationSpec::parse("storm=0.8,cascade=0.5,regime_on=0.15");
  std::size_t order_sensitive = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const FaultInjector gen(FaultSpec::uniform(0.6, seed), corr, horizon,
                            kEpoch, kServers);
    const std::vector<std::string> rows = csv_rows(gen.schedule().to_csv());
    const std::vector<std::string> reversed(rows.rbegin(), rows.rend());
    std::vector<std::string> shuffled = rows;
    Rng rng(seed);
    for (std::size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[rng.uniform_int(i)]);
    }
    const FaultInjector in_order(FaultSchedule::from_csv(csv_of(rows)),
                                 kServers);
    const std::vector<std::string>* orders[] = {&rows, &reversed, &shuffled};
    for (const std::vector<std::string>* order : orders) {
      const FaultInjector replay(FaultSchedule::from_csv(csv_of(*order)),
                                 kServers);
      expect_matches_scan(replay, kServers, horizon, kEpoch);
      if (HasFatalFailure()) return;
      for (const Seconds t : probe_times(replay.schedule(), horizon, kEpoch)) {
        if (flatten(ref_at(replay, kServers, t)) !=
            flatten(ref_at(in_order, kServers, t))) {
          ++order_sensitive;
        }
      }
    }
  }
  // The row order must matter somewhere, or this test could not tell an
  // events()-order walk from a start-order one.
  EXPECT_GT(order_sensitive, 0u);
}

TEST(FaultIndex, HandWrittenEdgeRowsMatchLinearScan) {
  std::vector<std::string> rows = {
      // Server-class events aimed at every server, at one past the last
      // server, and far past it.
      "ServerCrash,120,180,1,-1,0",
      "ServerCrash,200,60,1,3,0",
      "ServerCrash,210,60,1,7,2",
      "ServerStraggler,100,300,0.4,-1,0",
      "ServerStraggler,150,120,0.3,1,1",
      "ServerStraggler,150,120,0.6,3,0",
      // Zero-duration events cover no t, not even their own start.
      "GridBrownout,500,0,0.9,-1,0",
      "PssStuck,500,0,1,-1,0",
      // Equal starts across classes and within one.
      "PanelDropout,600,60,0.5,-1,0",
      "CloudTransient,600,120,0.25,-1,1",
      "PanelDropout,600,180,0.125,-1,2",
      "SensorNoise,600,60,0.2,-1,0",
      "SensorDropout,600,60,1,-1,0",
      "PssLatency,600,60,0.7,-1,0",
      "PssLatency,600,60,0.6,-1,0",
      // One event far longer than every other.
      "BatteryFade,30,1000000,0.35,-1,0",
      "ChargeLoss,45,90,0.15,-1,0",
  };
  // Many overlapping events of one class, more than fit the walk's inline
  // hit buffer, with magnitudes whose rounded product depends on order.
  for (int i = 0; i < 48; ++i) {
    std::ostringstream row;
    row.precision(17);
    row << "GridBrownout," << 1000 + i << "," << 600 - 7 * i << ","
        << 0.013 * (i % 11) + 0.001 * i << ",-1," << i % 3;
    rows.push_back(row.str());
  }
  const Seconds horizon{2400.0};
  for (const int servers : {1, 3, 8}) {
    SCOPED_TRACE("servers " + std::to_string(servers));
    const std::vector<std::string> reversed(rows.rbegin(), rows.rend());
    const std::vector<std::string>* orders[] = {&rows, &reversed};
    for (const std::vector<std::string>* order : orders) {
      const FaultInjector inj(FaultSchedule::from_csv(csv_of(*order)),
                              servers);
      expect_matches_scan(inj, servers, horizon, kEpoch);
      if (HasFatalFailure()) return;
    }
  }
  // Spot checks that the scans themselves read the rows as intended.
  const FaultInjector inj(FaultSchedule::from_csv(csv_of(rows)), 3);
  const EpochFaults at_130 = inj.at(Seconds(130.0));
  EXPECT_EQ(at_130.server_crashed, std::vector<bool>(3, true));
  EXPECT_FALSE(inj.at(Seconds(500.0)).battery_offline);
  EXPECT_EQ(inj.at(Seconds(500.0)).grid_budget_factor, 1.0);
  EXPECT_LT(inj.at(Seconds(900000.0)).battery_capacity_factor, 1.0);
  EXPECT_LT(inj.at(Seconds(1300.0)).grid_budget_factor, 0.5);
}

TEST(FaultIndex, NonFiniteRowsMatchLinearScan) {
  // from_csv takes nan and inf. Such rows cover no t (or, with an infinite
  // duration, every t from the start on), and must not break the index's
  // ordering: the scans stay the reference.
  const std::vector<std::string> rows = {
      "GridBrownout,nan,60,0.5,-1,0",    "PanelDropout,inf,60,0.5,-1,0",
      "PanelDropout,-inf,60,0.25,-1,0",  "CloudTransient,100,nan,0.5,-1,0",
      "ChargeLoss,100,-60,0.5,-1,0",     "GridBrownout,120,60,0.3,-1,0",
      "ServerStraggler,nan,inf,0.5,1,0", "ServerCrash,150,120,1,0,0",
  };
  const Seconds horizon{600.0};
  const FaultInjector finite(FaultSchedule::from_csv(csv_of(rows)), 3);
  expect_matches_scan(finite, 3, horizon, kEpoch);
  if (HasFatalFailure()) return;
  std::vector<std::string> with_endless = rows;
  with_endless.emplace_back("SensorNoise,200,inf,0.1,-1,0");
  const FaultInjector endless(FaultSchedule::from_csv(csv_of(with_endless)),
                              3);
  expect_matches_scan(endless, 3, horizon, kEpoch);
  EXPECT_TRUE(endless.schedule().active(FaultClass::SensorNoise,
                                        Seconds(1e12)));
}

TEST(FaultIndex, ConcurrentReadersOfOneInjectorAgree) {
  // at() is const with no hidden scratch: two threads may share one
  // injector and each must see exactly the single-threaded answers.
  const Seconds horizon = kEpoch * 720.0;
  constexpr int kServers = 16;
  const FaultInjector inj(
      FaultSpec::uniform(0.6, 5),
      CorrelationSpec::parse("storm=0.8,cascade=0.5,regime_on=0.15"), horizon,
      kEpoch, kServers);
  const std::vector<Seconds> ts = probe_times(inj.schedule(), horizon, kEpoch);
  std::vector<std::vector<std::uint64_t>> want;
  want.reserve(ts.size());
  for (const Seconds t : ts) want.push_back(flatten(ref_at(inj, kServers, t)));

  std::vector<std::size_t> mismatches(2, 0);
  std::vector<std::thread> readers;
  for (std::size_t k = 0; k < 2; ++k) {
    readers.emplace_back([&, k] {
      for (int rep = 0; rep < 4; ++rep) {
        for (std::size_t i = 0; i < ts.size(); ++i) {
          // The two readers walk the times in opposite directions.
          const std::size_t j = k == 0 ? i : ts.size() - 1 - i;
          if (flatten(inj.at(ts[j])) != want[j]) ++mismatches[k];
        }
      }
    });
  }
  for (auto& th : readers) th.join();
  EXPECT_EQ(mismatches[0], 0u);
  EXPECT_EQ(mismatches[1], 0u);
}

}  // namespace
}  // namespace gs::faults
