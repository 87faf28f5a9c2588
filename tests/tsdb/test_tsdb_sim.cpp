// Integration of the telemetry engine with the simulators: the TsdbSink
// fan-out of BurstSim's epoch records, cluster-aggregate recording from
// the day/rack runners, sweep-wide shared-engine ingest, and the headline
// guarantee — a CSV exported back out of the engine is byte-identical to
// the legacy export, including across an engine kill-and-resume.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <string>
#include <unistd.h>

#include "ckpt/state_io.hpp"
#include "sim/day_runner.hpp"
#include "sim/export.hpp"
#include "sim/rack_runner.hpp"
#include "sim/sweep.hpp"
#include "sim/tsdb_sink.hpp"
#include "tsdb/engine.hpp"

namespace gs::sim {
namespace {

namespace fs = std::filesystem;

/// An empty directory under a per-process root, so concurrent runs of one
/// build never share a path; the root is removed when the binary exits.
fs::path fresh_dir(const std::string& name) {
  static const struct Root {
    fs::path path = fs::path(::testing::TempDir()) /
                    ("gs_tsdb_" + std::to_string(::getpid()));
    ~Root() {
      std::error_code ec;
      fs::remove_all(path, ec);
    }
  } root;
  const fs::path dir = root.path / name;
  fs::remove_all(dir);
  return dir;
}

Scenario small_scenario() {
  Scenario sc;
  sc.app = workload::specjbb();
  sc.green = re_sbatt();
  sc.strategy = core::StrategyKind::Pacing;
  sc.availability = trace::Availability::Med;
  sc.burst_duration = Seconds(300.0);
  return sc;
}

Scenario faulted_scenario() {
  Scenario sc = small_scenario();
  sc.burst_duration = Seconds(1200.0);
  sc.faults = faults::FaultSpec::uniform(0.4, 7);
  return sc;
}

BurstResult run_with_engine(const Scenario& sc, tsdb::Engine& engine,
                            std::uint32_t rack = 0,
                            std::uint32_t server = 0) {
  BurstSim sim(sc);
  sim.attach_tsdb(&engine, rack, server);
  while (!sim.done()) sim.step();
  return sim.finish();
}

std::string legacy_csv(const BurstResult& r) {
  std::ostringstream os;
  export_epochs_csv(os, r);
  return os.str();
}

std::string engine_csv(tsdb::Engine& engine, const BurstResult& r,
                       std::uint32_t rack = 0, std::uint32_t server = 0) {
  std::ostringstream os;
  export_epochs_csv(os, engine, rack, server, r.window_start);
  return os.str();
}

TEST(TsdbSim, SinkDoesNotPerturbTheSimulation) {
  tsdb::Engine engine(tsdb::EngineOptions{});
  const auto with = run_with_engine(small_scenario(), engine);
  const auto without = run_burst(small_scenario());
  EXPECT_EQ(sweep_fingerprint({with}), sweep_fingerprint({without}));
}

TEST(TsdbSim, EngineCsvIsByteIdenticalToLegacyExport) {
  tsdb::Engine engine(tsdb::EngineOptions{});
  const auto r = run_with_engine(small_scenario(), engine);
  ASSERT_FALSE(r.epochs.empty());
  EXPECT_EQ(engine_csv(engine, r), legacy_csv(r));
}

TEST(TsdbSim, EngineCsvIsByteIdenticalUnderFaultsAndFlags) {
  // Faulted runs exercise the crash branch and all four condition flags.
  tsdb::Engine engine(tsdb::EngineOptions{});
  const auto r = run_with_engine(faulted_scenario(), engine);
  const std::string csv = engine_csv(engine, r);
  EXPECT_EQ(csv, legacy_csv(r));
  EXPECT_NE(csv.find(",1\n"), std::string::npos);  // some flag fired
}

TEST(TsdbSim, ByteIdenticalAcrossEveryStorageStrategy) {
  const auto r_ref = run_burst(small_scenario());
  const std::string expected = legacy_csv(r_ref);
  for (const tsdb::Strategy s :
       {tsdb::Strategy::MEMORY, tsdb::Strategy::WAL,
        tsdb::Strategy::COMPRESSED, tsdb::Strategy::CACHE}) {
    tsdb::EngineOptions opts;
    opts.strategy = s;
    opts.dir = fresh_dir(std::string("csv_") + tsdb::to_string(s));
    opts.chunk_capacity = 8;  // force seal/spill churn mid-burst
    tsdb::Engine engine(opts);
    const auto r = run_with_engine(small_scenario(), engine);
    EXPECT_EQ(engine_csv(engine, r), expected) << tsdb::to_string(s);
  }
}

TEST(TsdbSim, KillAndResumeRestoresBitIdenticalTelemetry) {
  const auto dir = fresh_dir("tsdb_resume");
  tsdb::EngineOptions opts;
  opts.strategy = tsdb::Strategy::COMPRESSED;
  opts.dir = dir;
  opts.chunk_capacity = 8;
  ckpt::StateWriter w;
  std::string expected;
  BurstResult r;
  {
    tsdb::Engine engine(opts);
    r = run_with_engine(small_scenario(), engine);
    expected = engine_csv(engine, r);
    engine.save_state(w);
  }  // engine destroyed: only the snapshot + spilled pages survive
  tsdb::Engine restored(opts);
  ckpt::StateReader reader(w.buffer());
  restored.load_state(reader);
  EXPECT_EQ(engine_csv(restored, r), expected);
  EXPECT_EQ(expected, legacy_csv(r));
}

TEST(TsdbSim, WalEngineRecoversTelemetryAfterKill) {
  const auto dir = fresh_dir("tsdb_wal_kill");
  tsdb::EngineOptions opts;
  opts.strategy = tsdb::Strategy::WAL;
  opts.dir = dir;
  std::string expected;
  BurstResult r;
  {
    tsdb::Engine engine(opts);
    r = run_with_engine(small_scenario(), engine);
    expected = engine_csv(engine, r);
    engine.flush();
    // No snapshot at all: the log is the only survivor.
  }
  tsdb::Engine revived(opts);
  EXPECT_EQ(engine_csv(revived, r), expected);
}

TEST(TsdbSim, MisalignedTelemetryIsATypedError) {
  tsdb::Engine engine(tsdb::EngineOptions{});
  const auto r = run_with_engine(small_scenario(), engine);
  // A coordinate nothing recorded under exports as a header-only CSV.
  const std::string empty = engine_csv(engine, r, 0, 9);
  EXPECT_EQ(empty.rfind("t_s,cores,freq_ghz", 0), 0u);
  EXPECT_EQ(std::count(empty.begin(), empty.end(), '\n'), 1);
  // Break alignment: extend one metric series past the others.
  engine.append(engine.series(kTsdbEpochMetrics[0], 0, 0), 1e9, 1.0);
  EXPECT_THROW((void)engine_csv(engine, r), tsdb::TsdbError);
}

TEST(TsdbSim, SweepStreamsEveryCellUnderItsOwnRack) {
  std::vector<Scenario> cells = {small_scenario(), small_scenario()};
  cells[1].seed = 99;
  tsdb::Engine engine(tsdb::EngineOptions{});
  const auto results = run_sweep(cells, /*threads=*/2, &engine);
  ASSERT_EQ(results.size(), 2u);
  // Telemetry must not change results.
  EXPECT_EQ(sweep_fingerprint(results),
            sweep_fingerprint(run_sweep(cells)));
  // Each cell recorded its epochs under rack = cell index.
  for (std::uint32_t cell = 0; cell < 2; ++cell) {
    tsdb::Cursor cur = engine.query("goodput", cell);
    tsdb::CursorRow row;
    std::uint64_t n = 0;
    while (cur.next(row)) ++n;
    EXPECT_EQ(n, results[cell].epochs.size()) << "cell " << cell;
    std::ostringstream os;
    export_epochs_csv(os, engine, cell, 0, results[cell].window_start);
    EXPECT_EQ(os.str(), legacy_csv(results[cell])) << "cell " << cell;
  }
}

TEST(TsdbSim, DayRunnerRecordsClusterAggregates) {
  DayRunConfig cfg;
  cfg.days = 1;
  cfg.daily_bursts = default_daily_bursts();
  tsdb::Engine engine(tsdb::EngineOptions{});
  DaySim sim(cfg);
  sim.attach_tsdb(&engine, /*rack=*/5);
  while (!sim.done()) sim.step();
  const auto result = sim.finish();
  ASSERT_GT(result.bursts_served, 0);
  tsdb::Cursor cur = engine.query("cluster_goodput", 5, tsdb::kMinTimestamp,
                                  tsdb::kMaxTimestamp, kTsdbAggregateServer);
  tsdb::CursorRow row;
  std::uint64_t n = 0;
  while (cur.next(row)) ++n;
  EXPECT_GT(n, 0u);
  // Aggregates live on the aggregate coordinate only.
  EXPECT_EQ(engine.find_series("cluster_goodput", 5, 0), std::nullopt);
}

TEST(TsdbSim, RackRunnerRecordsRackAggregates) {
  RackConfig cfg;
  cfg.green.battery_per_server = AmpHours(10.0);
  cfg.green.strategy = core::StrategyKind::Hybrid;
  tsdb::Engine engine(tsdb::EngineOptions{});
  RackRunner rack(workload::specjbb(), cfg);
  rack.attach_tsdb(&engine, /*rack=*/3);
  const workload::PerfModel perf(workload::specjbb());
  const double lambda = perf.intensity_load(12);
  for (int i = 0; i < 5; ++i) (void)rack.step(Watts(635.0), lambda);
  rack.idle_step(Watts(635.0), 30.0);
  (void)rack.step(Watts(635.0), lambda);

  for (const char* metric : {"rack_power_w", "grid_servers_w",
                             "grid_goodput", "rack_goodput",
                             "cluster_goodput"}) {
    tsdb::Cursor cur = engine.query(metric, 3, tsdb::kMinTimestamp,
                                    tsdb::kMaxTimestamp,
                                    kTsdbAggregateServer);
    tsdb::CursorRow row;
    std::uint64_t n = 0;
    while (cur.next(row)) ++n;
    EXPECT_EQ(n, 6u) << metric;  // burst epochs only; idle epochs advance t
  }
}

}  // namespace
}  // namespace gs::sim
