// Integration of the telemetry engine with the day runner: DaySim's
// cluster aggregates land on the aggregate coordinate without perturbing
// the campaign, and every storage strategy, an engine snapshot restore and
// a WAL recovery after a kill return the exact rows a MEMORY engine holds
// — timestamps and value bit patterns alike.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <string>
#include <tuple>
#include <unistd.h>
#include <vector>

#include "ckpt/state_io.hpp"
#include "sim/day_runner.hpp"
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

/// One faulted day: crashes and degraded controllers reach the counts.
DayRunConfig faulted_day() {
  DayRunConfig cfg;
  cfg.days = 1;
  cfg.daily_bursts = default_daily_bursts();
  cfg.faults = faults::FaultSpec::uniform(0.3, 7);
  return cfg;
}

DayRunResult run_with_engine(const DayRunConfig& cfg, tsdb::Engine& engine) {
  DaySim sim(cfg);
  sim.attach_tsdb(&engine, /*rack=*/0);
  while (!sim.done()) sim.step();
  return sim.finish();
}

/// (metric, timestamp, value bit pattern) for every row of the eight
/// cluster series under rack 0, series by series in kTsdbClusterMetrics
/// order.
using Row = std::tuple<std::size_t, tsdb::Timestamp, std::uint64_t>;

std::vector<Row> cluster_rows(tsdb::Engine& engine) {
  std::vector<Row> rows;
  for (std::size_t m = 0; m < kNumTsdbClusterMetrics; ++m) {
    tsdb::Cursor cur =
        engine.query(kTsdbClusterMetrics[m], 0, tsdb::kMinTimestamp,
                     tsdb::kMaxTimestamp, kTsdbAggregateServer);
    tsdb::CursorRow row;
    while (cur.next(row)) {
      rows.emplace_back(m, row.sample.time,
                        std::bit_cast<std::uint64_t>(row.sample.value));
    }
  }
  return rows;
}

/// The MEMORY engine's rows for faulted_day(): the reference every other
/// storage path must reproduce.
const std::vector<Row>& reference_rows() {
  static const std::vector<Row> rows = [] {
    tsdb::Engine engine(tsdb::EngineOptions{});
    (void)run_with_engine(faulted_day(), engine);
    return cluster_rows(engine);
  }();
  return rows;
}

TEST(TsdbSim, SinkDoesNotPerturbTheSimulation) {
  tsdb::Engine engine(tsdb::EngineOptions{});
  const DayRunResult with = run_with_engine(faulted_day(), engine);
  EXPECT_EQ(day_result_fingerprint(with),
            day_result_fingerprint(run_days(faulted_day())));
}

TEST(TsdbSim, ByteIdenticalAcrossEveryStorageStrategy) {
  const std::vector<Row>& expected = reference_rows();
  ASSERT_FALSE(expected.empty());
  for (const tsdb::Strategy s : {tsdb::Strategy::WAL,
                                 tsdb::Strategy::COMPRESSED}) {
    tsdb::EngineOptions opts;
    opts.strategy = s;
    opts.dir = fresh_dir(std::string("rows_") + tsdb::to_string(s));
    opts.chunk_capacity = 8;  // force seal/spill churn mid-campaign
    tsdb::Engine engine(opts);
    (void)run_with_engine(faulted_day(), engine);
    EXPECT_EQ(cluster_rows(engine), expected) << tsdb::to_string(s);
  }
}

TEST(TsdbSim, KillAndResumeRestoresBitIdenticalTelemetry) {
  tsdb::EngineOptions opts;
  opts.strategy = tsdb::Strategy::COMPRESSED;
  opts.dir = fresh_dir("tsdb_resume");
  opts.chunk_capacity = 8;
  ckpt::StateWriter w;
  {
    tsdb::Engine engine(opts);
    (void)run_with_engine(faulted_day(), engine);
    engine.save_state(w);
  }  // engine destroyed: only the snapshot + spilled pages survive
  tsdb::Engine restored(opts);
  ckpt::StateReader reader(w.buffer());
  restored.load_state(reader);
  EXPECT_EQ(cluster_rows(restored), reference_rows());
}

TEST(TsdbSim, WalEngineRecoversTelemetryAfterKill) {
  tsdb::EngineOptions opts;
  opts.strategy = tsdb::Strategy::WAL;
  opts.dir = fresh_dir("tsdb_wal_kill");
  {
    tsdb::Engine engine(opts);
    (void)run_with_engine(faulted_day(), engine);
    engine.flush();
    // No snapshot at all: the log is the only survivor.
  }
  tsdb::Engine revived(opts);
  EXPECT_EQ(cluster_rows(revived), reference_rows());
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

}  // namespace
}  // namespace gs::sim
