// Concurrent-ingest hammer for the telemetry engine. The concurrency CI
// lane runs this suite under TSan: many sweep-worker-shaped threads racing
// series creation, appends (with per-strategy sealing and spilling under
// the hood), queries, and stats snapshots against one shared engine.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>
#include <unistd.h>

#include "common/thread_pool.hpp"
#include "tsdb/engine.hpp"

namespace gs::tsdb {
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

class TsdbConcurrency : public ::testing::TestWithParam<Strategy> {};

INSTANTIATE_TEST_SUITE_P(Tsdb, TsdbConcurrency,
                         ::testing::Values(Strategy::MEMORY, Strategy::WAL,
                                           Strategy::COMPRESSED),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST_P(TsdbConcurrency, ConcurrentIngestKeepsEverySample) {
  const auto dir =
      fresh_dir(std::string("hammer_") + to_string(GetParam()));
  EngineOptions opts;
  opts.strategy = GetParam();
  opts.dir = dir;
  opts.chunk_capacity = 32;  // frequent seals: exercise spill paths
  Engine engine(opts);

  constexpr std::size_t kWorkers = 8;
  constexpr std::uint64_t kSamples = 500;
  ThreadPool pool(kWorkers);
  parallel_for(
      pool, kWorkers,
      [&](std::size_t w) {
        // Each worker owns its server coordinate (per-series appends must
        // be ordered); metric interning and the engine tables are shared.
        const SeriesId id =
            engine.series("hammer", /*rack=*/0, std::uint32_t(w));
        for (std::uint64_t i = 0; i < kSamples; ++i) {
          engine.append(id, double(i), double(w) * 1e4 + double(i));
          if (i % 64 == 0) {
            // Interleave reads with the ingest storm.
            Cursor cur = engine.query("hammer", 0, kMinTimestamp,
                                      kMaxTimestamp, std::uint32_t(w));
            CursorRow row;
            std::uint64_t seen = 0;
            while (cur.next(row)) ++seen;
            EXPECT_GE(seen, i);  // everything this worker already wrote
          }
        }
      },
      /*chunk=*/1);

  // Every sample of every worker survived, in order.
  for (std::size_t w = 0; w < kWorkers; ++w) {
    Cursor cur = engine.query("hammer", 0, kMinTimestamp, kMaxTimestamp,
                              std::uint32_t(w));
    CursorRow row;
    std::uint64_t n = 0;
    while (cur.next(row)) {
      EXPECT_EQ(row.sample.time, to_timestamp(double(n)));
      EXPECT_EQ(row.sample.value, double(w) * 1e4 + double(n));
      ++n;
    }
    EXPECT_EQ(n, kSamples);
  }
  EXPECT_EQ(engine.stats().appends, kWorkers * kSamples);
}

TEST_P(TsdbConcurrency, RacingSeriesCreationInternsOnce) {
  const auto dir =
      fresh_dir(std::string("intern_") + to_string(GetParam()));
  EngineOptions opts;
  opts.strategy = GetParam();
  opts.dir = dir;
  Engine engine(opts);

  constexpr std::size_t kWorkers = 8;
  std::vector<SeriesId> got(kWorkers);
  ThreadPool pool(kWorkers);
  parallel_for(
      pool, kWorkers,
      [&](std::size_t w) {
        // All workers race the same (metric, rack, server) coordinate.
        got[w] = engine.series("shared_metric", 2, 3);
      },
      /*chunk=*/1);
  for (std::size_t w = 1; w < kWorkers; ++w) EXPECT_EQ(got[w], got[0]);
  EXPECT_EQ(engine.stats().series, 1u);
}

TEST(TsdbConcurrencyCursor, CursorIsASnapshotWhileIngestContinues) {
  Engine engine(EngineOptions{});
  const SeriesId id = engine.series("m", 0, 0);
  for (int i = 0; i < 100; ++i) engine.append(id, double(i), double(i));

  // The cursor holds immutable chunk snapshots: appends (and seals)
  // interleaved with an in-flight iteration must not disturb it.
  Cursor cur = engine.query("m", 0);
  CursorRow row;
  std::uint64_t n = 0;
  while (cur.next(row)) {
    EXPECT_EQ(row.sample.value, double(n));
    ++n;
    engine.append(id, double(100 + n), double(100 + n));
    if (n % 40 == 0) engine.seal_all();
  }
  EXPECT_EQ(n, 100u);  // exactly the snapshot the query took
}

}  // namespace
}  // namespace gs::tsdb
