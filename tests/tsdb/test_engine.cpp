#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>
#include <unistd.h>

#include "ckpt/state_io.hpp"
#include "tsdb/engine.hpp"
#include "tsdb/error.hpp"
#include "tsdb/wal.hpp"

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

EngineOptions options(Strategy s, const fs::path& dir,
                      std::uint64_t chunk_capacity = 16) {
  EngineOptions opts;
  opts.strategy = s;
  opts.dir = dir;
  opts.chunk_capacity = chunk_capacity;
  return opts;
}

std::vector<CursorRow> drain(Cursor cur) {
  std::vector<CursorRow> rows;
  CursorRow row;
  while (cur.next(row)) rows.push_back(row);
  return rows;
}

void ingest_grid(Engine& engine, std::uint64_t samples_per_series) {
  for (std::uint32_t server = 0; server < 3; ++server) {
    const SeriesId id = engine.series("power_w", /*rack=*/1, server);
    for (std::uint64_t i = 0; i < samples_per_series; ++i) {
      engine.append(id, double(i) * 60.0, double(server) * 1000.0 + double(i));
    }
  }
}

/// The scan grid: 16 metrics x 8 servers on rack 0, 1024 one-minute
/// samples per series, in chunks of 512.
constexpr std::uint32_t kScanMetrics = 16;
constexpr std::uint32_t kScanServers = 8;
constexpr std::uint64_t kScanSamples = 1024;

std::string scan_metric(std::uint32_t m) {
  return "scan_metric_" + std::to_string(m);
}

/// Slowly varying doubles (no RNG), so they compress like real
/// power/goodput series.
double scan_value(std::uint32_t metric, std::uint32_t server,
                  std::uint64_t i) {
  return double(metric) * 100.0 + double(server) + double(i % 97) * 0.125 +
         double(i % 7) * 0.015625;
}

EngineOptions scan_options(Strategy s, const fs::path& dir) {
  EngineOptions opts;
  opts.strategy = s;
  opts.dir = dir;
  opts.chunk_capacity = 512;
  return opts;
}

std::vector<SeriesId> register_scan_grid(Engine& engine) {
  std::vector<SeriesId> ids;
  for (std::uint32_t m = 0; m < kScanMetrics; ++m) {
    for (std::uint32_t s = 0; s < kScanServers; ++s) {
      ids.push_back(engine.series(scan_metric(m), /*rack=*/0, s));
    }
  }
  return ids;
}

/// Append every sample epoch by epoch across all series, as a sweep
/// records them, then flush.
void append_scan_grid(Engine& engine, const std::vector<SeriesId>& ids) {
  for (std::uint64_t i = 0; i < kScanSamples; ++i) {
    std::size_t k = 0;
    for (std::uint32_t m = 0; m < kScanMetrics; ++m) {
      for (std::uint32_t s = 0; s < kScanServers; ++s) {
        engine.append(ids[k++], double(i) * 60.0, scan_value(m, s, i));
      }
    }
  }
  engine.flush();
}

class EngineAllStrategies : public ::testing::TestWithParam<Strategy> {};

INSTANTIATE_TEST_SUITE_P(Tsdb, EngineAllStrategies,
                         ::testing::Values(Strategy::MEMORY, Strategy::WAL,
                                           Strategy::COMPRESSED),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST_P(EngineAllStrategies, IngestAndRangeQueryAcrossSealBoundaries) {
  const auto dir = fresh_dir(std::string("engine_") + to_string(GetParam()));
  // chunk_capacity 16 with 100 samples: several sealed chunks + an open
  // tail per series.
  Engine engine(options(GetParam(), dir));
  ingest_grid(engine, 100);

  // Full range, one server.
  const auto one = drain(engine.query("power_w", 1, kMinTimestamp,
                                      kMaxTimestamp, 2u));
  ASSERT_EQ(one.size(), 100u);
  for (std::uint64_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(one[i].sample.time, to_timestamp(double(i) * 60.0));
    EXPECT_EQ(one[i].sample.value, 2000.0 + double(i));
    EXPECT_EQ(one[i].key.server_id, 2u);
  }

  // All servers: grouped by server, time-ordered within each.
  const auto all = drain(engine.query("power_w", 1));
  ASSERT_EQ(all.size(), 300u);
  EXPECT_EQ(all[0].key.server_id, 0u);
  EXPECT_EQ(all[100].key.server_id, 1u);
  EXPECT_EQ(all[200].key.server_id, 2u);

  // Sub-range straddling a seal boundary (samples 10..20 inclusive).
  const auto mid = drain(engine.query("power_w", 1,
                                      to_timestamp(10.0 * 60.0),
                                      to_timestamp(20.0 * 60.0), 0u));
  ASSERT_EQ(mid.size(), 11u);
  EXPECT_EQ(mid.front().sample.value, 10.0);
  EXPECT_EQ(mid.back().sample.value, 20.0);

  // Unknown metric / rack / server: empty, not an error.
  EXPECT_TRUE(drain(engine.query("nope", 1)).empty());
  EXPECT_TRUE(drain(engine.query("power_w", 9)).empty());
  EXPECT_TRUE(drain(engine.query("power_w", 1, kMinTimestamp, kMaxTimestamp,
                                 9u))
                  .empty());
}

TEST_P(EngineAllStrategies, SealAllPreservesQueryResults) {
  const auto dir = fresh_dir(std::string("seal_") + to_string(GetParam()));
  Engine engine(options(GetParam(), dir));
  ingest_grid(engine, 50);
  const auto before = drain(engine.query("power_w", 1));
  engine.seal_all();
  const auto after = drain(engine.query("power_w", 1));
  EXPECT_EQ(after, before);
  EXPECT_EQ(engine.stats().open_samples, 0u);
}

TEST_P(EngineAllStrategies, StateRoundTripIsExact) {
  const auto dir = fresh_dir(std::string("state_") + to_string(GetParam()));
  Engine engine(options(GetParam(), dir));
  ingest_grid(engine, 75);  // mid-chunk tail: open compression state saved

  ckpt::StateWriter w;
  engine.save_state(w);

  Engine restored(options(GetParam(), dir));
  ckpt::StateReader r(w.buffer());
  restored.load_state(r);

  EXPECT_EQ(drain(restored.query("power_w", 1)),
            drain(engine.query("power_w", 1)));

  // The restored engine keeps ingesting from the exact same registers.
  const SeriesId a = engine.series("power_w", 1, 0);
  const SeriesId b = restored.series("power_w", 1, 0);
  EXPECT_EQ(a, b);
  engine.append(a, 75.0 * 60.0, 75.0);
  restored.append(b, 75.0 * 60.0, 75.0);
  EXPECT_EQ(drain(restored.query("power_w", 1)),
            drain(engine.query("power_w", 1)));
}

TEST_P(EngineAllStrategies, FullScanOfEveryMetricReturnsEveryRow) {
  // Two full-range passes over every metric (all servers per cursor) after
  // seal_all; under COMPRESSED the second pass reads every page again.
  // Rows come grouped by server and time-ordered within each, each with
  // the value that was appended.
  const auto dir = fresh_dir(std::string("scan_") + to_string(GetParam()));
  Engine engine(scan_options(GetParam(), dir));
  append_scan_grid(engine, register_scan_grid(engine));
  engine.seal_all();
  std::uint64_t rows = 0;
  std::uint64_t wrong = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (std::uint32_t m = 0; m < kScanMetrics; ++m) {
      auto cur = engine.query(scan_metric(m), /*rack=*/0);
      std::uint64_t n = 0;
      CursorRow row;
      while (cur.next(row)) {
        const auto server = std::uint32_t(n / kScanSamples);
        const std::uint64_t i = n % kScanSamples;
        if (row.key.server_id != server ||
            row.sample.time != to_timestamp(double(i) * 60.0) ||
            row.sample.value != scan_value(m, server, i)) {
          ++wrong;
        }
        ++n;
      }
      rows += n;
    }
  }
  EXPECT_EQ(rows, 2 * kScanSamples * kScanMetrics * kScanServers);
  EXPECT_EQ(wrong, 0u);
}

TEST(Engine, MemoryIngestFloor) {
  // The in-memory append path has no IO to hide behind: the scan grid's
  // 131072 samples must go in at 1M samples/s or more, flush included.
  // The best of three fresh engines is compared, so a test running
  // alongside on the same cores cannot fail it by stealing one window.
  constexpr double kFloorSamplesPerSec = 1.0e6;
  constexpr int kTrials = 3;
  const std::uint64_t samples = kScanSamples * kScanMetrics * kScanServers;
  double best_secs = 0.0;
  for (int trial = 0; trial < kTrials; ++trial) {
    Engine engine(scan_options(Strategy::MEMORY, fs::path()));
    const auto ids = register_scan_grid(engine);
    const auto start = std::chrono::steady_clock::now();
    append_scan_grid(engine, ids);
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    ASSERT_EQ(engine.stats().appends, samples);
    if (trial == 0 || secs < best_secs) best_secs = secs;
  }
  const double samples_per_sec = double(samples) / best_secs;
  RecordProperty("samples_per_sec", std::to_string(samples_per_sec));
  EXPECT_GE(samples_per_sec, kFloorSamplesPerSec);
}

TEST(Engine, ListSeriesAndStats) {
  Engine engine(EngineOptions{});
  const SeriesId id = engine.series("goodput", 0, 7);
  EXPECT_EQ(engine.find_series("goodput", 0, 7), std::optional(id));
  EXPECT_EQ(engine.find_series("goodput", 0, 8), std::nullopt);
  engine.append(id, 0.0, 1.0);
  engine.append(id, 60.0, 2.0);
  const auto series = engine.list_series();
  ASSERT_EQ(series.size(), 1u);
  EXPECT_EQ(series[0].metric, "goodput");
  EXPECT_EQ(series[0].rack, 0u);
  EXPECT_EQ(series[0].server, 7u);
  EXPECT_EQ(series[0].samples, 2u);
  const auto stats = engine.stats();
  EXPECT_EQ(stats.appends, 2u);
  EXPECT_EQ(stats.series, 1u);
  EXPECT_EQ(stats.open_samples, 2u);
}

TEST(Engine, MemoryStrategyNeverTouchesDisk) {
  const auto dir = fresh_dir("memory_no_disk");
  Engine engine(options(Strategy::MEMORY, dir));
  ingest_grid(engine, 100);
  engine.seal_all();
  EXPECT_EQ(engine.stats().spilled_chunks, 0u);
}

TEST(Engine, CompressedStrategySpillsSealedChunks) {
  const auto dir = fresh_dir("compressed_spill");
  Engine engine(options(Strategy::COMPRESSED, dir));
  ingest_grid(engine, 100);  // 6 full chunks per series spill on seal
  const auto stats = engine.stats();
  EXPECT_GT(stats.spilled_chunks, 0u);
  EXPECT_EQ(stats.resident_chunks, 0u);
  std::size_t pages = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().extension() == ".gspage") ++pages;
  }
  EXPECT_EQ(pages, stats.spilled_chunks);
  // Reads go through the loader (counted).
  (void)drain(engine.query("power_w", 1));
  EXPECT_GT(engine.stats().page_reads, 0u);
}

TEST(Engine, WalRecoversAfterKill) {
  const auto dir = fresh_dir("wal_recover");
  std::vector<CursorRow> expected;
  {
    Engine engine(options(Strategy::WAL, dir));
    ingest_grid(engine, 60);
    engine.flush();
    expected = drain(engine.query("power_w", 1));
    // No orderly shutdown: the engine is simply destroyed (the flushed log
    // is the only survivor, like a SIGKILL).
  }
  Engine revived(options(Strategy::WAL, dir));
  EXPECT_EQ(drain(revived.query("power_w", 1)), expected);
  EXPECT_EQ(revived.stats().wal_records, 180u);

  // And it keeps accepting appends after recovery.
  const SeriesId id = revived.series("power_w", 1, 0);
  revived.append(id, 60.0 * 60.0, 12345.0);
  EXPECT_EQ(drain(revived.query("power_w", 1)).size(), 181u);
}

TEST(Engine, WalToleratesTornFinalRecordOnly) {
  const auto dir = fresh_dir("wal_torn");
  {
    Engine engine(options(Strategy::WAL, dir));
    const SeriesId id = engine.series("m", 0, 0);
    for (int i = 0; i < 10; ++i) engine.append(id, double(i), double(i));
    engine.flush();
  }
  const auto segments = wal_segments(dir);
  ASSERT_FALSE(segments.empty());
  const auto last = segments.back();
  const auto size = fs::file_size(last);
  fs::resize_file(last, size - 5);  // tear the final record

  Engine revived(options(Strategy::WAL, dir));
  EXPECT_EQ(drain(revived.query("m", 0)).size(), 9u);

  // A corrupt *mid-file* record is an integrity error, not a clean kill.
  {
    std::fstream f(last, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(16);  // inside the first record's body
    const char x = 0x7f;
    f.write(&x, 1);
  }
  EXPECT_THROW(Engine{options(Strategy::WAL, dir)}, TsdbError);
}

TEST(Engine, WalTornTailIsRepairedSoASecondRestartSurvives) {
  // Regression for the restart-after-tear poison: the WAL writer never
  // appends to an existing segment, so after one recovery the torn
  // segment is no longer the *final* one — without the repair pass the
  // second restart would reject it as mid-log corruption.
  const auto dir = fresh_dir("wal_repair");
  {
    Engine engine(options(Strategy::WAL, dir));
    const SeriesId id = engine.series("m", 0, 0);
    for (int i = 0; i < 10; ++i) engine.append(id, double(i), double(i));
    engine.flush();
  }
  const auto segments = wal_segments(dir);
  ASSERT_FALSE(segments.empty());
  fs::resize_file(segments.back(), fs::file_size(segments.back()) - 5);

  {
    Engine revived(options(Strategy::WAL, dir));
    EXPECT_EQ(drain(revived.query("m", 0)).size(), 9u);
    // The repair truncated the torn tail in place: the segment verifies
    // clean now, so it is safe to become a non-final segment.
    EXPECT_EQ(check_wal_segment(segments.back()).verdict,
              WalSegmentCheck::Verdict::Ok);
    const SeriesId id = revived.series("m", 0, 0);
    revived.append(id, 100.0, 100.0);
    revived.flush();
  }
  Engine again(options(Strategy::WAL, dir));
  EXPECT_EQ(drain(again.query("m", 0)).size(), 10u);
}

TEST(Engine, WalTornHeaderSegmentIsRemovedOnReplay) {
  const auto dir = fresh_dir("wal_torn_header");
  {
    Engine engine(options(Strategy::WAL, dir));
    const SeriesId id = engine.series("m", 0, 0);
    for (int i = 0; i < 4; ++i) engine.append(id, double(i), double(i));
    engine.flush();
  }
  // A second segment that died before its header finished.
  const auto segments = wal_segments(dir);
  ASSERT_EQ(segments.size(), 1u);
  const fs::path torn =
      segments.back().parent_path() / "wal-000001.gswal";
  {
    std::ofstream f(torn, std::ios::binary);
    f << "GS";
  }
  EXPECT_EQ(check_wal_segment(torn).verdict,
            WalSegmentCheck::Verdict::TornTail);

  {
    Engine revived(options(Strategy::WAL, dir));
    EXPECT_EQ(drain(revived.query("m", 0)).size(), 4u);
  }
  // Repair removed the headerless husk before the revived writer opened
  // its own (valid) segment under the same sequence number.
  EXPECT_EQ(check_wal_segment(torn).verdict, WalSegmentCheck::Verdict::Ok);
  Engine again(options(Strategy::WAL, dir));
  EXPECT_EQ(drain(again.query("m", 0)).size(), 4u);
}

TEST(Engine, CheckWalSegmentVerdicts) {
  const auto dir = fresh_dir("wal_check");
  {
    Engine engine(options(Strategy::WAL, dir));
    const SeriesId id = engine.series("m", 0, 0);
    for (int i = 0; i < 8; ++i) engine.append(id, double(i), double(i));
    engine.flush();
  }
  const auto seg = wal_segments(dir).back();
  const auto intact = check_wal_segment(seg);
  EXPECT_EQ(intact.verdict, WalSegmentCheck::Verdict::Ok);
  EXPECT_EQ(intact.records, 8u);

  const auto size = fs::file_size(seg);
  fs::resize_file(seg, size - 3);
  const auto torn = check_wal_segment(seg);
  EXPECT_EQ(torn.verdict, WalSegmentCheck::Verdict::TornTail);
  EXPECT_EQ(torn.records, 7u);
  fs::resize_file(seg, size);  // restore length; tail bytes now zeroed

  {
    std::fstream f(seg, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(20);  // inside the first record
    const char x = 0x7f;
    f.write(&x, 1);
  }
  EXPECT_EQ(check_wal_segment(seg).verdict,
            WalSegmentCheck::Verdict::Corrupt);
}

std::vector<std::string> catalog_lines(const fs::path& dir) {
  std::ifstream in(dir / "series.gscat", std::ios::binary);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

TEST(Engine, CatalogSurvivesSnapshotRewindWithoutDuplicateLines) {
  // The chaos-lane shape: a daemon checkpoints while only some series
  // exist, registers more, crashes, and resumes from the older snapshot.
  // load_state rewinds the in-memory series table but the append-only
  // catalog cannot rewind — re-registration must land on the recorded ids
  // without appending duplicate lines that poison the next replay.
  const auto dir = fresh_dir("catalog_rewind");
  ckpt::StateWriter w;
  {
    Engine engine(options(Strategy::WAL, dir));
    ASSERT_EQ(engine.series("feed_stale", 0, 0), 0u);
    engine.save_state(w);  // snapshot taken before the cluster series exist
    ASSERT_EQ(engine.series("cluster_goodput", 0, 0), 1u);
    ASSERT_EQ(engine.series("cluster_demand_w", 0, 0), 2u);
  }
  ASSERT_EQ(catalog_lines(dir).size(), 3u);

  Engine revived(options(Strategy::WAL, dir));  // replays all 3 lines
  ckpt::StateReader r(w.buffer());
  revived.load_state(r);  // rewinds to the 1-series snapshot
  EXPECT_EQ(revived.series("cluster_goodput", 0, 0), 1u);
  EXPECT_EQ(revived.series("cluster_demand_w", 0, 0), 2u);
  EXPECT_EQ(catalog_lines(dir).size(), 3u) << "rewind appended duplicates";

  Engine again(options(Strategy::WAL, dir));
  EXPECT_EQ(again.find_series("cluster_demand_w", 0, 0), SeriesId(2));
}

TEST(Engine, CatalogRegistrationDivergenceAfterRewindThrows) {
  // If post-restore registration order would assign a catalogued series a
  // different id, samples keyed by id would be misattributed — that must
  // be an error, not a silent remap.
  const auto dir = fresh_dir("catalog_diverge");
  ckpt::StateWriter w;
  {
    Engine engine(options(Strategy::WAL, dir));
    engine.series("feed_stale", 0, 0);
    engine.save_state(w);
    engine.series("a", 0, 0);  // id 1
    engine.series("b", 0, 0);  // id 2
  }
  Engine revived(options(Strategy::WAL, dir));
  ckpt::StateReader r(w.buffer());
  revived.load_state(r);
  EXPECT_THROW(revived.series("b", 0, 0), TsdbError);  // catalog says id 2
}

TEST(Engine, CatalogToleratesExactDuplicateLinesOnReplay) {
  // Catalogs written before the rewind fix carry duplicate lines that
  // exactly restate earlier registrations; replay treats them as the
  // idempotent re-registrations they are.
  const auto dir = fresh_dir("catalog_dup");
  {
    Engine engine(options(Strategy::WAL, dir));
    engine.series("feed_stale", 0, 0);
    engine.series("a", 1, 2);
    engine.series("b", 1, 2);
  }
  {
    std::ofstream out(dir / "series.gscat",
                      std::ios::binary | std::ios::app);
    out << "1\t1\t2\ta\n2\t1\t2\tb\n";
  }
  Engine revived(options(Strategy::WAL, dir));
  EXPECT_EQ(revived.stats().series, 3u);
  EXPECT_EQ(revived.find_series("b", 1, 2), SeriesId(2));

  // A used id re-registered with a *different* identity is corruption.
  {
    std::ofstream out(dir / "series.gscat",
                      std::ios::binary | std::ios::app);
    out << "1\t9\t9\timposter\n";
  }
  EXPECT_THROW(Engine{options(Strategy::WAL, dir)}, TsdbError);
}

TEST(Engine, CatalogTornTailIsTruncatedOnReplay) {
  // A kill mid-intern leaves an unterminated final line. Replay must
  // truncate it while it is still final: the next registration appends
  // right after it, and a fragment glued to a fresh line would read as
  // garbage on the replay after the *next* kill.
  const auto dir = fresh_dir("catalog_torn");
  {
    Engine engine(options(Strategy::WAL, dir));
    engine.series("feed_stale", 0, 0);
    engine.series("a", 0, 0);
  }
  const auto intact_size = fs::file_size(dir / "series.gscat");
  {
    std::ofstream out(dir / "series.gscat",
                      std::ios::binary | std::ios::app);
    out << "2\t0\t0\tpar";  // no newline: torn mid-intern
  }
  {
    Engine revived(options(Strategy::WAL, dir));
    EXPECT_EQ(revived.stats().series, 2u);
    EXPECT_EQ(fs::file_size(dir / "series.gscat"), intact_size);
    EXPECT_EQ(revived.series("c", 0, 0), 2u);  // appends after the repair
  }
  Engine again(options(Strategy::WAL, dir));
  EXPECT_EQ(again.find_series("c", 0, 0), SeriesId(2));
}

TEST(Engine, LoadStateRejectsStrategyMismatch) {
  const auto dir = fresh_dir("load_mismatch");
  Engine engine(options(Strategy::MEMORY, dir));
  ingest_grid(engine, 10);
  ckpt::StateWriter w;
  engine.save_state(w);

  Engine other(options(Strategy::COMPRESSED, dir));
  ckpt::StateReader r(w.buffer());
  EXPECT_THROW(other.load_state(r), TsdbError);
}

TEST(Engine, LoadStateRejectsUnknownStrategyCode) {
  // Snapshots from builds with a fourth strategy may record code 3. It
  // names nothing, so the snapshot is refused before any series is read.
  ckpt::StateWriter w;
  w.begin_section("tsdb_engine", Engine::kStateVersion);
  w.u8(3);
  w.u64(16);
  w.end_section();

  Engine engine(options(Strategy::COMPRESSED, fresh_dir("load_code3")));
  ckpt::StateReader r(w.buffer());
  try {
    engine.load_state(r);
    ADD_FAILURE() << "strategy code 3 was accepted";
  } catch (const TsdbError& e) {
    EXPECT_NE(std::string(e.what()).find("unknown strategy code 3"),
              std::string::npos)
        << e.what();
  }
}

TEST(Engine, LoadStateRejectsChunkCapacityMismatch) {
  const auto dir = fresh_dir("load_capacity");
  Engine engine(options(Strategy::MEMORY, dir, 16));
  ingest_grid(engine, 10);
  ckpt::StateWriter w;
  engine.save_state(w);

  Engine other(options(Strategy::MEMORY, dir, 32));
  ckpt::StateReader r(w.buffer());
  EXPECT_THROW(other.load_state(r), TsdbError);
}

TEST(Engine, LoadStateReverifiesSpilledPages) {
  const auto dir = fresh_dir("load_verify");
  Engine engine(options(Strategy::COMPRESSED, dir));
  ingest_grid(engine, 100);
  engine.seal_all();
  ckpt::StateWriter w;
  engine.save_state(w);

  // Corrupt one spilled page on disk; the manifest checksum must catch it.
  fs::path victim;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().extension() == ".gspage") {
      victim = e.path();
      break;
    }
  }
  ASSERT_FALSE(victim.empty());
  {
    std::fstream f(victim, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(40);
    const char x = 0x55;
    f.write(&x, 1);
  }

  Engine restored(options(Strategy::COMPRESSED, dir));
  ckpt::StateReader r(w.buffer());
  EXPECT_THROW(restored.load_state(r), TsdbError);
}

TEST(Engine, RequiresDirectoryForDiskStrategies) {
  EngineOptions opts;
  opts.strategy = Strategy::COMPRESSED;
  EXPECT_THROW(Engine{opts}, gs::ContractError);
  opts.strategy = Strategy::MEMORY;
  EXPECT_NO_THROW(Engine{opts});
}

TEST(Engine, RejectsNonMonotoneAppendsPerSeries) {
  Engine engine(EngineOptions{});
  const SeriesId id = engine.series("m", 0, 0);
  engine.append(id, 100.0, 1.0);
  engine.append(id, 100.0, 1.0);  // equal stamps allowed
  EXPECT_THROW(engine.append(id, 99.0, 1.0), gs::ContractError);
  // Series are independent: another series can be behind.
  const SeriesId id2 = engine.series("m", 0, 1);
  EXPECT_NO_THROW(engine.append(id2, 0.0, 1.0));
}

}  // namespace
}  // namespace gs::tsdb
