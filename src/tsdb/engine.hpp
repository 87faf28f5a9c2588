// The telemetry engine facade. One Engine owns every series of a
// simulation campaign; EngineOptions::strategy picks how sealed history is
// held (see strategy.hpp for the three strategies). The write path is
// append-only per series; the read path is a range query that prunes whole
// chunks on their time bounds before decoding a single sample.
//
// Concurrency: series creation, appends, queries, and snapshots are all
// safe to call from concurrent sweep workers — one engine mutex guards the
// series table (chunk payloads themselves are immutable once sealed, and
// cursors only hold immutable chunks, so iteration happens outside the
// lock).
//
// Checkpointing: save_state/load_state round-trip the *exact* engine
// state — interned names, every open chunk's mid-stream compression
// registers, and the sealed-chunk manifest (resident payloads inline,
// spilled pages by {file, checksum, count, bounds}, re-verified against
// the page bytes on load). A killed-and-resumed campaign therefore
// reproduces bit-identical query results and CSV exports.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "ckpt/fwd.hpp"
#include "common/thread_annotations.hpp"
#include "tsdb/store.hpp"
#include "tsdb/strategy.hpp"
#include "tsdb/time.hpp"
#include "tsdb/wal.hpp"

namespace gs::tsdb {

struct EngineOptions {
  Strategy strategy = Strategy::MEMORY;
  /// Storage directory; required for WAL / COMPRESSED, ignored for MEMORY.
  std::filesystem::path dir;
  /// Samples per chunk before it seals (and, per strategy, spills).
  std::uint64_t chunk_capacity = 1024;
  /// WAL segment rotation threshold, bytes.
  std::uint64_t wal_segment_bytes = std::uint64_t(1) << 20;
};

struct EngineStats {
  std::uint64_t appends = 0;         ///< includes WAL-replayed samples
  std::uint64_t series = 0;
  std::uint64_t resident_chunks = 0;
  std::uint64_t spilled_chunks = 0;
  std::uint64_t open_samples = 0;
  std::uint64_t wal_records = 0;     ///< replayed + written this process
  std::uint64_t page_reads = 0;      ///< spilled pages read back
};

/// A series' identity in the WAL strategy's catalog: (metric, rack, server).
using CatalogIdent = std::tuple<std::string, std::uint32_t, std::uint32_t>;

struct SeriesCatalog {
  std::vector<CatalogIdent> entries;  ///< entries[id]
  std::size_t complete_bytes = 0;     ///< length of the complete lines
  bool torn_tail = false;  ///< a torn final line (kill mid-registration)
};

/// Read a series catalog (`id \t rack \t server \t metric` lines) as WAL
/// replay does, skipping lines that restate an earlier registration.
/// Throws TsdbError when the file cannot be read, on a malformed line, an
/// id out of order, or an id re-registered with a different identity.
[[nodiscard]] SeriesCatalog read_series_catalog(
    const std::filesystem::path& path);

struct SeriesInfo {
  SeriesId id = 0;
  std::string metric;
  std::uint32_t rack = 0;
  std::uint32_t server = 0;
  std::uint64_t samples = 0;
};

/// One decoded query row: which series, and the sample.
struct CursorRow {
  SeriesKey key;
  Sample sample;

  friend bool operator==(const CursorRow&, const CursorRow&) = default;
};

/// Streaming result of Engine::query(). Holds only immutable sealed
/// chunks, so it stays valid (and lock-free) while the engine keeps
/// ingesting. Rows come out grouped by server (ascending), time-ordered
/// within each series.
class Cursor {
 public:
  /// Decode the next in-range row; false when exhausted.
  bool next(CursorRow& out);

  /// Remaining-row upper bound before range filtering (chunk-level
  /// counts).
  [[nodiscard]] std::uint64_t chunk_samples() const;

 private:
  friend class Engine;
  struct Part {
    SeriesKey key;
    std::shared_ptr<const SealedChunk> chunk;
  };
  Cursor(std::vector<Part> parts, Timestamp lo, Timestamp hi);

  std::vector<Part> parts_;
  std::size_t part_ = 0;
  std::optional<ChunkCursor> chunk_;
  Timestamp lo_ = kMinTimestamp;
  Timestamp hi_ = kMaxTimestamp;
};

class Engine {
 public:
  static constexpr std::uint32_t kStateVersion = 1;

  /// For WAL, an existing directory is replayed (catalog + log), so a new
  /// engine over a killed campaign's directory recovers its telemetry.
  explicit Engine(EngineOptions opts);

  /// Intern (or look up) the series for (metric, rack, server).
  SeriesId series(std::string_view metric, std::uint32_t rack,
                  std::uint32_t server) GS_EXCLUDES(mu_);

  /// Already-interned series id, if any.
  [[nodiscard]] std::optional<SeriesId> find_series(
      std::string_view metric, std::uint32_t rack,
      std::uint32_t server) const GS_EXCLUDES(mu_);

  /// Append one sample at simulation time `time_s` seconds. Per-series
  /// timestamps must be non-decreasing.
  void append(SeriesId id, double time_s, double value) GS_EXCLUDES(mu_) {
    append_at(id, to_timestamp(time_s), value);
  }
  void append_at(SeriesId id, Timestamp t, double value) GS_EXCLUDES(mu_);

  /// All samples of `metric` in `rack` with time key in [lo, hi]; pass
  /// `server` to restrict to one machine. Unknown metrics yield an empty
  /// cursor (a query is not a spelling oracle).
  [[nodiscard]] Cursor query(std::string_view metric, std::uint32_t rack,
                             Timestamp lo = kMinTimestamp,
                             Timestamp hi = kMaxTimestamp,
                             std::optional<std::uint32_t> server =
                                 std::nullopt) GS_EXCLUDES(mu_);

  /// Seal every open chunk (spilling per strategy). Queries already see
  /// open-chunk samples; sealing is for compression/spill pressure, not
  /// visibility.
  void seal_all() GS_EXCLUDES(mu_);

  /// Push WAL buffers to the OS (no-op for other strategies).
  void flush() GS_EXCLUDES(mu_);

  [[nodiscard]] std::vector<SeriesInfo> list_series() const GS_EXCLUDES(mu_);
  [[nodiscard]] EngineStats stats() const GS_EXCLUDES(mu_);
  [[nodiscard]] const EngineOptions& options() const { return opts_; }

  // Named, versioned "tsdb_engine" section. load_state requires the
  // snapshot's strategy and chunk capacity to match this engine's options
  // (a manifest is meaningless under a different layout) and re-verifies
  // every spilled page, throwing TsdbError on any mismatch.
  void save_state(ckpt::StateWriter& w) const GS_EXCLUDES(mu_);
  void load_state(ckpt::StateReader& r) GS_EXCLUDES(mu_);

 private:
  void seal_if_full(SeriesStore& store) GS_REQUIRES(mu_);
  [[nodiscard]] PageLoader loader() GS_REQUIRES(mu_);
  void replay_existing() GS_REQUIRES(mu_);

  const EngineOptions opts_;  // immutable after construction: unguarded

  mutable Mutex mu_;
  NameDict metrics_ GS_GUARDED_BY(mu_);
  std::vector<SeriesStore> series_ GS_GUARDED_BY(mu_);
  std::unordered_map<SeriesKey, SeriesId, SeriesKeyHash> index_
      GS_GUARDED_BY(mu_);
  /// WAL strategy only: (metric, rack, server) -> id exactly as recorded
  /// in the on-disk series catalog. Unlike the in-memory series table this
  /// is NOT rewound by load_state — the catalog file is append-only, so a
  /// snapshot restore cannot un-write its lines. Re-registration after a
  /// rewind consults this map to keep id assignment consistent with the
  /// file instead of appending duplicate lines that would poison the next
  /// replay. Keyed by name (not interned id) because load_state replaces
  /// the interner.
  std::map<CatalogIdent, SeriesId> catalog_ids_ GS_GUARDED_BY(mu_);
  std::optional<WalWriter> wal_ GS_GUARDED_BY(mu_);
  std::uint64_t replayed_records_ GS_GUARDED_BY(mu_) = 0;
  std::uint64_t appends_ GS_GUARDED_BY(mu_) = 0;
  std::uint64_t page_reads_ GS_GUARDED_BY(mu_) = 0;
};

}  // namespace gs::tsdb
