// The per-series storage tier behind the Engine facade. Each series owns
// one open ChunkAppender plus an ordered list of sealed-chunk references.
// A reference is either *resident* (the compressed payload lives in
// memory — MEMORY and WAL strategies) or *spilled* (the payload was
// written to a checksummed on-disk page with the ckpt tmp+rename
// discipline and evicted — the COMPRESSED strategy). Queries materialize
// the chunks they need through a PageLoader the Engine supplies.
#pragma once

#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/fwd.hpp"
#include "tsdb/chunk.hpp"

namespace gs::tsdb {

/// One sealed chunk: resident in memory, or spilled to an on-disk page.
struct ChunkRef {
  std::shared_ptr<const SealedChunk> resident;  ///< null when spilled
  std::string file;            ///< page filename, relative to the engine dir
  std::uint64_t checksum = 0;  ///< payload FNV-1a, matches the page trailer
  std::uint64_t cache_key = 0; ///< (series id << 32) | per-series chunk seq
  std::uint64_t count = 0;
  Timestamp t_min = 0;
  Timestamp t_max = 0;

  [[nodiscard]] bool spilled() const { return resident == nullptr; }
  [[nodiscard]] bool overlaps(Timestamp lo, Timestamp hi) const {
    return count > 0 && t_max >= lo && t_min <= hi;
  }
};

/// Materializes a spilled ref by reading its page file. Never called for
/// resident refs.
using PageLoader =
    std::function<std::shared_ptr<const SealedChunk>(const ChunkRef&)>;

/// Storage state of one series. Not internally synchronized: the Engine's
/// mutex guards every SeriesStore it owns.
class SeriesStore {
 public:
  SeriesStore() = default;
  SeriesStore(SeriesKey key, SeriesId id) : key_(key), id_(id), open_(key) {}

  [[nodiscard]] const SeriesKey& key() const { return key_; }
  [[nodiscard]] SeriesId id() const { return id_; }
  [[nodiscard]] std::uint64_t open_count() const { return open_.count(); }
  [[nodiscard]] std::uint64_t total_count() const {
    return sealed_samples_ + open_.count();
  }
  [[nodiscard]] const std::vector<ChunkRef>& sealed() const { return sealed_; }

  /// Append into the open chunk (timestamps must be non-decreasing).
  void append(Timestamp t, double value) { open_.append(t, value); }

  /// Seal the open chunk into a resident ref. No-op when the chunk is
  /// empty.
  void seal_resident();

  /// Seal the open chunk, write its page under `dir` (atomic tmp+rename),
  /// and keep only the manifest fields in memory. No-op when empty.
  void seal_spilled(const std::filesystem::path& dir);

  /// Append every chunk overlapping [lo, hi] to `out`, oldest first,
  /// ending with a snapshot of the open chunk. Spilled refs go through
  /// `load`.
  void collect(Timestamp lo, Timestamp hi, const PageLoader& load,
               std::vector<std::shared_ptr<const SealedChunk>>& out) const;

  // Snapshot layout: key, id, exact appender state, then the sealed
  // manifest — resident refs inline their compressed payload, spilled refs
  // persist {file, checksum, count, t_min, t_max} and are re-verified
  // against the page on load (wrong or rotted page -> TsdbError). The
  // schema is versioned by the enclosing Engine::kStateVersion section.
  // gs-lint: allow(ckpt-schema-version)
  void save_state(ckpt::StateWriter& w) const;
  void load_state(ckpt::StateReader& r, const std::filesystem::path& dir);

 private:
  [[nodiscard]] ChunkRef seal_common();

  SeriesKey key_;
  SeriesId id_ = 0;
  ChunkAppender open_;
  std::vector<ChunkRef> sealed_;
  std::uint64_t sealed_samples_ = 0;
  std::uint64_t next_chunk_seq_ = 0;
};

/// Read and validate one on-disk chunk page (decode_page + I/O errors as
/// TsdbError).
[[nodiscard]] SealedChunk read_page_file(const std::filesystem::path& path);

}  // namespace gs::tsdb
