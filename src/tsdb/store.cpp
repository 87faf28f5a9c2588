// gs:durable-io
#include "tsdb/store.hpp"

#include <fstream>
#include <sstream>

#include "ckpt/snapshot.hpp"
#include "ckpt/state_io.hpp"
#include "common/assert.hpp"
#include "common/io.hpp"
#include "tsdb/error.hpp"

// Page framing and version checks live in chunk.cpp's encode_page /
// decode_page; this file only routes the resulting bytes to disk.
// gs-lint: allow(tsdb-chunk-version)

namespace gs::tsdb {
namespace {

std::string page_filename(SeriesId id, std::uint64_t seq) {
  std::ostringstream name;
  name << "chunk-";
  name.width(6);
  name.fill('0');
  name << id << "-";
  name.width(6);
  name.fill('0');
  name << seq << ".gspage";
  return std::move(name).str();
}

/// Atomic-or-absent page write: the bytes land under a tmp name and are
/// renamed into place, the same discipline ckpt snapshots use, so a kill
/// mid-spill leaves either the complete page or no page at all. The temp
/// name is io::atomic_write_file's <path>.tmp-p<pid>.<n>, unique per
/// process and call.
/// Failpoint site on every COMPRESSED/CACHE spill-page commit.
constexpr const char* kFailpointPageWrite = "tsdb.page.write";

void write_page_file(const std::filesystem::path& path,
                     const std::string& page) {
  io::WriteOptions opts;
  opts.durability = io::Durability::Full;
  opts.site = kFailpointPageWrite;
  try {
    io::atomic_write_file(path, page, opts);
  } catch (const io::IoError& e) {
    throw TsdbError(std::string("page write to ") + path.string() +
                    " failed: " + e.what());
  }
}

}  // namespace

ChunkRef SeriesStore::seal_common() {
  ChunkRef ref;
  ref.cache_key = (std::uint64_t(id_) << 32) | next_chunk_seq_;
  ++next_chunk_seq_;
  auto chunk = std::make_shared<const SealedChunk>(open_.seal());
  ref.checksum = ckpt::payload_checksum(chunk->payload());
  ref.count = chunk->count();
  ref.t_min = chunk->t_min();
  ref.t_max = chunk->t_max();
  ref.resident = std::move(chunk);
  sealed_samples_ += ref.count;
  return ref;
}

void SeriesStore::seal_resident() {
  if (open_.empty()) return;
  sealed_.push_back(seal_common());
}

void SeriesStore::seal_spilled(const std::filesystem::path& dir) {
  if (open_.empty()) return;
  ChunkRef ref = seal_common();
  ref.file = page_filename(id_, std::uint64_t(ref.cache_key & 0xffffffffu));
  write_page_file(dir / ref.file, encode_page(*ref.resident));
  ref.resident.reset();  // evict: the page is the copy of record now
  sealed_.push_back(std::move(ref));
}

void SeriesStore::collect(
    Timestamp lo, Timestamp hi, const PageLoader& load,
    std::vector<std::shared_ptr<const SealedChunk>>& out) const {
  for (const ChunkRef& ref : sealed_) {
    if (!ref.overlaps(lo, hi)) continue;
    out.push_back(ref.spilled() ? load(ref) : ref.resident);
  }
  if (!open_.empty() && open_.t_max() >= lo && open_.t_min() <= hi) {
    out.push_back(std::make_shared<const SealedChunk>(open_.snapshot()));
  }
}

void SeriesStore::save_state(ckpt::StateWriter& w) const {
  w.u32(key_.metric_id);
  w.u32(key_.rack_id);
  w.u32(key_.server_id);
  w.u32(id_);
  open_.save_state(w);
  w.u64(sealed_samples_);
  w.u64(next_chunk_seq_);
  w.u64(sealed_.size());
  for (const ChunkRef& ref : sealed_) {
    w.boolean(ref.spilled());
    w.u64(ref.checksum);
    w.u64(ref.cache_key);
    w.u64(ref.count);
    w.i64(ref.t_min);
    w.i64(ref.t_max);
    if (ref.spilled()) {
      w.str(ref.file);
    } else {
      w.str(ref.resident->payload());
    }
  }
}

void SeriesStore::load_state(ckpt::StateReader& r,
                             const std::filesystem::path& dir) {
  key_.metric_id = r.u32();
  key_.rack_id = r.u32();
  key_.server_id = r.u32();
  id_ = r.u32();
  open_.load_state(r);
  sealed_samples_ = r.u64();
  next_chunk_seq_ = r.u64();
  sealed_.clear();
  const auto n = std::size_t(r.u64());
  sealed_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    ChunkRef ref;
    const bool spilled = r.boolean();
    ref.checksum = r.u64();
    ref.cache_key = r.u64();
    ref.count = r.u64();
    ref.t_min = r.i64();
    ref.t_max = r.i64();
    if (spilled) {
      ref.file = r.str();
      // Verify the manifest against the page it points at: a missing,
      // swapped, or rotted page must fail the restore, not a later query.
      const SealedChunk chunk = read_page_file(dir / ref.file);
      if (chunk.count() != ref.count || chunk.t_min() != ref.t_min ||
          chunk.t_max() != ref.t_max || chunk.key() != key_ ||
          ckpt::payload_checksum(chunk.payload()) != ref.checksum) {
        throw TsdbError("page " + (dir / ref.file).string() +
                        " does not match the snapshot manifest");
      }
    } else {
      ref.resident = std::make_shared<const SealedChunk>(
          key_, ref.count, ref.t_min, ref.t_max, r.str());
    }
    sealed_.push_back(std::move(ref));
  }
}

SealedChunk read_page_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw TsdbError("cannot open page file: " + path.string());
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string blob = std::move(ss).str();
  return decode_page(blob, path.string());
}

}  // namespace gs::tsdb
