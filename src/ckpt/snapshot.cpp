// gs:durable-io
#include "ckpt/snapshot.hpp"

#include <cstring>
#include <fstream>
#include <sstream>

namespace gs::ckpt {
namespace {

/// Failpoint site hosted by every snapshot commit (manifest, cells,
/// rotation generations and pointers, daemon checkpoints).
constexpr const char* kFailpointSnapshotWrite = "ckpt.snapshot.write";

constexpr char kMagic[8] = {'G', 'S', 'C', 'K', 'P', 'T', '\r', '\n'};
constexpr std::size_t kHeaderBytes =
    sizeof(kMagic) + sizeof(std::uint32_t) + 2 * sizeof(std::uint64_t);

}  // namespace

std::uint64_t payload_checksum(std::string_view payload) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : payload) {
    h ^= std::uint64_t(static_cast<unsigned char>(c));
    h *= 0x100000001b3ull;
  }
  return h;
}

void write_snapshot_file(const std::filesystem::path& path,
                         std::string_view payload,
                         io::Durability durability) {
  std::string blob;
  blob.reserve(kHeaderBytes + payload.size());
  blob.append(kMagic, sizeof(kMagic));
  const std::uint32_t version = kSnapshotFormatVersion;
  blob.append(reinterpret_cast<const char*>(&version), sizeof version);
  const std::uint64_t size = payload.size();
  blob.append(reinterpret_cast<const char*>(&size), sizeof size);
  const std::uint64_t checksum = payload_checksum(payload);
  blob.append(reinterpret_cast<const char*>(&checksum), sizeof checksum);
  blob.append(payload.data(), payload.size());

  // The temp name is unique per process and call (<path>.tmp-p<pid>.<n>),
  // so concurrent writers of one path never share a temp file: each
  // rename succeeds and the last one wins.
  io::WriteOptions opts;
  opts.durability = durability;
  opts.site = kFailpointSnapshotWrite;
  try {
    io::atomic_write_file(path, blob, opts);
  } catch (const io::IoError& e) {
    throw SnapshotError(std::string("snapshot write to ") + path.string() +
                        " failed: " + e.what());
  }
}

std::string read_snapshot_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw SnapshotError("cannot open snapshot file " + path.string());
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  std::string blob = std::move(ss).str();

  if (blob.size() < kHeaderBytes) {
    throw SnapshotError("snapshot file too small: " + path.string());
  }
  if (std::memcmp(blob.data(), kMagic, sizeof(kMagic)) != 0) {
    throw SnapshotError("bad snapshot magic in " + path.string());
  }
  std::size_t at = sizeof(kMagic);
  std::uint32_t version = 0;
  std::memcpy(&version, blob.data() + at, sizeof version);
  at += sizeof version;
  if (version != kSnapshotFormatVersion) {
    throw SnapshotError("unsupported snapshot format version " +
                        std::to_string(version) + " in " + path.string());
  }
  std::uint64_t size = 0;
  std::memcpy(&size, blob.data() + at, sizeof size);
  at += sizeof size;
  std::uint64_t checksum = 0;
  std::memcpy(&checksum, blob.data() + at, sizeof checksum);
  at += sizeof checksum;
  if (blob.size() - at != size) {
    throw SnapshotError("snapshot payload truncated in " + path.string() +
                        ": header claims " + std::to_string(size) +
                        " bytes, file holds " +
                        std::to_string(blob.size() - at));
  }
  std::string payload = blob.substr(at);
  if (payload_checksum(payload) != checksum) {
    throw SnapshotError("snapshot checksum mismatch in " + path.string());
  }
  return payload;
}

}  // namespace gs::ckpt
