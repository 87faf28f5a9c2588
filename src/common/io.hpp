// gs:durable-io
// Durable file I/O shim: every byte the checkpoint/WAL/lease layer
// commits to disk flows through here, for two reasons.
//
//  1. Durability. atomic_write_file implements the full
//     tmp → write → fdatasync → rename → parent-dir-fsync discipline
//     (behind Durability so bulk CSV exports can opt out), closing the
//     "crash just after commit surfaces an empty or stale file" window
//     the bare tmp+rename writers left open.
//  2. Fault injection. Each entry point hosts a named gs::failpoint site,
//     so the chaos lane can deterministically fail, tear, or crash any
//     durable operation (see common/failpoint.hpp for the grammar).
//
// Error contract: all failures — real or injected — throw IoError. A
// TornWrite action is the one deliberate exception to "fail loudly": it
// persists a prefix and *returns success*, modeling firmware that lies.
#pragma once

#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <string_view>

namespace gs::io {

/// How hard a committed write chases the platters.
enum class Durability : std::uint8_t {
  None,  ///< Buffered write + atomic rename only (bulk exports).
  Full,  ///< fdatasync the file, then fsync the parent directory.
};

/// Thrown on any failed or injected-failed I/O operation.
class IoError : public std::runtime_error {
 public:
  explicit IoError(const std::string& what) : std::runtime_error(what) {}
};

struct WriteOptions {
  Durability durability = Durability::Full;
  /// Failpoint site consulted before the bytes move.
  const char* site = "io.atomic_write";
};

/// Atomically replace `path` with `bytes`: write to `tmp`, sync per
/// `opts.durability`, rename over `path`, fsync the parent directory.
/// Injected actions: Eio/Enospc throw before any byte lands; ShortWrite
/// persists a prefix under `tmp` and throws; TornWrite persists a prefix
/// under `path` (renamed!) and returns success; Crash _exits mid-write.
void atomic_write_file(const std::filesystem::path& path,
                       const std::filesystem::path& tmp,
                       std::string_view bytes, const WriteOptions& opts);

/// atomic_write_file with a self-derived temp name next to `path`.
void atomic_write_file(const std::filesystem::path& path,
                       std::string_view bytes, const WriteOptions& opts);

/// Buffered append-only stream (WAL segments, series catalog). Appends
/// accumulate in a user-space buffer flushed at a syscall-friendly
/// granularity; flush(Full) additionally fdatasyncs.
class AppendFile {
 public:
  AppendFile() = default;
  ~AppendFile();
  AppendFile(const AppendFile&) = delete;
  AppendFile& operator=(const AppendFile&) = delete;

  /// Open `path` truncated (fresh segment) or appending (catalog).
  /// `site` is the failpoint consulted on every append.
  void open_trunc(const std::filesystem::path& path, const char* site);
  void open_append(const std::filesystem::path& path, const char* site);

  /// Append bytes. Injected Eio/Enospc throw before any byte moves;
  /// ShortWrite/TornWrite flush the buffer, persist a *prefix* of
  /// `bytes` (torn mid-record), and throw; Crash _exits.
  void append(std::string_view bytes);

  void flush(Durability durability);
  [[nodiscard]] bool is_open() const { return fd_ >= 0; }
  /// Flushed bytes + buffered bytes since open (append mode: since open,
  /// not file size).
  [[nodiscard]] std::uint64_t bytes_written() const { return written_; }
  void close();

 private:
  void open_mode(const std::filesystem::path& path, const char* site,
                 int flags);
  void flush_buffer();

  int fd_ = -1;
  std::string path_;
  const char* site_ = "io.append";
  std::string buf_;
  std::uint64_t written_ = 0;
};

/// Exclusive claim (sweep leases): true when this caller created the
/// file, false when it already exists. The body is written to a private
/// temp and published with link(2), so the file never exists without it
/// (a short or torn write publishes the prefix). Injected Eio/Enospc throw;
/// TornWrite creates the file with a prefix of `body` and reports
/// success; Crash _exits at the site, before anything is created.
bool exclusive_create(const std::filesystem::path& path,
                      std::string_view body, const char* site);

/// rename(2) through a failpoint (lease steal, repairs). Any injected
/// write-shaping action degrades to Eio — a rename has no byte stream.
void rename_file(const std::filesystem::path& from,
                 const std::filesystem::path& to, const char* site);

/// truncate(2) through a failpoint (WAL torn-tail repair).
void truncate_file(const std::filesystem::path& path, std::uint64_t size,
                   const char* site);

/// fsync the directory containing `entry` so a just-renamed name survives
/// power loss. Filesystems that cannot fsync a directory are tolerated.
void fsync_parent_dir(const std::filesystem::path& entry);

}  // namespace gs::io
