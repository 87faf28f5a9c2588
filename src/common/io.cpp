// gs:durable-io
#include "common/io.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <system_error>

#include "common/failpoint.hpp"

namespace gs::io {
namespace {

/// Append-buffer flush granularity: large enough that a 24-byte WAL
/// record costs no syscall, small enough that a kill loses little.
constexpr std::size_t kAppendBufferBytes = std::size_t(64) * 1024;

std::string errno_message(int err) {
  return std::error_code(err, std::generic_category()).message();
}

[[noreturn]] void throw_errno(const std::string& what, int err) {
  throw IoError(what + ": " + errno_message(err));
}

[[noreturn]] void throw_injected(const char* site,
                                 failpoint::ActionKind kind) {
  const char* what =
      kind == failpoint::ActionKind::Enospc ? "ENOSPC" : "EIO";
  throw IoError(std::string("failpoint ") + site + ": injected " + what);
}

/// write(2) until every byte is down (or a real error).
void write_all(int fd, const char* data, std::size_t size,
               const std::string& path) {
  std::size_t at = 0;
  while (at < size) {
    const ::ssize_t n = ::write(fd, data + at, size - at);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      throw_errno("write to " + path + " failed", err);
    }
    at += std::size_t(n);
  }
}

/// The prefix a short/torn write persists: half the payload, cutting
/// mid-"record" for any record size > 1.
std::size_t torn_prefix(std::size_t size) { return size / 2; }

int open_or_throw(const std::filesystem::path& path, int flags) {
  const int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) throw_errno("cannot open " + path.string(), errno);
  return fd;
}

void fdatasync_or_throw(int fd, const std::string& path) {
  if (::fdatasync(fd) != 0) {
    const int err = errno;
    ::close(fd);
    throw_errno("fdatasync of " + path + " failed", err);
  }
}

/// `<path>.tmp-p<pid>.<n>`, with n from a process-wide counter: no two
/// writers, in this process or another, ever share a temp file.
std::filesystem::path private_tmp_path(const std::filesystem::path& path) {
  static std::atomic<std::uint64_t> counter{0};
  const std::uint64_t n = counter.fetch_add(1, std::memory_order_relaxed);
  return path.string() + ".tmp-p" + std::to_string(::getpid()) + "." +
         std::to_string(n);
}

}  // namespace

void fsync_parent_dir(const std::filesystem::path& entry) {
  std::filesystem::path dir = entry.parent_path();
  if (dir.empty()) dir = ".";
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;  // e.g. a filesystem without directory handles
  // Directory fsync is advisory on some filesystems; a failure here
  // cannot un-commit the rename, so it is deliberately not fatal.
  (void)::fsync(fd);
  ::close(fd);
}

void atomic_write_file(const std::filesystem::path& path,
                       const std::filesystem::path& tmp,
                       std::string_view bytes, const WriteOptions& opts) {
  const failpoint::Action action = failpoint::consult(opts.site);
  if (action.kind == failpoint::ActionKind::Eio ||
      action.kind == failpoint::ActionKind::Enospc) {
    throw_injected(opts.site, action.kind);
  }
  const bool shorted = action.kind == failpoint::ActionKind::ShortWrite;
  const bool torn = action.kind == failpoint::ActionKind::TornWrite;
  const std::size_t persist =
      (shorted || torn) ? torn_prefix(bytes.size()) : bytes.size();

  const int fd = open_or_throw(tmp, O_WRONLY | O_CREAT | O_TRUNC);
  write_all(fd, bytes.data(), persist, tmp.string());
  if (shorted) {
    ::close(fd);
    throw IoError(std::string("failpoint ") + opts.site +
                  ": injected short write to " + tmp.string());
  }
  if (opts.durability == Durability::Full) {
    fdatasync_or_throw(fd, tmp.string());
  }
  if (::close(fd) != 0) {
    throw_errno("close of " + tmp.string() + " failed", errno);
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    ::unlink(tmp.c_str());
    throw_errno("cannot rename " + tmp.string() + " over " + path.string(),
                err);
  }
  if (opts.durability == Durability::Full) fsync_parent_dir(path);
  // A TornWrite falls out here reporting success: the committed file
  // holds only a prefix, exactly like storage that acked a lost write.
}

void atomic_write_file(const std::filesystem::path& path,
                       std::string_view bytes, const WriteOptions& opts) {
  atomic_write_file(path, private_tmp_path(path), bytes, opts);
}

AppendFile::~AppendFile() {
  if (fd_ < 0) return;
  try {
    flush_buffer();
  } catch (const IoError&) {
    // Destructor: the data is already lost; close what we can.
  }
  ::close(fd_);
}

void AppendFile::open_mode(const std::filesystem::path& path,
                           const char* site, int flags) {
  close();
  fd_ = open_or_throw(path, flags);
  path_ = path.string();
  site_ = site;
  buf_.clear();
  written_ = 0;
}

void AppendFile::open_trunc(const std::filesystem::path& path,
                            const char* site) {
  open_mode(path, site, O_WRONLY | O_CREAT | O_TRUNC);
}

void AppendFile::open_append(const std::filesystem::path& path,
                             const char* site) {
  open_mode(path, site, O_WRONLY | O_CREAT | O_APPEND);
}

void AppendFile::append(std::string_view bytes) {
  if (fd_ < 0) throw IoError("append to closed file " + path_);
  const failpoint::Action action = failpoint::consult(site_);
  switch (action.kind) {
    case failpoint::ActionKind::Eio:
    case failpoint::ActionKind::Enospc:
      throw_injected(site_, action.kind);
    case failpoint::ActionKind::ShortWrite:
    case failpoint::ActionKind::TornWrite: {
      // Persist everything buffered plus a prefix of this record, then
      // fail the append: the on-disk tail ends mid-record.
      flush_buffer();
      const std::size_t prefix = torn_prefix(bytes.size());
      write_all(fd_, bytes.data(), prefix, path_);
      written_ += prefix;
      throw IoError(std::string("failpoint ") + site_ +
                    ": injected torn append to " + path_);
    }
    case failpoint::ActionKind::None:
    case failpoint::ActionKind::Crash:  // consult() never returns Crash
      break;
  }
  buf_.append(bytes.data(), bytes.size());
  written_ += bytes.size();
  if (buf_.size() >= kAppendBufferBytes) flush_buffer();
}

void AppendFile::flush_buffer() {
  if (fd_ < 0 || buf_.empty()) return;
  write_all(fd_, buf_.data(), buf_.size(), path_);
  buf_.clear();
}

void AppendFile::flush(Durability durability) {
  if (fd_ < 0) throw IoError("flush of closed file " + path_);
  flush_buffer();
  if (durability == Durability::Full) {
    if (::fdatasync(fd_) != 0) {
      throw_errno("fdatasync of " + path_ + " failed", errno);
    }
  }
}

void AppendFile::close() {
  if (fd_ < 0) return;
  flush_buffer();
  const int fd = fd_;
  fd_ = -1;
  if (::close(fd) != 0) {
    throw_errno("close of " + path_ + " failed", errno);
  }
}

bool exclusive_create(const std::filesystem::path& path,
                      std::string_view body, const char* site) {
  const failpoint::Action action = failpoint::consult(site);
  if (action.kind == failpoint::ActionKind::Eio ||
      action.kind == failpoint::ActionKind::Enospc) {
    throw_injected(site, action.kind);
  }
  const bool shaped =
      action.kind == failpoint::ActionKind::ShortWrite ||
      action.kind == failpoint::ActionKind::TornWrite;
  const std::size_t persist =
      shaped ? torn_prefix(body.size()) : body.size();
  // The body goes to a private temp first, and link(2) publishes it under
  // the claim name, failing with EEXIST when the name exists: exactly one
  // claimant wins, and no reader ever sees a claim without its body (an
  // O_CREAT|O_EXCL create would show it empty until the write landed).
  const std::filesystem::path tmp = private_tmp_path(path);
  const int fd = open_or_throw(tmp, O_CREAT | O_EXCL | O_WRONLY);
  try {
    write_all(fd, body.data(), persist, tmp.string());
  } catch (const IoError&) {
    ::unlink(tmp.c_str());
    throw;
  }
  ::close(fd);
  const int linked = ::link(tmp.c_str(), path.c_str());
  const int err = errno;
  ::unlink(tmp.c_str());
  if (linked != 0) {
    if (err == EEXIST) return false;
    throw_errno("cannot create " + path.string(), err);
  }
  if (action.kind == failpoint::ActionKind::ShortWrite) {
    // The claim exists with a half-written body this caller does not
    // own: to every worker it is a stale lease waiting to be stolen.
    throw IoError(std::string("failpoint ") + site +
                  ": injected short write to " + path.string());
  }
  return true;
}

void rename_file(const std::filesystem::path& from,
                 const std::filesystem::path& to, const char* site) {
  const failpoint::Action action = failpoint::consult(site);
  if (action) throw_injected(site, failpoint::ActionKind::Eio);
  if (::rename(from.c_str(), to.c_str()) != 0) {
    throw_errno("cannot rename " + from.string() + " to " + to.string(),
                errno);
  }
}

void truncate_file(const std::filesystem::path& path, std::uint64_t size,
                   const char* site) {
  const failpoint::Action action = failpoint::consult(site);
  if (action) throw_injected(site, failpoint::ActionKind::Eio);
  if (::truncate(path.c_str(), ::off_t(size)) != 0) {
    throw_errno("cannot truncate " + path.string(), errno);
  }
}

}  // namespace gs::io
