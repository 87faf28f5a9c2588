#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <unistd.h>

#include "common/failpoint.hpp"
#include "common/io.hpp"

namespace gs::io {
namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

class Io : public ::testing::Test {
 protected:
  void SetUp() override {
    failpoint::reset();
    dir_ = fs::path(::testing::TempDir()) /
           ("gs_io_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    failpoint::reset();
    fs::remove_all(dir_);
  }

  fs::path dir_;
};

TEST_F(Io, AtomicWriteCreatesAndReplaces) {
  const fs::path target = dir_ / "out.bin";
  WriteOptions opts;
  atomic_write_file(target, "first", opts);
  EXPECT_EQ(slurp(target), "first");
  atomic_write_file(target, "second, longer payload", opts);
  EXPECT_EQ(slurp(target), "second, longer payload");
  // The derived temp name never survives a successful commit.
  std::size_t files = 0;
  for (const auto& e : fs::directory_iterator(dir_)) {
    (void)e;
    ++files;
  }
  EXPECT_EQ(files, 1u);
}

TEST_F(Io, AtomicWriteNoneDurabilityStillCommits) {
  const fs::path target = dir_ / "bulk.csv";
  WriteOptions opts;
  opts.durability = Durability::None;
  atomic_write_file(target, "a,b\n1,2\n", opts);
  EXPECT_EQ(slurp(target), "a,b\n1,2\n");
}

TEST_F(Io, AtomicWriteBadDirectoryThrows) {
  WriteOptions opts;
  EXPECT_THROW(
      atomic_write_file(dir_ / "missing" / "out.bin", "x", opts),
      IoError);
}

TEST_F(Io, InjectedEioFailsBeforeAnyByteLands) {
  const fs::path target = dir_ / "out.bin";
  WriteOptions opts;
  opts.site = "test.write";
  atomic_write_file(target, "intact", opts);
  failpoint::configure("test.write=eio");
  EXPECT_THROW(atomic_write_file(target, "clobber", opts), IoError);
  EXPECT_EQ(slurp(target), "intact");  // target untouched
  failpoint::configure("test.write=enospc");
  EXPECT_THROW(atomic_write_file(target, "clobber", opts), IoError);
  EXPECT_EQ(slurp(target), "intact");
}

TEST_F(Io, InjectedShortWritePersistsPrefixUnderTmpAndThrows) {
  const fs::path target = dir_ / "out.bin";
  const fs::path tmp = dir_ / "out.tmp";
  WriteOptions opts;
  opts.site = "test.write";
  failpoint::configure("test.write=short");
  EXPECT_THROW(atomic_write_file(target, tmp, "0123456789", opts), IoError);
  EXPECT_FALSE(fs::exists(target));  // never renamed into place
  ASSERT_TRUE(fs::exists(tmp));
  EXPECT_EQ(slurp(tmp), "01234");  // half the bytes, torn mid-stream
}

TEST_F(Io, InjectedTornWriteRenamesPrefixAndLiesAboutSuccess) {
  const fs::path target = dir_ / "out.bin";
  WriteOptions opts;
  opts.site = "test.write";
  failpoint::configure("test.write=torn");
  // The lying-firmware model: the call SUCCEEDS but target holds a prefix.
  EXPECT_NO_THROW(atomic_write_file(target, "0123456789", opts));
  EXPECT_EQ(slurp(target), "01234");
}

TEST_F(Io, InjectedCrashExitsMidWrite) {
  const fs::path target = dir_ / "out.bin";
  WriteOptions opts;
  opts.site = "test.write";
  failpoint::configure("test.write=crash");
  EXPECT_EXIT(atomic_write_file(target, "bytes", opts),
              ::testing::ExitedWithCode(failpoint::kCrashExitCode),
              "induced crash");
}

TEST_F(Io, AppendFileBuffersAndFlushes) {
  const fs::path log = dir_ / "a.log";
  AppendFile out;
  out.open_trunc(log, "test.append");
  out.append("one\n");
  out.append("two\n");
  EXPECT_EQ(out.bytes_written(), 8u);
  out.flush(Durability::Full);
  EXPECT_EQ(slurp(log), "one\ntwo\n");
  out.close();
  EXPECT_FALSE(out.is_open());

  AppendFile again;
  again.open_append(log, "test.append");
  again.append("three\n");
  again.flush(Durability::None);
  again.close();
  EXPECT_EQ(slurp(log), "one\ntwo\nthree\n");
}

TEST_F(Io, AppendInjectedEioThrowsBeforeBytesMove) {
  const fs::path log = dir_ / "a.log";
  AppendFile out;
  out.open_trunc(log, "test.append");
  out.append("committed\n");
  out.flush(Durability::None);
  failpoint::configure("test.append=eio");
  EXPECT_THROW(out.append("lost\n"), IoError);
  failpoint::reset();
  out.flush(Durability::None);
  out.close();
  EXPECT_EQ(slurp(log), "committed\n");
}

TEST_F(Io, AppendInjectedTornPersistsHalfTheRecord) {
  const fs::path log = dir_ / "a.log";
  AppendFile out;
  out.open_trunc(log, "test.append");
  out.append("whole-record\n");
  failpoint::configure("test.append=torn");
  EXPECT_THROW(out.append("0123456789"), IoError);
  failpoint::reset();
  out.close();
  // Prior buffer flushed, then half of the torn record.
  EXPECT_EQ(slurp(log), "whole-record\n01234");
}

TEST_F(Io, ExclusiveCreateClaimsExactlyOnce) {
  const fs::path lease = dir_ / "cell.lease";
  EXPECT_TRUE(exclusive_create(lease, "1234\n", "test.lease"));
  EXPECT_EQ(slurp(lease), "1234\n");
  EXPECT_FALSE(exclusive_create(lease, "5678\n", "test.lease"));
  EXPECT_EQ(slurp(lease), "1234\n");  // loser never touches the body
}

TEST_F(Io, ExclusiveCreateTornLeavesHalfWrittenClaim) {
  const fs::path lease = dir_ / "cell.lease";
  failpoint::configure("test.lease=torn");
  EXPECT_TRUE(exclusive_create(lease, "123456\n", "test.lease"));
  EXPECT_EQ(slurp(lease), "123");  // claim exists, body torn
}

TEST_F(Io, RenameAndTruncateReportFailuresAsIoError) {
  const fs::path a = dir_ / "a";
  const fs::path b = dir_ / "b";
  EXPECT_THROW(rename_file(a, b, "test.rename"), IoError);  // missing src
  WriteOptions opts;
  atomic_write_file(a, "0123456789", opts);
  rename_file(a, b, "test.rename");
  EXPECT_EQ(slurp(b), "0123456789");
  truncate_file(b, 4, "test.truncate");
  EXPECT_EQ(slurp(b), "0123");
  // Injected byte-shaping actions degrade to a hard error: a rename or
  // truncate has no byte stream to tear.
  failpoint::configure("test.rename=torn;test.truncate=short");
  EXPECT_THROW(rename_file(b, a, "test.rename"), IoError);
  EXPECT_THROW(truncate_file(b, 2, "test.truncate"), IoError);
  EXPECT_EQ(slurp(b), "0123");
}

TEST_F(Io, FsyncParentDirToleratesOddPaths) {
  // Best-effort by contract: never throws, even for a root-level entry.
  WriteOptions opts;
  atomic_write_file(dir_ / "f", "x", opts);
  EXPECT_NO_THROW(fsync_parent_dir(dir_ / "f"));
  EXPECT_NO_THROW(fsync_parent_dir("/no-such-dir/f"));
}

}  // namespace
}  // namespace gs::io
