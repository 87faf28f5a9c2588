#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>
#include <unistd.h>

#include "ckpt/snapshot.hpp"
#include "ckpt/state_io.hpp"

namespace gs::ckpt {
namespace {

namespace fs = std::filesystem;

class SnapshotFile : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("gs_ckpt_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] fs::path path(const std::string& name) const {
    return dir_ / name;
  }

  static std::string sample_payload() {
    StateWriter w;
    w.begin_section("sample", 1);
    w.u64(42);
    w.f64(2.718281828459045);
    w.str("payload");
    w.end_section();
    return w.buffer();
  }

  static std::string read_raw(const fs::path& p) {
    std::ifstream is(p, std::ios::binary);
    return {std::istreambuf_iterator<char>(is),
            std::istreambuf_iterator<char>()};
  }

  static void write_raw(const fs::path& p, const std::string& bytes) {
    std::ofstream os(p, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), std::streamsize(bytes.size()));
  }

  fs::path dir_;
};

TEST_F(SnapshotFile, RoundTripIsBitExact) {
  const std::string payload = sample_payload();
  write_snapshot_file(path("a.gsck"), payload);
  EXPECT_EQ(read_snapshot_file(path("a.gsck")), payload);
}

TEST_F(SnapshotFile, EmptyPayloadRoundTrips) {
  write_snapshot_file(path("empty.gsck"), "");
  EXPECT_EQ(read_snapshot_file(path("empty.gsck")), "");
}

TEST_F(SnapshotFile, OverwriteReplacesPreviousSnapshot) {
  write_snapshot_file(path("a.gsck"), "first payload, the longer one");
  write_snapshot_file(path("a.gsck"), "second");
  EXPECT_EQ(read_snapshot_file(path("a.gsck")), "second");
}

TEST_F(SnapshotFile, NoTempFileLeftBehind) {
  write_snapshot_file(path("a.gsck"), sample_payload());
  std::size_t entries = 0;
  for (const auto& e : fs::directory_iterator(dir_)) {
    (void)e;
    ++entries;
  }
  EXPECT_EQ(entries, 1u);
}

TEST_F(SnapshotFile, ConcurrentWritersOfOnePathAllSucceed) {
  // Two sweep workers commit byte-identical manifests to one path. Each
  // write needs its own temp file: writers sharing one (say, named by the
  // payload checksum) race, and the loser's rename finds it already gone.
  std::string payload(4096, '\0');
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = char('a' + i % 26);
  }
  const fs::path target = path("shared.gsck");
  std::atomic<int> failures{0};
  std::vector<std::thread> writers;
  for (int k = 0; k < 4; ++k) {
    writers.emplace_back([&] {
      for (int i = 0; i < 500; ++i) {
        try {
          write_snapshot_file(target, payload, io::Durability::None);
        } catch (const SnapshotError&) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& w : writers) w.join();
  EXPECT_EQ(failures.load(), 0);
  std::size_t entries = 0;
  for (const auto& e : fs::directory_iterator(dir_)) {
    (void)e;
    ++entries;
  }
  EXPECT_EQ(entries, 1u);
  EXPECT_EQ(read_snapshot_file(target), payload);
}

TEST_F(SnapshotFile, MissingFileThrows) {
  EXPECT_THROW((void)read_snapshot_file(path("nope.gsck")), SnapshotError);
}

TEST_F(SnapshotFile, FlippedPayloadBitFailsChecksum) {
  write_snapshot_file(path("a.gsck"), sample_payload());
  std::string raw = read_raw(path("a.gsck"));
  raw[raw.size() - 3] = char(raw[raw.size() - 3] ^ 0x01);
  write_raw(path("a.gsck"), raw);
  EXPECT_THROW((void)read_snapshot_file(path("a.gsck")), SnapshotError);
}

TEST_F(SnapshotFile, TruncationAnywhereThrows) {
  write_snapshot_file(path("a.gsck"), sample_payload());
  const std::string raw = read_raw(path("a.gsck"));
  // A torn write can stop at any byte; every prefix must be rejected.
  for (std::size_t cut = 0; cut < raw.size(); cut += 7) {
    write_raw(path("cut.gsck"), raw.substr(0, cut));
    EXPECT_THROW((void)read_snapshot_file(path("cut.gsck")), SnapshotError)
        << "prefix of " << cut << " bytes accepted";
  }
}

TEST_F(SnapshotFile, WrongMagicThrows) {
  write_snapshot_file(path("a.gsck"), sample_payload());
  std::string raw = read_raw(path("a.gsck"));
  raw[0] = 'X';
  write_raw(path("a.gsck"), raw);
  EXPECT_THROW((void)read_snapshot_file(path("a.gsck")), SnapshotError);
}

TEST_F(SnapshotFile, UnknownFormatVersionThrows) {
  write_snapshot_file(path("a.gsck"), sample_payload());
  std::string raw = read_raw(path("a.gsck"));
  // The u32 container version sits directly after the 8-byte magic.
  raw[8] = char(kSnapshotFormatVersion + 1);
  write_raw(path("a.gsck"), raw);
  EXPECT_THROW((void)read_snapshot_file(path("a.gsck")), SnapshotError);
}

TEST_F(SnapshotFile, ChecksumIsDeterministicAndDiscriminates) {
  EXPECT_EQ(payload_checksum("abc"), payload_checksum("abc"));
  EXPECT_NE(payload_checksum("abc"), payload_checksum("abd"));
  EXPECT_NE(payload_checksum(""), payload_checksum(std::string_view("\0", 1)));
}

}  // namespace
}  // namespace gs::ckpt
