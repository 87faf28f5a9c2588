#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <unistd.h>

#include "ckpt/rotation.hpp"
#include "ckpt/snapshot.hpp"
#include "common/failpoint.hpp"

namespace gs::ckpt {
namespace {

namespace fs = std::filesystem;

void corrupt_flip_byte(const fs::path& p, std::uint64_t at) {
  std::fstream f(p, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good()) << p;
  f.seekg(std::streamoff(at));
  char c = 0;
  f.read(&c, 1);
  f.seekp(std::streamoff(at));
  c = char(c ^ 0x5a);
  f.write(&c, 1);
}

class Rotation : public ::testing::Test {
 protected:
  void SetUp() override {
    failpoint::reset();
    dir_ = fs::path(::testing::TempDir()) /
           ("gs_rot_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    base_ = dir_ / "gsd.gsck";
  }
  void TearDown() override {
    failpoint::reset();
    fs::remove_all(dir_);
  }

  /// Write generations 1..n with payloads "payload-1".."payload-n".
  void write_n(RotatingSnapshot& rot, int n) {
    for (int i = 1; i <= n; ++i) {
      EXPECT_EQ(rot.write("payload-" + std::to_string(i)),
                std::uint64_t(i));
    }
  }

  fs::path dir_;
  fs::path base_;
};

TEST_F(Rotation, WriteCreatesGenerationsAndPointer) {
  RotatingSnapshot rot(base_);
  write_n(rot, 3);
  EXPECT_FALSE(fs::exists(base_));  // the base itself is never written
  EXPECT_TRUE(fs::exists(RotatingSnapshot::generation_path(base_, 3)));
  EXPECT_EQ(RotatingSnapshot::read_pointer(base_), 3u);
  EXPECT_TRUE(RotatingSnapshot::exists(base_));

  const auto loaded = rot.load_last_known_good();
  ASSERT_TRUE(loaded);
  EXPECT_EQ(loaded->payload, "payload-3");
  EXPECT_EQ(loaded->generation, 3u);
  EXPECT_FALSE(loaded->fell_back);
  EXPECT_TRUE(loaded->notes.empty());
}

TEST_F(Rotation, PrunesBeyondKeepK) {
  RotationOptions opts;
  opts.keep = 2;
  RotatingSnapshot rot(base_, opts);
  write_n(rot, 5);
  const auto gens = RotatingSnapshot::list_generations(base_);
  ASSERT_EQ(gens.size(), 2u);
  EXPECT_EQ(gens.front().first, 4u);
  EXPECT_EQ(gens.back().first, 5u);
}

TEST_F(Rotation, TruncatedNewestFallsBackToLastKnownGood) {
  RotatingSnapshot rot(base_);
  write_n(rot, 3);
  fs::resize_file(RotatingSnapshot::generation_path(base_, 3), 10);

  const auto loaded = rot.load_last_known_good();
  ASSERT_TRUE(loaded);
  EXPECT_EQ(loaded->payload, "payload-2");
  EXPECT_EQ(loaded->generation, 2u);
  EXPECT_TRUE(loaded->fell_back);
  ASSERT_FALSE(loaded->notes.empty());
  EXPECT_NE(loaded->notes.front().find("generation 3"), std::string::npos);
}

TEST_F(Rotation, BitRotInNewestFallsBack) {
  RotatingSnapshot rot(base_);
  write_n(rot, 3);
  const fs::path g3 = RotatingSnapshot::generation_path(base_, 3);
  corrupt_flip_byte(g3, fs::file_size(g3) - 3);  // body byte: checksum trips

  const auto loaded = rot.load_last_known_good();
  ASSERT_TRUE(loaded);
  EXPECT_EQ(loaded->payload, "payload-2");
  EXPECT_TRUE(loaded->fell_back);
}

TEST_F(Rotation, MissingNewestGenerationFallsBackAndNotesThePointer) {
  RotatingSnapshot rot(base_);
  write_n(rot, 3);
  fs::remove(RotatingSnapshot::generation_path(base_, 3));

  // The pointer still names 3; the scan is the authority.
  const auto loaded = rot.load_last_known_good();
  ASSERT_TRUE(loaded);
  EXPECT_EQ(loaded->payload, "payload-2");
  EXPECT_EQ(loaded->generation, 2u);
  ASSERT_FALSE(loaded->notes.empty());
  EXPECT_NE(loaded->notes.back().find("pointer"), std::string::npos);
}

TEST_F(Rotation, CorruptPointerCostsOnlyAScan) {
  RotatingSnapshot rot(base_);
  write_n(rot, 2);
  {
    std::ofstream f(RotatingSnapshot::pointer_path(base_),
                    std::ios::trunc | std::ios::binary);
    f << "garbage, not a snapshot container";
  }
  EXPECT_FALSE(RotatingSnapshot::read_pointer(base_));
  const auto loaded = rot.load_last_known_good();
  ASSERT_TRUE(loaded);
  EXPECT_EQ(loaded->payload, "payload-2");
  ASSERT_EQ(loaded->notes.size(), 1u);
  EXPECT_NE(loaded->notes.front().find("pointer"), std::string::npos);
  EXPECT_NE(loaded->notes.front().find("failed validation"),
            std::string::npos);

  // And the next write still lands generation 3 (scan beats pointer).
  EXPECT_EQ(rot.write("payload-3"), 3u);
  EXPECT_EQ(RotatingSnapshot::read_pointer(base_), 3u);
}

TEST_F(Rotation, GenerationWithoutPointerLoadsWithoutANote) {
  // A first writer that has landed its generation but not yet its
  // pointer: nothing failed validation, so nothing is noted.
  RotatingSnapshot rot(base_);
  write_n(rot, 1);
  fs::remove(RotatingSnapshot::pointer_path(base_));
  const auto loaded = rot.load_last_known_good();
  ASSERT_TRUE(loaded);
  EXPECT_EQ(loaded->payload, "payload-1");
  EXPECT_FALSE(loaded->fell_back);
  EXPECT_TRUE(loaded->notes.empty());
}

TEST_F(Rotation, ReaderRacingTheFirstWriterAddsNoNote) {
  // One thread makes the first write to a fresh base while another polls
  // load_last_known_good. The reader can see the generation before the
  // pointer exists, or the pointer appear between its checks; neither is
  // damage, so no load may carry a note.
  RotationOptions opts;
  opts.keep = 2;  // as the sweep manifest keeps
  std::size_t loads = 0;
  std::size_t noted = 0;
  std::string first_note;
  for (int round = 0; round < 400; ++round) {
    const fs::path base = dir_ / ("race" + std::to_string(round) + ".gsck");
    std::atomic<bool> written{false};
    std::string write_error;
    std::thread writer([&] {
      try {
        RotatingSnapshot(base, opts).write("payload");
      } catch (const std::exception& e) {
        write_error = e.what();
      }
      written.store(true, std::memory_order_release);
    });
    const RotatingSnapshot reader(base, opts);
    bool done = false;
    while (!done) {
      done = written.load(std::memory_order_acquire);
      if (const auto loaded = reader.load_last_known_good()) {
        ++loads;
        EXPECT_EQ(loaded->payload, "payload");
        if (!loaded->notes.empty()) {
          if (noted++ == 0) first_note = loaded->notes.front();
        }
      }
    }
    writer.join();
    ASSERT_EQ(write_error, "") << "round " << round;
  }
  EXPECT_EQ(noted, 0u) << "of " << loads << " loads; first: " << first_note;
  EXPECT_GE(loads, 400u);  // every round ends with a complete load
}

TEST_F(Rotation, EveryGenerationCorruptIsReportedAsNothingIntact) {
  RotatingSnapshot rot(base_);
  write_n(rot, 2);
  fs::resize_file(RotatingSnapshot::generation_path(base_, 1), 4);
  fs::resize_file(RotatingSnapshot::generation_path(base_, 2), 4);
  EXPECT_FALSE(rot.load_last_known_good());
}

TEST_F(Rotation, SurvivesTornPointerWriteMidRotation) {
  RotatingSnapshot rot(base_);
  write_n(rot, 2);
  // Storm: the next rotation tears its pointer swap (lying firmware).
  failpoint::configure("ckpt.snapshot.write=torn@hit:2");
  rot.write("payload-3");  // gen 3 lands intact; pointer write is torn
  failpoint::reset();
  EXPECT_FALSE(RotatingSnapshot::read_pointer(base_));
  const auto loaded = rot.load_last_known_good();
  ASSERT_TRUE(loaded);
  // The generation file committed before the pointer tore: newest wins.
  EXPECT_EQ(loaded->payload, "payload-3");
  EXPECT_EQ(loaded->generation, 3u);
}

TEST_F(Rotation, SurvivesTornGenerationWriteMidRotation) {
  RotatingSnapshot rot(base_);
  write_n(rot, 2);
  // The generation write itself tears: write() reports success (the
  // firmware lied) but recovery must fall back to generation 2.
  failpoint::configure("ckpt.snapshot.write=torn@hit:1");
  rot.write("payload-3");
  failpoint::reset();
  const auto loaded = rot.load_last_known_good();
  ASSERT_TRUE(loaded);
  EXPECT_EQ(loaded->payload, "payload-2");
  EXPECT_EQ(loaded->generation, 2u);
  EXPECT_TRUE(loaded->fell_back);

  // A later clean rotation heals the family: 4 > the torn 3.
  EXPECT_EQ(rot.write("payload-4"), 4u);
  const auto healed = rot.load_last_known_good();
  ASSERT_TRUE(healed);
  EXPECT_EQ(healed->payload, "payload-4");
}

TEST_F(Rotation, GenerationPathsRoundTrip) {
  EXPECT_EQ(RotatingSnapshot::generation_path(base_, 41).filename(),
            "gsd.g000041.gsck");
  EXPECT_EQ(RotatingSnapshot::pointer_path(base_).filename(),
            "gsd.gsck.current");
  EXPECT_FALSE(RotatingSnapshot::exists(dir_ / "absent.gsck"));
}

}  // namespace
}  // namespace gs::ckpt
