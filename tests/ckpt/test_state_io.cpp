#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "ckpt/common_state.hpp"
#include "ckpt/state_io.hpp"

namespace gs::ckpt {
namespace {

TEST(StateIo, ScalarRoundTripIsBitExact) {
  StateWriter w;
  w.u8(0xAB);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.i64(-42);
  w.f64(3.141592653589793);
  w.f64(-0.0);
  w.f64(std::numeric_limits<double>::denorm_min());
  w.f64(std::numeric_limits<double>::quiet_NaN());
  w.boolean(true);
  w.boolean(false);
  w.str("hello snapshot");
  w.str("");

  StateReader r(w.buffer());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.f64(), 3.141592653589793);
  const double neg_zero = r.f64();
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero));
  EXPECT_EQ(r.f64(), std::numeric_limits<double>::denorm_min());
  EXPECT_TRUE(std::isnan(r.f64()));
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  EXPECT_EQ(r.str(), "hello snapshot");
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.at_end());
}

TEST(StateIo, SectionRoundTrip) {
  StateWriter w;
  w.begin_section("outer", 3);
  w.u64(7);
  w.begin_section("inner", 1);
  w.f64(2.5);
  w.end_section();
  w.u64(9);
  w.end_section();

  StateReader r(w.buffer());
  EXPECT_EQ(r.begin_section("outer", 3), 3u);
  EXPECT_EQ(r.u64(), 7u);
  r.begin_section("inner", 1);
  EXPECT_EQ(r.f64(), 2.5);
  r.end_section();
  EXPECT_EQ(r.u64(), 9u);
  r.end_section();
  EXPECT_TRUE(r.at_end());
}

TEST(StateIo, WrongSectionNameThrows) {
  StateWriter w;
  w.begin_section("battery", 1);
  w.u64(1);
  w.end_section();

  StateReader r(w.buffer());
  EXPECT_THROW(r.begin_section("monitor", 1), SnapshotError);
}

TEST(StateIo, WrongSchemaVersionThrows) {
  StateWriter w;
  w.begin_section("battery", 2);
  w.u64(1);
  w.end_section();

  StateReader r(w.buffer());
  EXPECT_THROW(r.begin_section("battery", 1), SnapshotError);
}

TEST(StateIo, TruncatedPayloadThrows) {
  StateWriter w;
  w.begin_section("s", 1);
  w.u64(1);
  w.f64(2.0);
  w.end_section();
  const std::string full = w.buffer();

  // Every strict prefix must fail loudly somewhere, never read garbage.
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    StateReader r(std::string_view(full).substr(0, cut));
    EXPECT_THROW(
        {
          r.begin_section("s", 1);
          (void)r.u64();
          (void)r.f64();
          r.end_section();
        },
        SnapshotError)
        << "prefix of " << cut << " bytes decoded cleanly";
  }
}

TEST(StateIo, UnconsumedSectionBytesThrow) {
  StateWriter w;
  w.begin_section("s", 1);
  w.u64(1);
  w.u64(2);
  w.end_section();

  StateReader r(w.buffer());
  r.begin_section("s", 1);
  (void)r.u64();  // reader stops one field short of the writer
  EXPECT_THROW(r.end_section(), SnapshotError);
}

TEST(StateIo, ReadPastSectionEndThrows) {
  StateWriter w;
  w.begin_section("s", 1);
  w.u64(1);
  w.end_section();
  w.u64(0xFFFFFFFFFFFFFFFFull);  // lives outside the section

  StateReader r(w.buffer());
  r.begin_section("s", 1);
  (void)r.u64();
  EXPECT_THROW((void)r.u64(), SnapshotError);
}

TEST(StateIo, EwmaRoundTrip) {
  Ewma e(0.3);
  e.observe(10.0);
  e.observe(20.0);

  StateWriter w;
  save_ewma(w, e);
  Ewma restored(0.3);
  StateReader r(w.buffer());
  load_ewma(r, restored);

  EXPECT_TRUE(restored.primed());
  EXPECT_EQ(restored.prediction(), e.prediction());
  EXPECT_EQ(restored.observe(5.0), e.observe(5.0));
}

TEST(StateIo, EwmaUnprimedRoundTrip) {
  const Ewma e(0.3);
  StateWriter w;
  save_ewma(w, e);
  Ewma restored(0.3);
  restored.observe(99.0);  // dirty the target first
  StateReader r(w.buffer());
  load_ewma(r, restored);
  EXPECT_FALSE(restored.primed());
}

}  // namespace
}  // namespace gs::ckpt
