#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/state_io.hpp"
#include "common/rng.hpp"
#include "tsdb/chunk.hpp"
#include "tsdb/codec.hpp"
#include "tsdb/error.hpp"
#include "tsdb/time.hpp"

namespace gs::tsdb {
namespace {

std::vector<Sample> decode_all(const SealedChunk& chunk) {
  std::vector<Sample> out;
  ChunkCursor cur(std::make_shared<const SealedChunk>(chunk));
  Sample s;
  while (cur.next(s)) out.push_back(s);
  return out;
}

TEST(BitStream, RoundTripsMixedWidths) {
  BitWriter w;
  w.bits(0b101, 3);
  w.bits(0xdeadbeefcafef00dull, 64);
  w.bit(true);
  w.bits(0, 7);
  w.bits(0x3ff, 10);
  // BitReader is a view: the bytes must outlive it.
  const std::string bytes = w.bytes();
  BitReader r(bytes);
  EXPECT_EQ(r.bits(3), 0b101u);
  EXPECT_EQ(r.bits(64), 0xdeadbeefcafef00dull);
  EXPECT_TRUE(r.bit());
  EXPECT_EQ(r.bits(7), 0u);
  EXPECT_EQ(r.bits(10), 0x3ffu);
}

TEST(BitStream, ReaderThrowsPastTheEnd) {
  BitWriter w;
  w.bits(0xff, 8);
  const std::string bytes = w.bytes();
  BitReader r(bytes);
  EXPECT_EQ(r.bits(8), 0xffu);
  EXPECT_THROW((void)r.bits(1), TsdbError);
}

TEST(BitStream, WriterStateRoundTripsMidByte) {
  BitWriter w;
  w.bits(0b10110, 5);  // leaves a partial carry byte
  ckpt::StateWriter sw;
  w.save_state(sw);
  BitWriter restored;
  ckpt::StateReader sr(sw.buffer());
  restored.load_state(sr);
  w.bits(0b011, 3);
  restored.bits(0b011, 3);
  EXPECT_EQ(restored.bytes(), w.bytes());
  EXPECT_EQ(restored.size_bits(), w.size_bits());
}

TEST(ChunkCodec, RoundTripsUniformEpochGrid) {
  ChunkAppender app({1, 2, 3});
  std::vector<Sample> expected;
  for (int i = 0; i < 500; ++i) {
    const Timestamp t = to_timestamp(double(i) * 60.0);
    const double v = 100.0 + double(i % 13) * 0.25;
    app.append(t, v);
    expected.push_back({t, v});
  }
  const SealedChunk chunk = app.seal();
  EXPECT_EQ(chunk.count(), 500u);
  EXPECT_EQ(chunk.key(), (SeriesKey{1, 2, 3}));
  EXPECT_EQ(decode_all(chunk), expected);
  EXPECT_TRUE(app.empty());  // seal() resets the appender
}

TEST(ChunkCodec, RoundTripsAdversarialValuesBitExactly) {
  ChunkAppender app;
  std::vector<Sample> expected;
  Rng rng(42);
  Timestamp t = to_timestamp(0.0);
  std::vector<double> values = {0.0,    -0.0,     1e-308, -1e308,
                                3.14159, 1.0 / 3.0, 65536.5};
  for (int i = 0; i < 300; ++i) {
    values.push_back(rng.uniform(-1e6, 1e6));
  }
  std::size_t n = 0;
  for (const double v : values) {
    // Irregular stamp spacing, so the delta-of-delta path sees every code.
    t += Timestamp(1) + Timestamp((n * n * 37 + n) % 100000);
    ++n;
    app.append(t, v);
    expected.push_back({t, v});
  }
  const auto got = decode_all(app.seal());
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].time, expected[i].time) << i;
    // Bit-exact, including signed zero: compare representations.
    EXPECT_EQ(std::signbit(got[i].value), std::signbit(expected[i].value))
        << i;
    EXPECT_EQ(got[i].value, expected[i].value) << i;
  }
}

TEST(ChunkCodec, RejectsDecreasingTimestamps) {
  ChunkAppender app;
  app.append(100, 1.0);
  app.append(100, 1.0);  // equal is allowed
  EXPECT_THROW(app.append(99, 1.0), gs::ContractError);
}

TEST(ChunkCodec, SnapshotObservesPrefixWhileAppendsContinue) {
  ChunkAppender app;
  for (int i = 0; i < 10; ++i) app.append(Timestamp(i), double(i));
  const SealedChunk snap = app.snapshot();
  for (int i = 10; i < 20; ++i) app.append(Timestamp(i), double(i));
  EXPECT_EQ(snap.count(), 10u);
  const auto prefix = decode_all(snap);
  ASSERT_EQ(prefix.size(), 10u);
  EXPECT_EQ(prefix.back().time, 9);
  EXPECT_EQ(app.count(), 20u);
  EXPECT_EQ(decode_all(app.snapshot()).size(), 20u);
}

TEST(ChunkCodec, AppenderStateRoundTripsMidStream) {
  ChunkAppender app({7, 8, 9});
  for (int i = 0; i < 137; ++i) {
    app.append(to_timestamp(double(i) * 2.5), std::sin(double(i)));
  }
  ckpt::StateWriter w;
  app.save_state(w);
  ChunkAppender restored;
  ckpt::StateReader r(w.buffer());
  restored.load_state(r);
  // Both continue identically: the compression registers were exact.
  for (int i = 137; i < 200; ++i) {
    const Timestamp t = to_timestamp(double(i) * 2.5);
    app.append(t, std::sin(double(i)));
    restored.append(t, std::sin(double(i)));
  }
  const SealedChunk a = app.seal();
  const SealedChunk b = restored.seal();
  EXPECT_EQ(a.payload(), b.payload());
  EXPECT_EQ(a.key(), b.key());
  EXPECT_EQ(decode_all(a), decode_all(b));
}

// --- Page corruption matrix ------------------------------------------------

SealedChunk small_chunk() {
  ChunkAppender app({4, 5, 6});
  for (int i = 0; i < 64; ++i) {
    app.append(to_timestamp(double(i)), double(i) * 0.5);
  }
  return app.seal();
}

TEST(PageCodec, EncodeDecodeRoundTrip) {
  const SealedChunk chunk = small_chunk();
  const std::string page = encode_page(chunk);
  const SealedChunk back = decode_page(page, "test");
  EXPECT_EQ(back.key(), chunk.key());
  EXPECT_EQ(back.count(), chunk.count());
  EXPECT_EQ(back.t_min(), chunk.t_min());
  EXPECT_EQ(back.t_max(), chunk.t_max());
  EXPECT_EQ(back.payload(), chunk.payload());
  EXPECT_EQ(decode_all(back), decode_all(chunk));
}

TEST(PageCodec, TruncatedPageThrows) {
  const std::string page = encode_page(small_chunk());
  for (const std::size_t keep :
       {std::size_t(0), std::size_t(4), std::size_t(20), page.size() - 1}) {
    EXPECT_THROW((void)decode_page(std::string_view(page).substr(0, keep),
                                   "test"),
                 TsdbError)
        << "kept " << keep << " bytes";
  }
}

TEST(PageCodec, BadMagicThrows) {
  std::string page = encode_page(small_chunk());
  page[0] ^= 0x01;
  EXPECT_THROW((void)decode_page(page, "test"), TsdbError);
}

TEST(PageCodec, VersionSkewThrows) {
  std::string page = encode_page(small_chunk());
  page[8] = char(page[8] + 1);  // u32 format version follows the 8B magic
  EXPECT_THROW((void)decode_page(page, "test"), TsdbError);
}

TEST(PageCodec, PayloadCorruptionFailsTheChecksum) {
  std::string page = encode_page(small_chunk());
  page[page.size() / 2] ^= 0x40;
  EXPECT_THROW((void)decode_page(page, "test"), TsdbError);
}

TEST(PageCodec, ChecksumCorruptionThrows) {
  std::string page = encode_page(small_chunk());
  page[page.size() - 1] ^= 0x01;  // trailing u64 FNV-1a
  EXPECT_THROW((void)decode_page(page, "test"), TsdbError);
}

TEST(PageCodec, ErrorsNameTheOrigin) {
  std::string page = encode_page(small_chunk());
  page[0] ^= 0x01;
  try {
    (void)decode_page(page, "/some/page.gspage");
    FAIL() << "expected TsdbError";
  } catch (const TsdbError& e) {
    EXPECT_NE(std::string(e.what()).find("/some/page.gspage"),
              std::string::npos);
  }
}

TEST(TimeKey, OrderPreservingAndInvertible) {
  const std::vector<double> ts = {-1e9, -1.5, -0.0, 0.0, 1e-12,
                                  1.0,  60.0, 1e12};
  for (std::size_t i = 0; i < ts.size(); ++i) {
    EXPECT_EQ(to_seconds(to_timestamp(ts[i])), ts[i]);
    for (std::size_t j = i + 1; j < ts.size(); ++j) {
      EXPECT_LE(to_timestamp(ts[i]), to_timestamp(ts[j]))
          << ts[i] << " vs " << ts[j];
    }
  }
  EXPECT_THROW((void)to_timestamp(std::nan("")), gs::ContractError);
}

}  // namespace
}  // namespace gs::tsdb
