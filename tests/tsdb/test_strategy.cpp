#include <gtest/gtest.h>

#include <sstream>

#include "tsdb/error.hpp"
#include "tsdb/strategy.hpp"

namespace gs::tsdb {
namespace {

TEST(Strategy, ToStringNamesAllFour) {
  EXPECT_STREQ(to_string(Strategy::MEMORY), "MEMORY");
  EXPECT_STREQ(to_string(Strategy::WAL), "WAL");
  EXPECT_STREQ(to_string(Strategy::COMPRESSED), "COMPRESSED");
  // Snapshots from builds with a fourth strategy may record code 3: it
  // names nothing.
  EXPECT_THROW((void)to_string(Strategy(3)), TsdbError);
}

TEST(Strategy, FromStringRoundTripsEveryStrategy) {
  for (std::uint8_t i = 0; i < kNumStrategies; ++i) {
    const Strategy s = Strategy(i);
    EXPECT_EQ(strategy_from_string(to_string(s)), s);
  }
}

TEST(Strategy, FromStringIsCaseInsensitive) {
  EXPECT_EQ(strategy_from_string("memory"), Strategy::MEMORY);
  EXPECT_EQ(strategy_from_string("Wal"), Strategy::WAL);
  EXPECT_EQ(strategy_from_string("compressed"), Strategy::COMPRESSED);
  EXPECT_EQ(strategy_from_string("cOmPrEsSeD"), Strategy::COMPRESSED);
}

TEST(Strategy, FromStringRejectsUnknownNames) {
  EXPECT_THROW((void)strategy_from_string(""), TsdbError);
  EXPECT_THROW((void)strategy_from_string("DISK"), TsdbError);
  EXPECT_THROW((void)strategy_from_string("MEMORY "), TsdbError);
  EXPECT_THROW((void)strategy_from_string("cache"), TsdbError);
}

TEST(Strategy, StreamRoundTrip) {
  for (std::uint8_t i = 0; i < kNumStrategies; ++i) {
    const Strategy in = Strategy(i);
    std::stringstream ss;
    ss << in;
    Strategy out = Strategy::MEMORY;
    ss >> out;
    EXPECT_EQ(out, in);
  }
}

TEST(Strategy, StreamExtractionConsumesOneTokenAndRejectsBadNames) {
  std::istringstream ok("wal compressed");
  Strategy a = Strategy::MEMORY;
  Strategy b = Strategy::MEMORY;
  ok >> a >> b;
  EXPECT_EQ(a, Strategy::WAL);
  EXPECT_EQ(b, Strategy::COMPRESSED);

  std::istringstream bad("floppy");
  Strategy s = Strategy::MEMORY;
  EXPECT_THROW(bad >> s, TsdbError);
}

}  // namespace
}  // namespace gs::tsdb
