// GSRV/1 wire protocol: framing, decoder adversarial cases, shortest
// round-trip doubles, and the request grammar.
#include "serve/protocol.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

namespace gs::serve {
namespace {

TEST(Frame, EncodeProducesFixedWidthHeader) {
  const std::string f = encode_frame("stat");
  ASSERT_EQ(f.size(), kFrameHeaderBytes + 4);
  EXPECT_EQ(f, "000004 stat");
}

TEST(Frame, RoundTripSingle) {
  FrameDecoder dec;
  dec.feed(encode_frame("hello GSRV/1"));
  std::string payload;
  ASSERT_TRUE(dec.next(payload));
  EXPECT_EQ(payload, "hello GSRV/1");
  EXPECT_FALSE(dec.next(payload));
  EXPECT_FALSE(dec.error().has_value());
}

TEST(Frame, RoundTripByteAtATime) {
  const std::string wire =
      encode_frame("feed 0 1.5 2.5 1") + encode_frame("stat");
  FrameDecoder dec;
  std::string payload;
  int got = 0;
  for (const char c : wire) {
    dec.feed(std::string_view(&c, 1));
    while (dec.next(payload)) {
      ++got;
      if (got == 1) {
        EXPECT_EQ(payload, "feed 0 1.5 2.5 1");
      }
      if (got == 2) {
        EXPECT_EQ(payload, "stat");
      }
    }
  }
  EXPECT_EQ(got, 2);
}

TEST(Frame, EmptyPayloadIsLegal) {
  FrameDecoder dec;
  dec.feed(encode_frame(""));
  std::string payload = "sentinel";
  ASSERT_TRUE(dec.next(payload));
  EXPECT_EQ(payload, "");
}

TEST(Frame, NonHexHeaderPoisons) {
  FrameDecoder dec;
  dec.feed("00g004 stat");
  std::string payload;
  EXPECT_FALSE(dec.next(payload));
  EXPECT_TRUE(dec.error().has_value());
  // A poisoned decoder stays poisoned.
  dec.feed(encode_frame("stat"));
  EXPECT_FALSE(dec.next(payload));
}

TEST(Frame, UppercaseHexRejected) {
  FrameDecoder dec;
  dec.feed("00000A stat too la");
  std::string payload;
  EXPECT_FALSE(dec.next(payload));
  EXPECT_TRUE(dec.error().has_value());
}

TEST(Frame, MissingSeparatorPoisons) {
  FrameDecoder dec;
  dec.feed("000004xstat");
  std::string payload;
  EXPECT_FALSE(dec.next(payload));
  EXPECT_TRUE(dec.error().has_value());
}

TEST(Frame, OversizedLengthPoisons) {
  FrameDecoder dec;
  dec.feed("ffffff ");
  std::string payload;
  EXPECT_FALSE(dec.next(payload));
  ASSERT_TRUE(dec.error().has_value());
}

TEST(Frame, PartialHeaderIsNotAnError) {
  FrameDecoder dec;
  dec.feed("0000");
  std::string payload;
  EXPECT_FALSE(dec.next(payload));
  EXPECT_FALSE(dec.error().has_value());
  dec.feed("04 stat");
  ASSERT_TRUE(dec.next(payload));
  EXPECT_EQ(payload, "stat");
}

TEST(WireDouble, ShortestFormRoundTripsBitIdentically) {
  const double cases[] = {0.0,
                          -0.0,
                          1.0,
                          30.681818181818173,
                          1.0 / 3.0,
                          std::numeric_limits<double>::min(),
                          std::numeric_limits<double>::denorm_min(),
                          std::numeric_limits<double>::max(),
                          -123456.789e-30};
  for (const double v : cases) {
    const auto back = parse_double(format_double(v));
    ASSERT_TRUE(back.has_value()) << format_double(v);
    // Bit comparison: -0.0 must stay -0.0.
    EXPECT_EQ(std::signbit(*back), std::signbit(v));
    EXPECT_EQ(*back, v);
  }
}

TEST(WireDouble, RejectsTrailingGarbage) {
  EXPECT_FALSE(parse_double("1.5x").has_value());
  EXPECT_FALSE(parse_double("").has_value());
  EXPECT_FALSE(parse_double("nanx").has_value());
}

TEST(WireU64, ParsesAndRejects) {
  EXPECT_EQ(parse_u64("1440"), std::uint64_t(1440));
  EXPECT_FALSE(parse_u64("-1").has_value());
  EXPECT_FALSE(parse_u64("12 ").has_value());
  EXPECT_FALSE(parse_u64("").has_value());
}

TEST(RequestGrammar, Hello) {
  const auto out = parse_request("hello GSRV/1");
  ASSERT_TRUE(out.request.has_value());
  EXPECT_EQ(out.request->kind, Request::Kind::Hello);
  EXPECT_EQ(out.request->hello_version, kProtocolVersion);
}

TEST(RequestGrammar, HelloWrongVersionIsBadVersion) {
  const auto out = parse_request("hello GSRV/999");
  EXPECT_FALSE(out.request.has_value());
  EXPECT_EQ(out.error, ErrorCode::BadVersion);
}

TEST(RequestGrammar, HelloNonGsrvIsBadVersion) {
  const auto out = parse_request("hello HTTP/1.1");
  EXPECT_FALSE(out.request.has_value());
  EXPECT_EQ(out.error, ErrorCode::BadVersion);
}

TEST(RequestGrammar, FeedRoundTripsThroughFormatFeed) {
  FeedEvent ev;
  ev.seq = 1439;
  ev.lambda = 30.681818181818173;
  ev.irradiance = 812.5e-3;
  ev.burst = true;
  const auto out = parse_request(format_feed(ev));
  ASSERT_TRUE(out.request.has_value());
  ASSERT_EQ(out.request->kind, Request::Kind::Feed);
  EXPECT_EQ(out.request->feed.seq, ev.seq);
  EXPECT_EQ(out.request->feed.lambda, ev.lambda);
  EXPECT_EQ(out.request->feed.irradiance, ev.irradiance);
  EXPECT_EQ(out.request->feed.burst, ev.burst);
}

TEST(RequestGrammar, FeedStreamRoundTripsThroughOneDecoder) {
  // 200k synthetic feed frames as one wire stream, read back through a
  // single FrameDecoder in 4 KiB slices (so frames straddle reads, as on a
  // socket): every frame parses, in order, with each field bit-equal to
  // the event that was formatted.
  constexpr std::uint64_t kEvents = 200000;
  const auto event = [](std::uint64_t i) {
    FeedEvent ev;
    ev.seq = i;
    ev.lambda = 30.0 + double(i % 997) * 0.0625;
    ev.irradiance = double(i % 1201) / 1200.0;  // the [0, 1] feed domain
    ev.burst = (i % 37) == 0;
    return ev;
  };
  std::string wire;
  for (std::uint64_t i = 0; i < kEvents; ++i) {
    wire += encode_frame(format_feed(event(i)));
  }

  FrameDecoder dec;
  std::string payload;
  std::uint64_t parsed = 0;
  std::uint64_t wrong = 0;
  constexpr std::size_t kSlice = 4096;
  for (std::size_t off = 0; off < wire.size(); off += kSlice) {
    dec.feed(std::string_view(wire).substr(off, kSlice));
    while (dec.next(payload)) {
      const auto out = parse_request(payload);
      const FeedEvent want = event(parsed++);
      if (!out.request || out.request->kind != Request::Kind::Feed ||
          out.request->feed.seq != want.seq ||
          std::bit_cast<std::uint64_t>(out.request->feed.lambda) !=
              std::bit_cast<std::uint64_t>(want.lambda) ||
          std::bit_cast<std::uint64_t>(out.request->feed.irradiance) !=
              std::bit_cast<std::uint64_t>(want.irradiance) ||
          out.request->feed.burst != want.burst) {
        ++wrong;
      }
    }
  }
  EXPECT_FALSE(dec.error().has_value()) << dec.error().value_or("");
  EXPECT_EQ(dec.buffered(), 0u);
  EXPECT_EQ(parsed, kEvents);
  EXPECT_EQ(wrong, 0u);
}

TEST(RequestGrammar, FeedAdversarialOperands) {
  // Wrong arity.
  EXPECT_EQ(parse_request("feed 0 1.0 2.0").error, ErrorCode::BadArgument);
  EXPECT_EQ(parse_request("feed 0 1.0 2.0 1 9").error,
            ErrorCode::BadArgument);
  // Burst must be exactly 0 or 1.
  EXPECT_EQ(parse_request("feed 0 1.0 2.0 true").error,
            ErrorCode::BadArgument);
  EXPECT_EQ(parse_request("feed 0 1.0 2.0 2").error,
            ErrorCode::BadArgument);
  // Non-numeric seq / doubles.
  EXPECT_EQ(parse_request("feed x 1.0 2.0 1").error,
            ErrorCode::BadArgument);
  EXPECT_EQ(parse_request("feed 0 l.0 2.0 1").error,
            ErrorCode::BadArgument);
  // Parsable doubles outside the epoch's domain: lambda must be finite and
  // >= 0, irradiance finite and in [0, 1].
  for (const char* bad :
       {"feed 0 nan 0.5 1", "feed 0 NaN 0.5 1", "feed 0 inf 0.5 1",
        "feed 0 -inf 0.5 1", "feed 0 infinity 0.5 1", "feed 0 -1 0.5 1",
        "feed 0 -4.9e-324 0.5 1", "feed 0 1.0 nan 0", "feed 0 1.0 inf 0",
        "feed 0 1.0 -inf 0", "feed 0 1.0 -0.25 0", "feed 0 1.0 2.0 0",
        "feed 0 1.0 1.0000000000000002 0"}) {
    const auto out = parse_request(bad);
    EXPECT_FALSE(out.request.has_value()) << bad;
    EXPECT_EQ(out.error, ErrorCode::BadArgument) << bad;
  }
  // The domain's edges still parse, negative zero included.
  for (const char* good : {"feed 0 0 0 0", "feed 0 -0 -0 0", "feed 0 -0.0 1 1",
                           "feed 0 1e300 1.0 1"}) {
    const auto out = parse_request(good);
    ASSERT_TRUE(out.request.has_value()) << good;
    EXPECT_EQ(out.request->kind, Request::Kind::Feed) << good;
  }
}

TEST(RequestGrammar, CheckpointKeepsSpacesInPath) {
  const auto out = parse_request("checkpoint /tmp/dir with space/x.ckpt");
  ASSERT_TRUE(out.request.has_value());
  EXPECT_EQ(out.request->kind, Request::Kind::Checkpoint);
  EXPECT_EQ(out.request->arg, "/tmp/dir with space/x.ckpt");
}

TEST(RequestGrammar, QueryOptionalRange) {
  const auto bare = parse_request("query grid_used");
  ASSERT_TRUE(bare.request.has_value());
  EXPECT_FALSE(bare.request->has_range);
  EXPECT_EQ(bare.request->arg, "grid_used");

  const auto ranged = parse_request("query grid_used 0 3600");
  ASSERT_TRUE(ranged.request.has_value());
  EXPECT_TRUE(ranged.request->has_range);
  EXPECT_EQ(ranged.request->lo, 0.0);
  EXPECT_EQ(ranged.request->hi, 3600.0);

  EXPECT_EQ(parse_request("query grid_used 0").error,
            ErrorCode::BadArgument);
}

TEST(RequestGrammar, BareVerbsRejectOperands) {
  EXPECT_TRUE(parse_request("stat").request.has_value());
  EXPECT_TRUE(parse_request("drain").request.has_value());
  EXPECT_TRUE(parse_request("bye").request.has_value());
  EXPECT_EQ(parse_request("stat now").error, ErrorCode::BadArgument);
  EXPECT_EQ(parse_request("drain fast").error, ErrorCode::BadArgument);
}

TEST(RequestGrammar, UnknownVerb) {
  const auto out = parse_request("reboot");
  EXPECT_FALSE(out.request.has_value());
  EXPECT_EQ(out.error, ErrorCode::UnknownCommand);
}

TEST(RequestGrammar, EmptyPayloadIsUnknown) {
  EXPECT_FALSE(parse_request("").request.has_value());
}

TEST(ErrorCodes, RoundTripAllCodes) {
  for (const ErrorCode c :
       {ErrorCode::BadFrame, ErrorCode::BadVersion, ErrorCode::NeedHello,
        ErrorCode::UnknownCommand, ErrorCode::BadArgument,
        ErrorCode::FeedGap, ErrorCode::ShuttingDown, ErrorCode::Internal}) {
    const auto back = error_code_from_string(to_string(c));
    ASSERT_TRUE(back.has_value()) << to_string(c);
    EXPECT_EQ(*back, c);
  }
  EXPECT_FALSE(error_code_from_string("no-such-code").has_value());
}

TEST(ErrorCodes, MakeErrorShape) {
  EXPECT_EQ(make_error(ErrorCode::NeedHello, "hello first"),
            "err need-hello hello first");
}

}  // namespace
}  // namespace gs::serve
