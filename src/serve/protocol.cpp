#include "serve/protocol.hpp"

#include <charconv>
#include <cmath>
#include <vector>

namespace gs::serve {

std::string protocol_id() {
  return "GSRV/" + std::to_string(kProtocolVersion);
}

const char* to_string(ErrorCode c) {
  switch (c) {
    case ErrorCode::BadFrame:
      return "bad-frame";
    case ErrorCode::BadVersion:
      return "bad-version";
    case ErrorCode::NeedHello:
      return "need-hello";
    case ErrorCode::UnknownCommand:
      return "unknown-command";
    case ErrorCode::BadArgument:
      return "bad-argument";
    case ErrorCode::FeedGap:
      return "feed-gap";
    case ErrorCode::ShuttingDown:
      return "shutting-down";
    case ErrorCode::Internal:
      return "internal";
  }
  return "?";
}

std::optional<ErrorCode> error_code_from_string(std::string_view s) {
  for (const ErrorCode c :
       {ErrorCode::BadFrame, ErrorCode::BadVersion, ErrorCode::NeedHello,
        ErrorCode::UnknownCommand, ErrorCode::BadArgument, ErrorCode::FeedGap,
        ErrorCode::ShuttingDown, ErrorCode::Internal}) {
    if (s == to_string(c)) return c;
  }
  return std::nullopt;
}

std::string make_error(ErrorCode c, std::string_view detail) {
  std::string out = "err ";
  out += to_string(c);
  if (!detail.empty()) {
    out += ' ';
    out += detail;
  }
  return out;
}

std::string encode_frame(std::string_view payload) {
  static constexpr char kHex[] = "0123456789abcdef";
  const std::size_t n = payload.size();
  std::string out;
  out.reserve(kFrameHeaderBytes + n);
  for (int shift = 20; shift >= 0; shift -= 4) {
    out += kHex[(n >> shift) & 0xf];
  }
  out += ' ';
  out += payload;
  return out;
}

void FrameDecoder::feed(std::string_view bytes) {
  if (error_) return;
  // Compact the consumed prefix before growing; keeps the buffer bounded
  // by one frame plus whatever the socket read brought in.
  if (pos_ > 0 && pos_ == buf_.size()) {
    buf_.clear();
    pos_ = 0;
  } else if (pos_ > kMaxFrameBytes) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  buf_.append(bytes);
}

bool FrameDecoder::next(std::string& payload) {
  if (error_) return false;
  if (buf_.size() - pos_ < kFrameHeaderBytes) return false;
  std::size_t len = 0;
  for (std::size_t i = 0; i < 6; ++i) {
    const char c = buf_[pos_ + i];
    std::size_t digit = 0;
    if (c >= '0' && c <= '9') {
      digit = std::size_t(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = std::size_t(c - 'a') + 10;
    } else {
      error_ = "frame header is not six hex digits";
      return false;
    }
    len = (len << 4) | digit;
  }
  if (buf_[pos_ + 6] != ' ') {
    error_ = "frame header missing length/payload separator";
    return false;
  }
  if (len > kMaxFrameBytes) {
    error_ = "frame payload of " + std::to_string(len) +
             " bytes exceeds the " + std::to_string(kMaxFrameBytes) +
             "-byte ceiling";
    return false;
  }
  if (buf_.size() - pos_ - kFrameHeaderBytes < len) return false;
  payload.assign(buf_, pos_ + kFrameHeaderBytes, len);
  pos_ += kFrameHeaderBytes + len;
  return true;
}

std::string format_double(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::optional<double> parse_double(std::string_view s) {
  double v = 0.0;
  const auto res = std::from_chars(s.data(), s.data() + s.size(), v);
  if (res.ec != std::errc() || res.ptr != s.data() + s.size()) {
    return std::nullopt;
  }
  return v;
}

std::optional<std::uint64_t> parse_u64(std::string_view s) {
  std::uint64_t v = 0;
  const auto res = std::from_chars(s.data(), s.data() + s.size(), v);
  if (res.ec != std::errc() || res.ptr != s.data() + s.size()) {
    return std::nullopt;
  }
  return v;
}

std::string format_feed(const FeedEvent& ev) {
  std::string out = "feed ";
  out += std::to_string(ev.seq);
  out += ' ';
  out += format_double(ev.lambda);
  out += ' ';
  out += format_double(ev.irradiance);
  out += ev.burst ? " 1" : " 0";
  return out;
}

namespace {

/// Split on single spaces; empty tokens (doubled spaces) are themselves
/// a grammar violation surfaced by the per-verb arity checks.
std::vector<std::string_view> tokenize(std::string_view payload) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  while (start <= payload.size()) {
    const std::size_t sp = payload.find(' ', start);
    if (sp == std::string_view::npos) {
      out.push_back(payload.substr(start));
      break;
    }
    out.push_back(payload.substr(start, sp - start));
    start = sp + 1;
  }
  return out;
}

ParseOutcome fail(ErrorCode c, std::string detail) {
  ParseOutcome out;
  out.error = c;
  out.detail = std::move(detail);
  return out;
}

ParseOutcome done(Request req) {
  ParseOutcome out;
  out.request = std::move(req);
  return out;
}

}  // namespace

ParseOutcome parse_request(std::string_view payload) {
  if (payload.empty()) return fail(ErrorCode::BadFrame, "empty payload");
  const auto tok = tokenize(payload);
  const std::string_view verb = tok[0];
  Request req;
  if (verb == "hello") {
    if (tok.size() != 2) return fail(ErrorCode::BadArgument, "hello GSRV/<n>");
    const std::string_view id = tok[1];
    if (id.substr(0, 5) != "GSRV/") {
      return fail(ErrorCode::BadVersion, "unknown protocol family");
    }
    const auto ver = parse_u64(id.substr(5));
    if (!ver) return fail(ErrorCode::BadVersion, "unparsable version");
    if (*ver != kProtocolVersion) {
      return fail(ErrorCode::BadVersion,
                  "daemon speaks " + protocol_id() + " only");
    }
    req.kind = Request::Kind::Hello;
    req.hello_version = std::uint32_t(*ver);
    return done(req);
  }
  if (verb == "feed") {
    if (tok.size() != 5) {
      return fail(ErrorCode::BadArgument,
                  "feed <seq> <lambda> <irradiance> <burst>");
    }
    const auto seq = parse_u64(tok[1]);
    const auto lambda = parse_double(tok[2]);
    const auto irr = parse_double(tok[3]);
    if (!seq || !lambda || !irr || (tok[4] != "0" && tok[4] != "1")) {
      return fail(ErrorCode::BadArgument, "unparsable feed operands");
    }
    // from_chars accepts nan and inf; reject values outside the epoch's
    // domain here instead of tripping a contract on the epoch thread.
    // The irradiance range is SolarArray::ac_output's.
    if (!std::isfinite(*lambda) || *lambda < 0.0) {
      return fail(ErrorCode::BadArgument,
                  "feed lambda must be finite and >= 0");
    }
    if (!std::isfinite(*irr) || *irr < 0.0 || *irr > 1.0) {
      return fail(ErrorCode::BadArgument,
                  "feed irradiance must be finite and in [0, 1]");
    }
    req.kind = Request::Kind::Feed;
    req.feed = {*seq, *lambda, *irr, tok[4] == "1"};
    return done(req);
  }
  if (verb == "strategy" || verb == "fault-inject" || verb == "checkpoint" ||
      verb == "query") {
    if (tok.size() < 2 || tok[1].empty()) {
      return fail(ErrorCode::BadArgument,
                  std::string(verb) + " needs an operand");
    }
    req.arg = std::string(tok[1]);
    if (verb == "strategy") {
      if (tok.size() != 2) return fail(ErrorCode::BadArgument, "one operand");
      req.kind = Request::Kind::Strategy;
    } else if (verb == "fault-inject") {
      if (tok.size() != 2) return fail(ErrorCode::BadArgument, "one operand");
      req.kind = Request::Kind::FaultInject;
    } else if (verb == "checkpoint") {
      // Paths may contain spaces: the operand is the payload remainder.
      req.arg = std::string(payload.substr(payload.find(' ') + 1));
      req.kind = Request::Kind::Checkpoint;
    } else {
      req.kind = Request::Kind::Query;
      if (tok.size() == 4) {
        const auto lo = parse_double(tok[2]);
        const auto hi = parse_double(tok[3]);
        if (!lo || !hi) {
          return fail(ErrorCode::BadArgument, "unparsable query range");
        }
        req.lo = *lo;
        req.hi = *hi;
        req.has_range = true;
      } else if (tok.size() != 2) {
        return fail(ErrorCode::BadArgument, "query <metric> [<lo> <hi>]");
      }
    }
    return done(req);
  }
  if (verb == "stat" || verb == "drain" || verb == "bye") {
    if (tok.size() != 1) {
      return fail(ErrorCode::BadArgument,
                  std::string(verb) + " takes no operands");
    }
    req.kind = verb == "stat"    ? Request::Kind::Stat
               : verb == "drain" ? Request::Kind::Drain
                                 : Request::Kind::Bye;
    return done(req);
  }
  return fail(ErrorCode::UnknownCommand, std::string(verb));
}

}  // namespace gs::serve
