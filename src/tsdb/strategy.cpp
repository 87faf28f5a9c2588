#include "tsdb/strategy.hpp"

#include <array>
#include <cctype>
#include <istream>
#include <ostream>

#include "tsdb/error.hpp"

namespace gs::tsdb {
namespace {

constexpr std::array<const char*, kNumStrategies> kNames = {
    "MEMORY",
    "WAL",
    "COMPRESSED",
};
static_assert(std::size_t(Strategy::MEMORY) == 0);
static_assert(std::size_t(Strategy::WAL) == 1);
static_assert(std::size_t(Strategy::COMPRESSED) == 2);

}  // namespace

const char* to_string(Strategy s) {
  const auto idx = std::size_t(s);
  if (idx >= kNames.size()) {
    throw TsdbError("tsdb: bad strategy value " + std::to_string(idx));
  }
  return kNames[idx];
}

Strategy strategy_from_string(std::string_view token) {
  std::string upper(token);
  for (char& c : upper) c = char(std::toupper(static_cast<unsigned char>(c)));
  for (std::size_t i = 0; i < kNames.size(); ++i) {
    if (upper == kNames[i]) return Strategy(i);
  }
  throw TsdbError("tsdb: bad strategy name \"" + std::string(token) + "\"");
}

std::istream& operator>>(std::istream& in, Strategy& s) {
  std::string token;
  in >> token;
  s = strategy_from_string(token);
  return in;
}

std::ostream& operator<<(std::ostream& out, const Strategy& s) {
  return out << to_string(s);
}

}  // namespace gs::tsdb
