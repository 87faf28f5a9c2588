// Pluggable storage strategies behind the Engine facade (the dariadb
// engine-strategy pattern): one enum selects how sealed history is held.
//
//   MEMORY      everything resident; fastest ingest/query, no durability.
//   WAL         resident chunks plus an append-only write-ahead log; a new
//               Engine over the same directory replays the log, so a killed
//               campaign loses at most the unflushed tail of one record.
//   COMPRESSED  sealed chunks spill to checksummed on-disk pages and are
//               evicted from memory; queries read pages back on demand.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

namespace gs::tsdb {

enum class Strategy : std::uint8_t {
  MEMORY,
  WAL,
  COMPRESSED,
};

inline constexpr std::uint8_t kNumStrategies = 3;

[[nodiscard]] const char* to_string(Strategy s);

/// Parse a (case-insensitive) strategy name; throws TsdbError on anything
/// that is not MEMORY / WAL / COMPRESSED.
[[nodiscard]] Strategy strategy_from_string(std::string_view token);

/// Stream codec, so strategies round-trip through CLI flags and config
/// text: `in >> strategy` consumes one token and throws TsdbError on a bad
/// name; `out << strategy` writes the canonical upper-case spelling.
std::istream& operator>>(std::istream& in, Strategy& s);
std::ostream& operator<<(std::ostream& out, const Strategy& s);

}  // namespace gs::tsdb
