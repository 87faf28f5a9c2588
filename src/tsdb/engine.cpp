// gs:durable-io
#include "tsdb/engine.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <fstream>
#include <sstream>

#include "ckpt/state_io.hpp"
#include "common/assert.hpp"
#include "common/io.hpp"
#include "tsdb/error.hpp"

// WAL header magic and version checks live in wal.cpp's replay_wal; this
// file only consumes the decoded records.
// gs-lint: allow(tsdb-chunk-version)

namespace gs::tsdb {
namespace {

// Append-only sidecar mapping SeriesId -> (rack, server, metric) for WAL
// recovery: log records carry only the dense id, the catalog restores the
// identity. One line per series, tab-separated, appended and flushed at
// intern time; replay truncates a torn final line (kill mid-intern) exactly
// like the WAL repairs a torn final record.
constexpr const char* kCatalogFile = "series.gscat";

/// Failpoint site on the catalog's append-and-fsync path.
constexpr const char* kFailpointCatalogAppend = "tsdb.catalog.append";

std::uint32_t parse_catalog_u32(std::string_view field,
                                const std::string& origin) {
  std::uint32_t v = 0;
  const auto [ptr, ec] =
      std::from_chars(field.data(), field.data() + field.size(), v);
  if (ec != std::errc{} || ptr != field.data() + field.size()) {
    throw TsdbError("malformed series catalog field in " + origin);
  }
  return v;
}

}  // namespace

SeriesCatalog read_series_catalog(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw TsdbError("cannot open series catalog " + path.string());
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string blob = std::move(ss).str();
  const std::string origin = path.string();
  SeriesCatalog out;
  std::map<CatalogIdent, SeriesId> ids;
  std::size_t at = 0;
  while (true) {
    const std::size_t nl = blob.find('\n', at);
    if (nl == std::string::npos) break;  // torn tail: kill mid-intern
    const std::string_view line(blob.data() + at, nl - at);
    at = nl + 1;
    const std::size_t a = line.find('\t');
    const std::size_t b = a == std::string_view::npos
                              ? std::string_view::npos
                              : line.find('\t', a + 1);
    const std::size_t c = b == std::string_view::npos
                              ? std::string_view::npos
                              : line.find('\t', b + 1);
    if (c == std::string_view::npos || c + 1 >= line.size()) {
      throw TsdbError("malformed series catalog line in " + origin);
    }
    const std::uint32_t id = parse_catalog_u32(line.substr(0, a), origin);
    const std::uint32_t rack =
        parse_catalog_u32(line.substr(a + 1, b - a - 1), origin);
    const std::uint32_t server =
        parse_catalog_u32(line.substr(b + 1, c - b - 1), origin);
    const std::string_view metric = line.substr(c + 1);
    CatalogIdent ident{std::string(metric), rack, server};
    if (id < out.entries.size()) {
      // A crash-resumed writer that restored a snapshot older than the
      // catalog used to re-append registrations it had forgotten. Such a
      // line exactly restates an existing entry and is harmless; anything
      // else claiming a used id is corruption.
      const auto prior = ids.find(ident);
      if (prior != ids.end() && prior->second == id) continue;
      throw TsdbError("series catalog conflict in " + origin + ": id " +
                      std::to_string(id) +
                      " re-registered with a different identity");
    }
    if (id != out.entries.size()) {
      throw TsdbError("series catalog out of order in " + origin +
                      ": line claims id " + std::to_string(id) +
                      ", expected " + std::to_string(out.entries.size()));
    }
    ids.emplace(ident, SeriesId(id));
    out.entries.push_back(std::move(ident));
  }
  out.complete_bytes = at;
  out.torn_tail = at < blob.size();
  return out;
}

Cursor::Cursor(std::vector<Part> parts, Timestamp lo, Timestamp hi)
    : parts_(std::move(parts)), lo_(lo), hi_(hi) {}

bool Cursor::next(CursorRow& out) {
  while (part_ < parts_.size()) {
    if (!chunk_) chunk_.emplace(parts_[part_].chunk);
    Sample s;
    while (chunk_->next(s)) {
      if (s.time > hi_) break;  // in-chunk order: the rest is later still
      if (s.time < lo_) continue;
      out.key = parts_[part_].key;
      out.sample = s;
      return true;
    }
    chunk_.reset();
    ++part_;
  }
  return false;
}

std::uint64_t Cursor::chunk_samples() const {
  std::uint64_t total = 0;
  for (std::size_t i = part_; i < parts_.size(); ++i) {
    total += parts_[i].chunk->count();
  }
  return total;
}

Engine::Engine(EngineOptions opts) : opts_(std::move(opts)) {
  GS_REQUIRE(opts_.chunk_capacity >= 2,
             "tsdb chunk capacity must hold at least two samples");
  const bool needs_dir = opts_.strategy != Strategy::MEMORY;
  GS_REQUIRE(!needs_dir || !opts_.dir.empty(),
             std::string("tsdb strategy ") + to_string(opts_.strategy) +
                 " needs a storage directory");
  if (needs_dir) std::filesystem::create_directories(opts_.dir);
  MutexLock lock(mu_);
  if (opts_.strategy == Strategy::WAL) {
    replay_existing();
    wal_.emplace(opts_.dir, opts_.wal_segment_bytes);
  }
}

void Engine::replay_existing() {
  const std::filesystem::path cat = opts_.dir / kCatalogFile;
  if (std::filesystem::exists(cat)) {
    const SeriesCatalog catalog = read_series_catalog(cat);
    for (const CatalogIdent& ident : catalog.entries) {
      const auto& [metric, rack, server] = ident;
      const auto id = SeriesId(series_.size());
      const SeriesKey key{metrics_.intern(metric), rack, server};
      index_.emplace(key, id);
      catalog_ids_.emplace(ident, id);
      series_.emplace_back(key, id);
    }
    // A torn final line (kill mid-intern) must be truncated away while it
    // is still final: the next registration appends right after it, and a
    // fragment glued to a fresh line would read as garbage on the replay
    // after the *next* kill.
    if (catalog.torn_tail) {
      std::filesystem::resize_file(cat, catalog.complete_bytes);
    }
  }
  // Repair a torn final segment while it is still final: the writer this
  // engine is about to open would otherwise bury the tear mid-log and
  // poison the replay after the *next* kill.
  const std::vector<WalRecord> records =
      replay_wal(opts_.dir, /*repair_torn_tail=*/true);
  for (const WalRecord& rec : records) {
    if (rec.series >= series_.size()) {
      throw TsdbError("wal record references unknown series " +
                      std::to_string(rec.series) + " in " +
                      opts_.dir.string());
    }
    SeriesStore& store = series_[rec.series];
    store.append(rec.time, std::bit_cast<double>(rec.value_bits));
    ++appends_;
    seal_if_full(store);
  }
  replayed_records_ = records.size();
}

SeriesId Engine::series(std::string_view metric, std::uint32_t rack,
                        std::uint32_t server) {
  GS_REQUIRE(metric.find_first_of("\t\n") == std::string_view::npos,
             "metric names must not contain tabs or newlines");
  MutexLock lock(mu_);
  const SeriesKey probe{metrics_.find(metric), rack, server};
  if (probe.metric_id != NameDict::kNotFound) {
    const auto it = index_.find(probe);
    if (it != index_.end()) return it->second;
  }
  const SeriesKey key{metrics_.intern(metric), rack, server};
  const auto id = SeriesId(series_.size());
  if (opts_.strategy == Strategy::WAL) {
    const std::filesystem::path cat = opts_.dir / kCatalogFile;
    const auto ident = std::make_tuple(std::string(metric), rack, server);
    const auto durable = catalog_ids_.find(ident);
    if (durable != catalog_ids_.end()) {
      // Already on disk: this process restored a snapshot older than the
      // catalog (load_state rewinds the series table, the append-only file
      // cannot rewind) and is now re-registering. The rewound assignment
      // must land on the recorded id, or samples keyed by id would be
      // misattributed.
      if (durable->second != id) {
        throw TsdbError("series catalog " + cat.string() + " assigns id " +
                        std::to_string(durable->second) +
                        " to this series, but post-restore registration "
                        "order would assign id " + std::to_string(id));
      }
    } else {
      try {
        io::AppendFile out;
        out.open_append(cat, kFailpointCatalogAppend);
        std::ostringstream line;
        line << id << '\t' << rack << '\t' << server << '\t' << metric
             << '\n';
        out.append(std::move(line).str());
        out.flush(io::Durability::Full);
        out.close();
      } catch (const io::IoError& e) {
        throw TsdbError(std::string("series catalog append to ") +
                        cat.string() + " failed: " + e.what());
      }
      catalog_ids_.emplace(ident, id);
    }
  }
  index_.emplace(key, id);
  series_.emplace_back(key, id);
  return id;
}

std::optional<SeriesId> Engine::find_series(std::string_view metric,
                                            std::uint32_t rack,
                                            std::uint32_t server) const {
  MutexLock lock(mu_);
  const std::uint32_t metric_id = metrics_.find(metric);
  if (metric_id == NameDict::kNotFound) return std::nullopt;
  const auto it = index_.find(SeriesKey{metric_id, rack, server});
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

void Engine::append_at(SeriesId id, Timestamp t, double value) {
  MutexLock lock(mu_);
  GS_REQUIRE(id < series_.size(), "append to unknown tsdb series");
  SeriesStore& store = series_[id];
  store.append(t, value);
  if (wal_) {
    wal_->append(WalRecord{id, t, std::bit_cast<std::uint64_t>(value)});
  }
  ++appends_;
  seal_if_full(store);
}

void Engine::seal_if_full(SeriesStore& store) {
  if (store.open_count() < opts_.chunk_capacity) return;
  if (opts_.strategy == Strategy::COMPRESSED) {
    store.seal_spilled(opts_.dir);
  } else {
    store.seal_resident();
  }
}

PageLoader Engine::loader() {
  const std::filesystem::path dir = opts_.dir;
  auto* reads = &page_reads_;
  return [dir, reads](const ChunkRef& ref) {
    ++*reads;  // called inside collect(), under the engine mutex
    return std::make_shared<const SealedChunk>(read_page_file(dir / ref.file));
  };
}

Cursor Engine::query(std::string_view metric, std::uint32_t rack,
                     Timestamp lo, Timestamp hi,
                     std::optional<std::uint32_t> server) {
  std::vector<Cursor::Part> parts;
  MutexLock lock(mu_);
  const std::uint32_t metric_id = metrics_.find(metric);
  if (metric_id == NameDict::kNotFound) {
    return Cursor(std::move(parts), lo, hi);
  }
  // Rows come out grouped by server, so order the matching series by
  // (server_id, creation index) before collecting.
  std::vector<std::pair<std::uint64_t, std::size_t>> match;
  for (std::size_t i = 0; i < series_.size(); ++i) {
    const SeriesKey& key = series_[i].key();
    if (key.metric_id != metric_id || key.rack_id != rack) continue;
    if (server && key.server_id != *server) continue;
    match.emplace_back((std::uint64_t(key.server_id) << 32) | std::uint64_t(i),
                       i);
  }
  std::sort(match.begin(), match.end());
  const PageLoader load = loader();
  std::vector<std::shared_ptr<const SealedChunk>> chunks;
  for (const auto& m : match) {
    const std::size_t i = m.second;
    chunks.clear();
    series_[i].collect(lo, hi, load, chunks);
    for (auto& chunk : chunks) {
      parts.push_back(Cursor::Part{series_[i].key(), std::move(chunk)});
    }
  }
  return Cursor(std::move(parts), lo, hi);
}

void Engine::seal_all() {
  MutexLock lock(mu_);
  for (SeriesStore& store : series_) {
    if (store.open_count() == 0) continue;
    if (opts_.strategy == Strategy::COMPRESSED) {
      store.seal_spilled(opts_.dir);
    } else {
      store.seal_resident();
    }
  }
}

void Engine::flush() {
  MutexLock lock(mu_);
  if (wal_) wal_->flush();
}

std::vector<SeriesInfo> Engine::list_series() const {
  MutexLock lock(mu_);
  std::vector<SeriesInfo> out;
  out.reserve(series_.size());
  for (const SeriesStore& store : series_) {
    SeriesInfo info;
    info.id = store.id();
    info.metric = metrics_.name(store.key().metric_id);
    info.rack = store.key().rack_id;
    info.server = store.key().server_id;
    info.samples = store.total_count();
    out.push_back(std::move(info));
  }
  return out;
}

EngineStats Engine::stats() const {
  MutexLock lock(mu_);
  EngineStats s;
  s.appends = appends_;
  s.series = series_.size();
  for (const SeriesStore& store : series_) {
    s.open_samples += store.open_count();
    for (const ChunkRef& ref : store.sealed()) {
      if (ref.spilled()) {
        ++s.spilled_chunks;
      } else {
        ++s.resident_chunks;
      }
    }
  }
  s.wal_records = replayed_records_ + (wal_ ? wal_->records() : 0);
  s.page_reads = page_reads_;
  return s;
}

void Engine::save_state(ckpt::StateWriter& w) const {
  MutexLock lock(mu_);
  w.begin_section("tsdb_engine", kStateVersion);
  w.u8(std::uint8_t(opts_.strategy));
  w.u64(opts_.chunk_capacity);
  metrics_.save_state(w);
  w.u64(series_.size());
  for (const SeriesStore& store : series_) store.save_state(w);
  w.u64(appends_);
  w.end_section();
}

void Engine::load_state(ckpt::StateReader& r) {
  MutexLock lock(mu_);
  r.begin_section("tsdb_engine", kStateVersion);
  const auto strategy_raw = r.u8();
  if (strategy_raw >= kNumStrategies) {
    throw TsdbError("engine snapshot holds unknown strategy code " +
                    std::to_string(strategy_raw));
  }
  const auto strategy = Strategy(strategy_raw);
  if (strategy != opts_.strategy) {
    throw TsdbError(std::string("engine snapshot was written under ") +
                    to_string(strategy) + ", this engine runs " +
                    to_string(opts_.strategy));
  }
  const std::uint64_t capacity = r.u64();
  if (capacity != opts_.chunk_capacity) {
    throw TsdbError("engine snapshot chunk capacity " +
                    std::to_string(capacity) + " does not match options " +
                    std::to_string(opts_.chunk_capacity));
  }
  metrics_.load_state(r);
  series_.clear();
  index_.clear();
  // catalog_ids_ deliberately survives: it mirrors the append-only catalog
  // file, which a snapshot restore cannot un-write. Series registered
  // after the snapshot re-register through it on replay without appending
  // duplicate lines.
  const auto n = std::size_t(r.u64());
  series_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    SeriesStore store;
    store.load_state(r, opts_.dir);
    if (store.id() != i) {
      throw TsdbError("engine snapshot series table out of order at entry " +
                      std::to_string(i));
    }
    index_.emplace(store.key(), store.id());
    series_.push_back(std::move(store));
  }
  appends_ = r.u64();
  r.end_section();
}

}  // namespace gs::tsdb
