// gs_fsck: offline verifier for every durability artifact GreenSprint
// writes. Point it at checkpoint / sweep / tsdb directories after a crash
// (or a chaos-lane run) and it reports, per artifact, whether recovery
// will sail through, absorb it automatically, or lose data:
//
//   ok           the artifact validates byte-for-byte
//   salvageable  damaged, but the recovery path handles it without data
//                loss (torn final WAL segment, corrupt rotation generation
//                with an intact sibling, stale lease, orphan .tmp file,
//                corrupt sweep cell — recomputed from the manifest, torn
//                series-catalog tail)
//   corrupt      recovery cannot reconstruct this artifact's contents
//
// Recognized artifacts (by filename, recursively):
//   *.gNNNNNN.gsck   rotation generations     *.gsck.current  pointers
//   cell-NNNNNN.gsck sweep cells              *.gsck          snapshots
//   wal-NNNNNN.gswal WAL segments             series.gscat    catalogs
//   *.gspage         sealed pages             *.lease         leases
//   *.tmp-* / *.stale.*  orphaned temporaries (always salvageable)
//
// Usage: gs_fsck DIR... [--json]
// Exit:  0 nothing corrupt, 1 at least one corrupt artifact, 2 usage.
#include <signal.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "ckpt/rotation.hpp"
#include "ckpt/snapshot.hpp"
#include "tsdb/engine.hpp"
#include "tsdb/error.hpp"
#include "tsdb/store.hpp"
#include "tsdb/wal.hpp"

namespace {

namespace fs = std::filesystem;
using namespace gs;

enum class Verdict { Ok, Salvageable, Corrupt };

const char* to_string(Verdict v) {
  switch (v) {
    case Verdict::Ok: return "ok";
    case Verdict::Salvageable: return "salvageable";
    case Verdict::Corrupt: return "corrupt";
  }
  return "?";
}

struct Finding {
  std::string path;
  std::string kind;
  Verdict verdict = Verdict::Ok;
  std::string detail;
};

/// True when `name` is digits only.
bool all_digits(std::string_view s) {
  return !s.empty() &&
         s.find_first_not_of("0123456789") == std::string_view::npos;
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

/// "gsd.g000041.gsck" -> base "gsd.gsck" (any extension, e.g.
/// "sweep.g000001.manifest" -> "sweep.manifest"); nullopt otherwise.
std::optional<fs::path> generation_base(const fs::path& p) {
  const std::string ext = p.extension().string();
  const std::string stem = p.stem().string();
  const auto dot_g = stem.rfind(".g");
  if (dot_g == std::string::npos || ext.empty()) return std::nullopt;
  if (!all_digits(std::string_view(stem).substr(dot_g + 2))) {
    return std::nullopt;
  }
  return p.parent_path() / (stem.substr(0, dot_g) + ext);
}

bool is_sweep_cell(const fs::path& p) {
  const std::string name = p.filename().string();
  return name.rfind("cell-", 0) == 0 && ends_with(name, ".gsck") &&
         all_digits(std::string_view(name).substr(5, name.size() - 10));
}

/// Any sibling generation of `base` that validates (the rotation scan's
/// definition of recoverable).
bool has_intact_sibling_generation(const fs::path& base,
                                   const fs::path& damaged) {
  for (const auto& [gen, path] : ckpt::RotatingSnapshot::list_generations(
           base)) {
    if (path == damaged) continue;
    try {
      (void)ckpt::read_snapshot_file(path);
      return true;
    } catch (const ckpt::SnapshotError&) {
    }
  }
  return false;
}

Finding check_snapshot(const fs::path& p) {
  Finding f;
  f.path = p.string();
  const auto base = generation_base(p);
  const bool is_manifest =
      (base ? base->filename().string() : p.filename().string()) ==
      "sweep.manifest";
  f.kind = is_manifest ? "sweep-manifest"
           : base      ? "rotation-generation"
           : is_sweep_cell(p) ? "sweep-cell"
                              : "snapshot";
  try {
    (void)ckpt::read_snapshot_file(p);
    return f;
  } catch (const ckpt::SnapshotError& e) {
    f.detail = e.what();
  }
  if (base && has_intact_sibling_generation(*base, p)) {
    f.verdict = Verdict::Salvageable;
    f.detail += "; an intact sibling generation survives";
  } else if (is_manifest) {
    // The manifest is campaign-deterministic: ensure_manifest rewrites a
    // damaged one from the campaign definition.
    f.verdict = Verdict::Salvageable;
    f.detail += "; rewritten from the campaign definition on resume";
  } else if (is_sweep_cell(p)) {
    // A damaged cell is recomputed from the manifest on resume.
    f.verdict = Verdict::Salvageable;
    f.detail += "; resume recomputes this cell";
  } else {
    f.verdict = Verdict::Corrupt;
  }
  return f;
}

Finding check_pointer(const fs::path& p) {
  Finding f;
  f.path = p.string();
  f.kind = "rotation-pointer";
  const std::string name = p.filename().string();
  const fs::path base =
      p.parent_path() / name.substr(0, name.size() - std::strlen(".current"));
  const auto gen = ckpt::RotatingSnapshot::read_pointer(base);
  if (!gen) {
    // The last-known-good scan never trusts the pointer, so a damaged one
    // costs a directory scan, nothing more.
    f.verdict = Verdict::Salvageable;
    f.detail = "pointer fails validation; generation scan recovers";
    return f;
  }
  if (!fs::exists(ckpt::RotatingSnapshot::generation_path(base, *gen))) {
    f.verdict = Verdict::Salvageable;
    f.detail = "pointer names a missing generation; scan recovers";
  }
  return f;
}

/// WAL segments are checked as a set: a torn tail is survivable only in
/// the final (highest-numbered) segment of its directory.
void check_wal_dir(const fs::path& dir, const std::vector<fs::path>& segs,
                   std::vector<Finding>& out) {
  std::vector<fs::path> sorted = segs;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    Finding f;
    f.path = sorted[i].string();
    f.kind = "wal-segment";
    tsdb::WalSegmentCheck check;
    try {
      check = tsdb::check_wal_segment(sorted[i]);
    } catch (const std::exception& e) {
      f.verdict = Verdict::Corrupt;
      f.detail = e.what();
      out.push_back(std::move(f));
      continue;
    }
    switch (check.verdict) {
      case tsdb::WalSegmentCheck::Verdict::Ok:
        break;
      case tsdb::WalSegmentCheck::Verdict::TornTail:
        if (i + 1 == sorted.size()) {
          f.verdict = Verdict::Salvageable;
          f.detail = check.detail + "; replay repairs the final segment";
        } else {
          f.verdict = Verdict::Corrupt;
          f.detail = check.detail + "; torn tail in a non-final segment";
        }
        break;
      case tsdb::WalSegmentCheck::Verdict::Corrupt:
        f.verdict = Verdict::Corrupt;
        f.detail = check.detail;
        break;
    }
    out.push_back(std::move(f));
  }
  (void)dir;
}

Finding check_catalog(const fs::path& p) {
  Finding f;
  f.path = p.string();
  f.kind = "series-catalog";
  try {
    // The reader WAL replay uses: what it refuses, replay refuses.
    if (tsdb::read_series_catalog(p).torn_tail) {
      // Unterminated tail: the engine's replay truncates it away.
      f.verdict = Verdict::Salvageable;
      f.detail = "torn unterminated tail line; replay repairs it";
    }
  } catch (const tsdb::TsdbError& e) {
    f.verdict = Verdict::Corrupt;
    f.detail = e.what();
  }
  return f;
}

Finding check_page(const fs::path& p) {
  Finding f;
  f.path = p.string();
  f.kind = "sealed-page";
  try {
    (void)tsdb::read_page_file(p);
  } catch (const std::exception& e) {
    f.verdict = Verdict::Corrupt;
    f.detail = e.what();
  }
  return f;
}

Finding check_lease(const fs::path& p) {
  Finding f;
  f.path = p.string();
  f.kind = "lease";
  long pid = 0;
  if (std::FILE* in = std::fopen(p.c_str(), "r")) {
    if (std::fscanf(in, "%ld", &pid) != 1) pid = 0;
    std::fclose(in);
  }
  if (pid > 0 && ::kill(pid_t(pid), 0) == 0) {
    f.detail = "owner pid " + std::to_string(pid) + " is alive";
    return f;
  }
  f.verdict = Verdict::Salvageable;
  f.detail = pid > 0 ? "owner pid " + std::to_string(pid) +
                           " is gone; lease goes stale and is taken over"
                     : "unreadable owner; lease goes stale and is taken over";
  return f;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  std::vector<fs::path> roots;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "usage: %s DIR... [--json]\n", argv[0]);
      return 2;
    } else {
      roots.emplace_back(argv[i]);
    }
  }
  if (roots.empty()) {
    std::fprintf(stderr, "usage: %s DIR... [--json]\n", argv[0]);
    return 2;
  }

  std::vector<Finding> findings;
  std::map<fs::path, std::vector<fs::path>> wal_dirs;
  for (const fs::path& root : roots) {
    if (!fs::is_directory(root)) {
      std::fprintf(stderr, "gs_fsck: %s is not a directory\n",
                   root.c_str());
      return 2;
    }
    for (const auto& entry : fs::recursive_directory_iterator(root)) {
      if (!entry.is_regular_file()) continue;
      const fs::path& p = entry.path();
      const std::string name = p.filename().string();
      if (name.find(".tmp-") != std::string::npos ||
          name.find(".stale.") != std::string::npos) {
        Finding f;
        f.path = p.string();
        f.kind = "orphan-temp";
        f.verdict = Verdict::Salvageable;
        f.detail = "leftover from an interrupted write; safe to delete";
        findings.push_back(std::move(f));
      } else if (ends_with(name, ".current")) {
        findings.push_back(check_pointer(p));
      } else if (ends_with(name, ".gsck") || name == "sweep.manifest" ||
                 generation_base(p)) {
        findings.push_back(check_snapshot(p));
      } else if (ends_with(name, ".gswal")) {
        wal_dirs[p.parent_path()].push_back(p);
      } else if (name == "series.gscat") {
        findings.push_back(check_catalog(p));
      } else if (ends_with(name, ".gspage")) {
        findings.push_back(check_page(p));
      } else if (ends_with(name, ".lease")) {
        findings.push_back(check_lease(p));
      }
    }
  }
  for (const auto& [dir, segs] : wal_dirs) {
    check_wal_dir(dir, segs, findings);
  }
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) { return a.path < b.path; });

  std::size_t n_ok = 0, n_salvageable = 0, n_corrupt = 0;
  for (const Finding& f : findings) {
    switch (f.verdict) {
      case Verdict::Ok: ++n_ok; break;
      case Verdict::Salvageable: ++n_salvageable; break;
      case Verdict::Corrupt: ++n_corrupt; break;
    }
  }

  if (json) {
    std::printf("{\"artifacts\":[");
    for (std::size_t i = 0; i < findings.size(); ++i) {
      const Finding& f = findings[i];
      std::printf(
          "%s{\"path\":\"%s\",\"kind\":\"%s\",\"verdict\":\"%s\","
          "\"detail\":\"%s\"}",
          i ? "," : "", json_escape(f.path).c_str(),
          json_escape(f.kind).c_str(), to_string(f.verdict),
          json_escape(f.detail).c_str());
    }
    std::printf("],\"ok\":%zu,\"salvageable\":%zu,\"corrupt\":%zu}\n", n_ok,
                n_salvageable, n_corrupt);
  } else {
    for (const Finding& f : findings) {
      std::printf("%-11s %-19s %s%s%s\n", to_string(f.verdict),
                  f.kind.c_str(), f.path.c_str(),
                  f.detail.empty() ? "" : "  -- ", f.detail.c_str());
    }
    std::printf("gs_fsck: %zu ok, %zu salvageable, %zu corrupt\n", n_ok,
                n_salvageable, n_corrupt);
  }
  return n_corrupt == 0 ? 0 : 1;
}
