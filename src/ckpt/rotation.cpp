// gs:durable-io
#include "ckpt/rotation.hpp"

#include <algorithm>
#include <cstdlib>
#include <string>

#include "ckpt/snapshot.hpp"
#include "ckpt/state_io.hpp"
#include "common/assert.hpp"

namespace gs::ckpt {
namespace {

namespace fs = std::filesystem;

/// base "dir/gsd.gsck" -> ("dir/gsd.g", ".gsck"): the pieces around the
/// zero-padded generation number.
std::pair<std::string, std::string> name_pieces(const fs::path& base) {
  const std::string stem = base.stem().string();
  const std::string ext = base.extension().string();
  return {stem + ".g", ext};
}

std::string pad6(std::uint64_t generation) {
  std::string digits = std::to_string(generation);
  while (digits.size() < 6) digits.insert(digits.begin(), '0');
  return digits;
}

}  // namespace

RotatingSnapshot::RotatingSnapshot(fs::path base, RotationOptions opts)
    : base_(std::move(base)), opts_(opts) {
  GS_REQUIRE(opts_.keep >= 1, "checkpoint rotation must keep >= 1");
  GS_REQUIRE(!base_.filename().empty(),
             "checkpoint rotation base must name a file");
}

fs::path RotatingSnapshot::generation_path(const fs::path& base,
                                           std::uint64_t generation) {
  const auto [prefix, ext] = name_pieces(base);
  fs::path p = base.parent_path();
  p /= prefix + pad6(generation) + ext;
  return p;
}

fs::path RotatingSnapshot::pointer_path(const fs::path& base) {
  return fs::path(base.string() + ".current");
}

std::vector<std::pair<std::uint64_t, fs::path>>
RotatingSnapshot::list_generations(const fs::path& base) {
  std::vector<std::pair<std::uint64_t, fs::path>> out;
  fs::path dir = base.parent_path();
  if (dir.empty()) dir = ".";
  if (!fs::is_directory(dir)) return out;
  const auto [prefix, ext] = name_pieces(base);
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.size() <= prefix.size() + ext.size()) continue;
    if (name.rfind(prefix, 0) != 0) continue;
    if (name.substr(name.size() - ext.size()) != ext) continue;
    const std::string digits =
        name.substr(prefix.size(), name.size() - prefix.size() - ext.size());
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    out.emplace_back(std::strtoull(digits.c_str(), nullptr, 10),
                     entry.path());
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::optional<std::uint64_t> RotatingSnapshot::read_pointer(
    const fs::path& base) {
  try {
    // StateReader views its argument; keep the payload alive beside it.
    const std::string payload = read_snapshot_file(pointer_path(base));
    StateReader r(payload);
    r.begin_section("ckpt_rotation", kRotationPointerVersion);
    const std::uint64_t generation = r.u64();
    (void)r.u32();  // keep-K at write time; informational
    r.end_section();
    return generation;
  } catch (const SnapshotError&) {
    return std::nullopt;
  }
}

bool RotatingSnapshot::exists(const fs::path& base) {
  return fs::exists(pointer_path(base)) || !list_generations(base).empty();
}

std::uint64_t RotatingSnapshot::write(std::string_view payload) {
  std::uint64_t next = 1;
  const auto generations = list_generations(base_);
  if (!generations.empty()) {
    next = std::max(next, generations.back().first + 1);
  }
  if (const auto pointed = read_pointer(base_)) {
    next = std::max(next, *pointed + 1);
  }
  write_snapshot_file(generation_path(base_, next), payload,
                      opts_.durability);

  StateWriter w;
  w.begin_section("ckpt_rotation", kRotationPointerVersion);
  w.u64(next);
  w.u32(opts_.keep);
  w.end_section();
  write_snapshot_file(pointer_path(base_), w.buffer(), opts_.durability);

  // Prune beyond keep-K. Best-effort: a surviving extra generation is
  // only disk space, and the chaos lane deliberately crashes in here.
  for (const auto& [generation, path] : generations) {
    if (generation + opts_.keep > next) continue;
    std::error_code ec;
    fs::remove(path, ec);
  }
  return next;
}

std::optional<RotatedLoad> RotatingSnapshot::load_last_known_good() const {
  auto generations = list_generations(base_);
  std::reverse(generations.begin(), generations.end());

  RotatedLoad out;
  // Existence first: a first writer may publish the pointer between a
  // failed read and an existence check, and a pointer that was merely
  // missing must not read as one that failed validation.
  std::optional<std::uint64_t> pointed;
  if (fs::exists(pointer_path(base_))) {
    pointed = read_pointer(base_);
    if (!pointed) {
      out.notes.push_back("generation pointer " +
                          pointer_path(base_).string() +
                          " failed validation; scanning generations");
    }
  }
  for (const auto& [generation, path] : generations) {
    try {
      out.payload = read_snapshot_file(path);
      out.generation = generation;
      if (pointed && *pointed != generation) {
        out.notes.push_back("generation pointer names " +
                            std::to_string(*pointed) +
                            " but newest intact generation is " +
                            std::to_string(generation));
      }
      return out;
    } catch (const SnapshotError& e) {
      out.fell_back = true;
      out.notes.push_back("checkpoint generation " +
                          std::to_string(generation) + " (" + path.string() +
                          ") failed validation: " + e.what());
    }
  }
  return std::nullopt;
}

}  // namespace gs::ckpt
