// Minimal command-line option parser for the examples and tools:
// supports --key=value, --key value, and bare --flag forms, with typed
// accessors and defaults. Unknown keys are collected so a tool can reject
// typos explicitly.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/assert.hpp"

namespace gs {

class CliArgs {
 public:
  CliArgs(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& key) const;

  /// Value of --key; nullopt when absent or given as a bare flag.
  [[nodiscard]] std::optional<std::string> value(const std::string& key) const;

  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const;
  [[nodiscard]] double get(const std::string& key, double fallback) const;
  [[nodiscard]] int get(const std::string& key, int fallback) const;
  [[nodiscard]] bool flag(const std::string& key) const { return has(key); }

  /// Non-option (positional) arguments, in order.
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }
  /// All parsed option keys (to detect unknown options).
  [[nodiscard]] std::vector<std::string> keys() const;

 private:
  std::map<std::string, std::optional<std::string>> options_;
  std::vector<std::string> positional_;
};

inline CliArgs::CliArgs(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    GS_REQUIRE(!body.empty(), "empty option name");
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      options_[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      options_[body] = std::string(argv[++i]);
    } else {
      options_[body] = std::nullopt;  // bare flag
    }
  }
}

inline bool CliArgs::has(const std::string& key) const {
  return options_.count(key) > 0;
}

inline std::optional<std::string> CliArgs::value(
    const std::string& key) const {
  const auto it = options_.find(key);
  return it == options_.end() ? std::nullopt : it->second;
}

inline std::string CliArgs::get(const std::string& key,
                                const std::string& fallback) const {
  const auto v = value(key);
  return v ? *v : fallback;
}

inline double CliArgs::get(const std::string& key, double fallback) const {
  const auto v = value(key);
  if (!v) return fallback;
  std::size_t used = 0;
  try {
    const double d = std::stod(*v, &used);
    if (used == v->size()) return d;
  } catch (...) {
  }
  GS_REQUIRE(false, "option --" + key + " expects a number, got '" + *v + "'");
  return fallback;
}

inline int CliArgs::get(const std::string& key, int fallback) const {
  const auto v = value(key);
  if (!v) return fallback;
  std::size_t used = 0;
  try {
    const int i = std::stoi(*v, &used);
    if (used == v->size()) return i;
  } catch (...) {
  }
  GS_REQUIRE(false,
             "option --" + key + " expects an integer, got '" + *v + "'");
  return fallback;
}

inline std::vector<std::string> CliArgs::keys() const {
  std::vector<std::string> out;
  out.reserve(options_.size());
  for (const auto& [k, v] : options_) out.push_back(k);
  return out;
}

}  // namespace gs
