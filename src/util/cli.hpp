// Minimal command-line argument parser for the example/tool binaries:
// --key=value and --key value pairs plus boolean --flag switches, with
// typed accessors and defaults.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace opalsim::util {

class CliArgs {
 public:
  /// Parses argv.  Arguments not starting with "--" are positional.
  /// "--key=value" and "--key value" are options; a "--key" followed by
  /// another option (or nothing) is a boolean flag.
  CliArgs(int argc, const char* const* argv);

  bool has(const std::string& key) const;
  std::optional<std::string> get(const std::string& key) const;
  std::string get_or(const std::string& key, const std::string& fallback) const;
  /// Typed accessors: `fallback` when the option is absent or empty;
  /// util::ConfigError("cli", ...) when the value is not entirely a number
  /// of that type or is out of its range ("10abc", "1e3" for a long,
  /// "1e999").
  long get_long(const std::string& key, long fallback) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_flag(const std::string& key) const { return has(key); }

  const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }
  const std::string& program() const noexcept { return program_; }

  /// Keys that were provided but never queried — typo detection for tools.
  std::vector<std::string> unused() const;

 private:
  std::string program_;
  std::map<std::string, std::string> options_;
  std::vector<std::string> positional_;
  mutable std::map<std::string, bool> queried_;
};

}  // namespace opalsim::util
