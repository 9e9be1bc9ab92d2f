// Small typed option parser shared by examples and benches.
//
// Accepts "--key=value", "--key value", and bare "--flag" (bool true).
// Unknown keys are an error by default so typos in experiment scripts fail
// loudly instead of silently running the wrong configuration.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace cagvt {

class Options {
 public:
  /// Parse argv (argv[0] skipped). Throws std::invalid_argument on
  /// malformed input. Positional arguments are collected separately.
  static Options parse(int argc, const char* const* argv);

  /// Parse "key=value,key=value" strings (used for nested specs).
  static Options parse_kv(std::string_view text);

  bool has(std::string_view key) const;

  std::string get_string(std::string_view key, std::string default_value) const;
  std::int64_t get_int(std::string_view key, std::int64_t default_value) const;
  double get_double(std::string_view key, double default_value) const;
  bool get_bool(std::string_view key, bool default_value) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// Keys that were present but never read via a get_* call; callers use
  /// this to reject typos after they have pulled all known options.
  std::vector<std::string> unused_keys() const;

 private:
  std::map<std::string, std::string, std::less<>> values_;
  std::vector<std::string> positional_;
  mutable std::map<std::string, bool, std::less<>> touched_;

  void note_touched(std::string_view key) const;
};

}  // namespace cagvt
