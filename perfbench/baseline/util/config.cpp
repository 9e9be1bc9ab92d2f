#include "util/config.hpp"

#include <charconv>
#include <stdexcept>

namespace cagvt {
namespace {

std::string to_string(std::string_view sv) { return std::string(sv); }

bool parse_bool(std::string_view v) {
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  throw std::invalid_argument("invalid boolean value: " + to_string(v));
}

}  // namespace

Options Options::parse(int argc, const char* const* argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (!arg.starts_with("--")) {
      opts.positional_.push_back(to_string(arg));
      continue;
    }
    arg.remove_prefix(2);
    if (const auto eq = arg.find('='); eq != std::string_view::npos) {
      opts.values_[to_string(arg.substr(0, eq))] = to_string(arg.substr(eq + 1));
    } else if (i + 1 < argc && std::string_view(argv[i + 1]).substr(0, 2) != "--") {
      opts.values_[to_string(arg)] = argv[++i];
    } else {
      opts.values_[to_string(arg)] = "true";  // bare flag
    }
  }
  return opts;
}

Options Options::parse_kv(std::string_view text) {
  Options opts;
  while (!text.empty()) {
    const auto comma = text.find(',');
    std::string_view item = text.substr(0, comma);
    if (const auto eq = item.find('='); eq != std::string_view::npos) {
      opts.values_[to_string(item.substr(0, eq))] = to_string(item.substr(eq + 1));
    } else if (!item.empty()) {
      opts.values_[to_string(item)] = "true";
    }
    if (comma == std::string_view::npos) break;
    text.remove_prefix(comma + 1);
  }
  return opts;
}

void Options::note_touched(std::string_view key) const { touched_[to_string(key)] = true; }

bool Options::has(std::string_view key) const {
  note_touched(key);
  return values_.find(key) != values_.end();
}

std::string Options::get_string(std::string_view key, std::string default_value) const {
  note_touched(key);
  const auto it = values_.find(key);
  return it == values_.end() ? default_value : it->second;
}

std::int64_t Options::get_int(std::string_view key, std::int64_t default_value) const {
  note_touched(key);
  const auto it = values_.find(key);
  if (it == values_.end()) return default_value;
  std::int64_t out = 0;
  const auto& s = it->second;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  if (ec != std::errc{} || ptr != s.data() + s.size())
    throw std::invalid_argument("invalid integer for --" + to_string(key) + ": " + s);
  return out;
}

double Options::get_double(std::string_view key, double default_value) const {
  note_touched(key);
  const auto it = values_.find(key);
  if (it == values_.end()) return default_value;
  try {
    std::size_t pos = 0;
    const double out = std::stod(it->second, &pos);
    if (pos != it->second.size()) throw std::invalid_argument("trailing junk");
    return out;
  } catch (const std::exception&) {
    throw std::invalid_argument("invalid number for --" + to_string(key) + ": " + it->second);
  }
}

bool Options::get_bool(std::string_view key, bool default_value) const {
  note_touched(key);
  const auto it = values_.find(key);
  return it == values_.end() ? default_value : parse_bool(it->second);
}

std::vector<std::string> Options::unused_keys() const {
  std::vector<std::string> out;
  for (const auto& [key, value] : values_) {
    (void)value;
    if (!touched_.contains(key)) out.push_back(key);
  }
  return out;
}

}  // namespace cagvt
