#include "cons/cons_config.hpp"

#include <stdexcept>

#include "util/config.hpp"

namespace cagvt::cons {

void ConsConfig::validate() const {
  if (!enabled()) return;
  if (!(window > 0)) throw std::invalid_argument("--sync: window must be > 0");
}

ConsConfig parse_cons(std::string_view text) {
  ConsConfig cfg;
  std::string_view kind = text;
  std::string_view params;
  if (const auto comma = text.find(','); comma != std::string_view::npos) {
    kind = text.substr(0, comma);
    params = text.substr(comma + 1);
  }
  if (kind == "optimistic" || kind.empty()) {
    cfg.kind = SyncKind::kOptimistic;
    if (!params.empty()) throw std::invalid_argument("--sync=optimistic takes no parameters");
    return cfg;
  }
  if (kind == "cmb") {
    cfg.kind = SyncKind::kCmb;
    if (!params.empty()) throw std::invalid_argument("--sync=cmb takes no parameters");
    return cfg;
  }
  if (kind != "window")
    throw std::invalid_argument("unknown --sync mode: '" + std::string(kind) +
                                "' (expected optimistic, cmb, or window)");
  cfg.kind = SyncKind::kWindow;
  const Options opts = Options::parse_kv(params);
  cfg.window = opts.get_double("window", cfg.window);
  for (const std::string& key : opts.unused_keys())
    throw std::invalid_argument("unknown --sync parameter: '" + key + "'");
  cfg.validate();
  return cfg;
}

const char* to_string(SyncKind kind) {
  switch (kind) {
    case SyncKind::kOptimistic: return "optimistic";
    case SyncKind::kCmb: return "cmb";
    case SyncKind::kWindow: return "window";
  }
  return "?";
}

std::string to_string(const ConsConfig& cfg) {
  if (cfg.kind != SyncKind::kWindow) return to_string(cfg.kind);
  std::string out = "window";
  if (cfg.window != std::numeric_limits<double>::infinity())
    out += ",window=" + std::to_string(cfg.window);
  return out;
}

}  // namespace cagvt::cons
