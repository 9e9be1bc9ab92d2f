#include "lb/lb_config.hpp"

#include <stdexcept>

#include "util/config.hpp"

namespace cagvt::lb {

void LbConfig::validate() const {
  if (!enabled()) return;
  if (!(trigger > 0)) throw std::invalid_argument("--lb: trigger must be > 0");
  if (budget < 1) throw std::invalid_argument("--lb: budget must be >= 1");
  if (cooldown < 0) throw std::invalid_argument("--lb: cooldown must be >= 0");
  if (!(ewma > 0) || ewma > 1)
    throw std::invalid_argument("--lb: ewma must be in (0, 1]");
  if (min_lps < 0) throw std::invalid_argument("--lb: min-lps must be >= 0");
}

LbConfig parse_lb(std::string_view text) {
  LbConfig cfg;
  std::string_view kind = text;
  std::string_view params;
  if (const auto comma = text.find(','); comma != std::string_view::npos) {
    kind = text.substr(0, comma);
    params = text.substr(comma + 1);
  }
  if (kind == "off" || kind.empty()) {
    cfg.kind = LbKind::kOff;
    if (!params.empty())
      throw std::invalid_argument("--lb=off takes no parameters");
    return cfg;
  }
  if (kind != "roughness")
    throw std::invalid_argument("unknown --lb policy: '" + std::string(kind) +
                                "' (expected off or roughness)");
  cfg.kind = LbKind::kRoughness;
  const Options opts = Options::parse_kv(params);
  cfg.trigger = opts.get_double("trigger", cfg.trigger);
  cfg.budget = static_cast<int>(opts.get_int("budget", cfg.budget));
  cfg.cooldown = static_cast<int>(opts.get_int("cooldown", cfg.cooldown));
  cfg.ewma = opts.get_double("ewma", cfg.ewma);
  cfg.min_lps = static_cast<int>(opts.get_int("min-lps", cfg.min_lps));
  for (const std::string& key : opts.unused_keys())
    throw std::invalid_argument("unknown --lb parameter: '" + key + "'");
  cfg.validate();
  return cfg;
}

std::string to_string(const LbConfig& cfg) {
  if (!cfg.enabled()) return "off";
  return "roughness,trigger=" + std::to_string(cfg.trigger) +
         ",budget=" + std::to_string(cfg.budget) +
         ",cooldown=" + std::to_string(cfg.cooldown) +
         ",ewma=" + std::to_string(cfg.ewma) +
         ",min-lps=" + std::to_string(cfg.min_lps);
}

}  // namespace cagvt::lb
