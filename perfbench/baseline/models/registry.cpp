#include "models/registry.hpp"

#include <stdexcept>

#include "models/hotspot_phold.hpp"
#include "models/imbalanced_phold.hpp"
#include "models/mixed_phold.hpp"
#include "models/reverse_phold.hpp"
#include "models/phold.hpp"

namespace cagvt::models {
namespace {

PholdParams phold_params_from(const Options& options, std::string_view prefix = "") {
  const auto key = [&](const char* k) { return std::string(prefix) + k; };
  PholdParams p;
  p.remote_pct = options.get_double(key("remote"), p.remote_pct);
  p.regional_pct = options.get_double(key("regional"), p.regional_pct);
  p.epg_units = options.get_double(key("epg"), p.epg_units);
  p.mean_delay = options.get_double(key("mean-delay"), p.mean_delay);
  p.min_delay = options.get_double(key("min-delay"), p.min_delay);
  p.start_events_per_lp =
      static_cast<int>(options.get_int(key("start-events"), p.start_events_per_lp));
  p.seed = static_cast<std::uint64_t>(options.get_int(key("model-seed"),
                                                      static_cast<std::int64_t>(p.seed)));
  return p;
}

}  // namespace

std::vector<std::string> model_names() {
  return {"phold", "mixed-phold", "imbalanced-phold", "reverse-phold", "hotspot-phold"};
}

std::unique_ptr<pdes::Model> make_model(std::string_view name, const Options& options,
                                        const pdes::LpMap& map, double end_vt) {
  if (name == "phold") {
    return std::make_unique<PholdModel>(map, phold_params_from(options));
  }
  if (name == "mixed-phold") {
    MixedPholdParams mp;
    mp.computation = phold_params_from(options, "comp-");
    mp.communication = phold_params_from(options, "comm-");
    // Defaults follow the paper's two canonical profiles.
    if (!options.has("comp-regional")) mp.computation.regional_pct = PaperWorkloads::kCompRegional;
    if (!options.has("comp-remote")) mp.computation.remote_pct = PaperWorkloads::kCompRemote;
    if (!options.has("comp-epg")) mp.computation.epg_units = PaperWorkloads::kCompEpg;
    if (!options.has("comm-regional")) mp.communication.regional_pct = PaperWorkloads::kCommRegional;
    if (!options.has("comm-remote")) mp.communication.remote_pct = PaperWorkloads::kCommRemote;
    if (!options.has("comm-epg")) mp.communication.epg_units = PaperWorkloads::kCommEpg;
    mp.x_pct = options.get_double("x", mp.x_pct);
    mp.y_pct = options.get_double("y", mp.y_pct);
    mp.end_vt = end_vt;
    return std::make_unique<MixedPholdModel>(map, mp);
  }
  if (name == "reverse-phold") {
    return std::make_unique<ReversePholdModel>(map, phold_params_from(options));
  }
  if (name == "imbalanced-phold") {
    ImbalancedPholdParams ip;
    ip.base = phold_params_from(options);
    ip.hot_worker_fraction = options.get_double("hot-fraction", ip.hot_worker_fraction);
    ip.hot_factor = options.get_double("hot-factor", ip.hot_factor);
    return std::make_unique<ImbalancedPholdModel>(map, ip);
  }
  if (name == "hotspot-phold") {
    HotspotPholdParams hp;
    hp.base = phold_params_from(options);
    hp.hotspot_pct = options.get_double("hotspot-pct", hp.hotspot_pct);
    hp.zipf_s = options.get_double("zipf-s", hp.zipf_s);
    hp.hot_cost = options.get_double("hot-cost", hp.hot_cost);
    return std::make_unique<HotspotPholdModel>(map, hp);
  }
  std::string known;
  for (const std::string& m : model_names()) {
    if (!known.empty()) known += ", ";
    known += m;
  }
  throw std::invalid_argument("unknown model: " + std::string(name) +
                              " (registered models: " + known + ")");
}

}  // namespace cagvt::models
