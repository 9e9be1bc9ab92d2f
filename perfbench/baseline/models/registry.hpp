// String-keyed model factory for the CLI examples and benches.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "pdes/mapping.hpp"
#include "pdes/model.hpp"
#include "util/config.hpp"

namespace cagvt::models {

/// Known model names: "phold", "mixed-phold", "imbalanced-phold",
/// "reverse-phold", "hotspot-phold".
std::vector<std::string> model_names();

/// Build a model from generic options:
///   phold:             remote, regional, epg, mean-delay, start-events, model-seed
///   mixed-phold:       x, y, + comp-{remote,regional,epg}, comm-{remote,regional,epg}
///   imbalanced-phold:  phold keys + hot-fraction, hot-factor
///   reverse-phold:     phold keys (reverse-computation rollback mode)
///   hotspot-phold:     phold keys + hotspot-pct, zipf-s, hot-cost
///                      (Zipf-weighted per-LP heat: targets + event cost)
/// `end_vt` is the virtual horizon (mixed phasing depends on it).
/// Throws std::invalid_argument for an unknown name.
std::unique_ptr<pdes::Model> make_model(std::string_view name, const Options& options,
                                        const pdes::LpMap& map, double end_vt);

/// The paper's canonical workload profiles (Section 4): computation-
/// dominated = 10% regional / 1% remote / 10K EPG; communication-dominated
/// = 90% regional / 10% remote / 5K EPG.
struct PaperWorkloads {
  static constexpr double kCompRegional = 0.10;
  static constexpr double kCompRemote = 0.01;
  static constexpr double kCompEpg = 10000;
  static constexpr double kCommRegional = 0.90;
  static constexpr double kCommRemote = 0.10;
  static constexpr double kCommEpg = 5000;
};

}  // namespace cagvt::models
