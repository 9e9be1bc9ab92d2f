// The benchmark's named workloads: cluster shape, GVT algorithm, backend
// and model for each, built from the workload seed alone.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.hpp"
#include "exec/backend.hpp"
#include "pdes/mapping.hpp"
#include "pdes/model.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  cagvt::exec::BackendKind backend = cagvt::exec::BackendKind::kCoro;
  /// Complete run configuration; `cfg.seed` is the workload seed.
  cagvt::core::SimulationConfig cfg;
  /// Model name in the library's registry ("phold", "hotspot-phold") and the
  /// "key=value,..." registry options that select its parameters.
  std::string model;
  std::string model_options;
  /// Seeds one benchmark run measures (see make_instances).
  int instances = 1;
  /// The frozen baseline's committed events per host second on this
  /// workload, as measured when the benchmark was added. It fixes the scale
  /// of host_committed_per_s, which is this figure times the current code's
  /// measured speed relative to the baseline (see METRICS.md).
  double reference_committed_per_s = 0;

  bool coroutine() const { return backend == cagvt::exec::BackendKind::kCoro; }
  /// Build the workload's model on `map` (the run's map, or a driver's).
  std::unique_ptr<cagvt::pdes::Model> make_model(const cagvt::pdes::LpMap& map) const;
  /// One-line description of the configuration for reports.
  std::string describe() const;
};

std::vector<std::string> workload_names();

/// The named workload with `seed` as both the engine seed and the model
/// seed. Throws std::invalid_argument for an unknown name.
Workload make_workload(std::string_view name, std::uint64_t seed);

/// The instances one benchmark run measures: the named workload under
/// several seeds derived from `seed`, so that seed-to-seed variation of the
/// virtual metrics averages out within a run.
std::vector<Workload> make_instances(std::string_view name, std::uint64_t seed);

}  // namespace perfbench
