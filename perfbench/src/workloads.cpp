#include "workloads.hpp"

#include <stdexcept>

#include "models/registry.hpp"
#include "util/config.hpp"
#include "util/rng.hpp"

namespace perfbench {

using cagvt::core::GvtKind;
using cagvt::exec::BackendKind;

std::unique_ptr<cagvt::pdes::Model> Workload::make_model(const cagvt::pdes::LpMap& map) const {
  const cagvt::Options options = cagvt::Options::parse_kv(model_options);
  auto built = cagvt::models::make_model(model, options, map, cfg.end_vt);
  for (const std::string& key : options.unused_keys())
    throw std::invalid_argument("model option '" + key + "' is not read by " + model);
  return built;
}

std::string Workload::describe() const {
  return name + ": backend=" + std::string(cagvt::exec::to_string(backend)) +
         " nodes=" + std::to_string(cfg.nodes) +
         " threads=" + std::to_string(cfg.threads_per_node) +
         " lps=" + std::to_string(cfg.lps_per_worker) +
         " gvt=" + std::string(cagvt::core::to_string(cfg.gvt)) +
         " interval=" + std::to_string(cfg.gvt_interval) +
         " end_vt=" + std::to_string(cfg.end_vt) +
         " flow=" + (cfg.flow.enabled() ? "bounded,mem=" + std::to_string(cfg.flow.mem) : "off") +
         " model=" + model + "(" + model_options + ") seed=" + std::to_string(cfg.seed);
}

std::vector<std::string> workload_names() {
  return {"comm-ca-8n", "scaleout-epoch-128n", "threads-comp-ca-1n", "overload-flow-2n"};
}

Workload make_workload(std::string_view name, std::uint64_t seed) {
  Workload w;
  w.name = std::string(name);
  w.cfg.seed = seed;
  w.cfg.mpi = cagvt::core::MpiPlacement::kDedicated;
  w.cfg.gvt_interval = 12;
  const std::string model_seed = ",model-seed=" + std::to_string(seed);
  // The paper's two PHOLD profiles (models::PaperWorkloads).
  const std::string comm = "regional=0.9,remote=0.1,epg=5000" + model_seed;
  const std::string comp = "regional=0.1,remote=0.01,epg=10000" + model_seed;

  if (name == "comm-ca-8n") {
    w.cfg.nodes = 8;
    w.cfg.threads_per_node = 7;
    w.cfg.lps_per_worker = 16;
    w.cfg.gvt = GvtKind::kControlledAsync;
    w.cfg.end_vt = 100.0;
    w.reference_committed_per_s = 37000;
    w.instances = 4;
    w.model = "phold";
    w.model_options = comm;
  } else if (name == "scaleout-epoch-128n") {
    w.cfg.nodes = 128;
    w.cfg.threads_per_node = 4;
    w.cfg.lps_per_worker = 8;
    w.cfg.gvt = GvtKind::kEpoch;
    w.cfg.end_vt = 25.0;
    w.reference_committed_per_s = 42000;
    w.instances = 4;
    w.model = "phold";
    w.model_options = comp;
  } else if (name == "threads-comp-ca-1n") {
    // One worker thread. Runs with several workers keep every thread in
    // lock-step through the GVT fence, so a CPU lost to another tenant
    // stalls them all: on a shared 4-vCPU host two- and four-thread
    // layouts spread 0.47 to 0.86 (IQR/median of host_committed_per_s over
    // ten seeds), beyond any bound the benchmark may set.
    w.backend = BackendKind::kThreads;
    w.cfg.nodes = 1;
    w.cfg.threads_per_node = 1;
    w.cfg.mpi = cagvt::core::MpiPlacement::kCombined;
    w.cfg.lps_per_worker = 128;
    w.cfg.gvt = GvtKind::kControlledAsync;
    w.cfg.end_vt = 12000.0;
    w.reference_committed_per_s = 1300000;
    w.instances = 4;
    w.model = "phold";
    w.model_options = comp;
  } else if (name == "overload-flow-2n") {
    w.cfg.nodes = 2;
    w.cfg.threads_per_node = 4;
    w.cfg.lps_per_worker = 8;
    w.cfg.gvt = GvtKind::kMattern;
    w.cfg.gvt_interval = 24;
    w.cfg.flow.kind = cagvt::flow::FlowKind::kBounded;
    w.cfg.flow.mem = 96;
    w.cfg.end_vt = 600.0;
    w.reference_committed_per_s = 26000;
    w.instances = 6;
    w.model = "hotspot-phold";
    w.model_options = "epg=500,regional=0.2,remote=0.1,hotspot-pct=0.15,zipf-s=1.1,hot-cost=6" +
                      model_seed;
  } else {
    std::string known;
    for (const std::string& n : workload_names()) known += (known.empty() ? "" : ", ") + n;
    throw std::invalid_argument("unknown workload '" + std::string(name) + "' (expected " +
                                known + ")");
  }
  w.cfg.validate();
  return w;
}

std::vector<Workload> make_instances(std::string_view name, std::uint64_t seed) {
  const int count = make_workload(name, seed).instances;
  std::vector<Workload> out;
  // Derived seeds stay below 2^62: the model registry reads them as int64.
  for (int k = 0; k < count; ++k) {
    const std::uint64_t derived = cagvt::hash_combine(seed, static_cast<std::uint64_t>(k)) >> 2;
    out.push_back(make_workload(name, derived));
  }
  return out;
}

}  // namespace perfbench
