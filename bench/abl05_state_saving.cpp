// Ablation A5: rollback mechanism — state checkpointing vs reverse
// computation (ROSS's native mode), on the same PHOLD workload.
//
// Reverse computation skips the per-event checkpoint (a copy cost on the
// forward path) at the price of an inverse handler call during rollback.
// Expected: a modest rate edge and a lower memory footprint for reverse
// computation in high-efficiency workloads; the gap narrows when rollbacks
// are frequent.
#include <memory>

#include "figure_common.hpp"
#include "models/reverse_phold.hpp"

namespace cagvt::bench {
namespace {

SimulationResult point(int nodes, bool reverse, const Workload& workload) {
  SimulationConfig cfg = figure_config(nodes);
  cfg.gvt = GvtKind::kMattern;
  const pdes::LpMap map = core::Simulation::make_map(cfg);
  const models::PholdParams params = workload.phold();
  std::unique_ptr<pdes::Model> model;
  if (reverse) {
    model = std::make_unique<models::ReversePholdModel>(map, params);
  } else {
    model = std::make_unique<models::PholdModel>(map, params);
  }
  core::Simulation sim(cfg, *model);
  return sim.run();
}

void history_counters(const SimulationResult& r, benchmark::UserCounters& c) {
  c["max_history"] = static_cast<double>(r.events.max_history);
}

}  // namespace
}  // namespace cagvt::bench

int main(int argc, char** argv) {
  using namespace cagvt::bench;
  return run_figure_main(
      argc, argv, "abl05",
      {{"BM_CheckpointComp",
        [](const Args& a) { return point(a[0], /*reverse=*/false, Workload::computation()); },
        kNodesAxis, history_counters},
       {"BM_ReverseComp",
        [](const Args& a) { return point(a[0], /*reverse=*/true, Workload::computation()); },
        kNodesAxis, history_counters},
       {"BM_CheckpointComm",
        [](const Args& a) {
          return point(a[0], /*reverse=*/false, Workload::communication());
        },
        kNodesAxis, history_counters},
       {"BM_ReverseComm",
        [](const Args& a) { return point(a[0], /*reverse=*/true, Workload::communication()); },
        kNodesAxis, history_counters}});
}
