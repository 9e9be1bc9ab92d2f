// "Table 1": the in-text metrics of Section 4 at 8 nodes — efficiency,
// rollback counts, LVT disparity, simulated wall time and time in the GVT
// function for Mattern and Barrier under both canonical workloads.
//
// Paper reference points (8 nodes):
//   Mattern comp->comm: rollbacks x6.4, efficiency 92.08% -> 64.24%
//   Barrier comp->comm: wall 21.05s -> 25.64s, GVT function 8.92s -> 31.38s
//   LVT disparity (comm): Barrier 0.31 vs Mattern 0.43
//   Barrier comm efficiency 94.2% vs Mattern 64.3%
#include "figure_common.hpp"

namespace cagvt::bench {
namespace {

SimulationResult point(GvtKind gvt, const Workload& workload) {
  SimulationConfig cfg = figure_config(8);
  cfg.gvt = gvt;
  return core::run_phold(cfg, workload);
}

void table_counters(const SimulationResult& r, benchmark::UserCounters& c) {
  c["gvt_round_s"] = r.gvt_round_seconds;
  c["gvt_block_thread_s"] = r.gvt_block_seconds;
  c["lock_wait_thread_s"] = r.lock_wait_seconds;
  c["remote_msgs"] = static_cast<double>(r.remote_msgs);
  c["regional_msgs"] = static_cast<double>(r.regional_msgs);
  c["stragglers"] = static_cast<double>(r.events.stragglers);
}

}  // namespace
}  // namespace cagvt::bench

int main(int argc, char** argv) {
  using namespace cagvt::bench;
  // One point per series, at 8 nodes: no axis.
  return run_figure_main(
      argc, argv, "tab01",
      {{"BM_MatternComp",
        [](const Args&) { return point(GvtKind::kMattern, Workload::computation()); }, Axis{},
        table_counters},
       {"BM_MatternComm",
        [](const Args&) { return point(GvtKind::kMattern, Workload::communication()); },
        Axis{}, table_counters},
       {"BM_BarrierComp",
        [](const Args&) { return point(GvtKind::kBarrier, Workload::computation()); }, Axis{},
        table_counters},
       {"BM_BarrierComm",
        [](const Args&) { return point(GvtKind::kBarrier, Workload::communication()); },
        Axis{}, table_counters}});
}
