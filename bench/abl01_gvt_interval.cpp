// Ablation A1: GVT interval sweep.
//
// The paper chooses intervals of 25-50 "because they resulted in the best
// overall performance". This ablation regenerates that tuning decision:
// too small an interval makes synchronous rounds dominate (and Mattern
// rounds churn); too large an interval delays fossil collection, grows
// event histories, and lets communication-mode feedback run longer between
// flushes.
#include "figure_common.hpp"

namespace cagvt::bench {
namespace {

SimulationResult point(std::int64_t interval, GvtKind gvt, const Workload& workload) {
  SimulationConfig cfg = figure_config(8);
  cfg.gvt = gvt;
  cfg.gvt_interval = static_cast<int>(interval);
  return core::run_phold(cfg, workload);
}

void history_counters(const SimulationResult& r, benchmark::UserCounters& c) {
  c["max_history"] = static_cast<double>(r.events.max_history);
}

}  // namespace
}  // namespace cagvt::bench

int main(int argc, char** argv) {
  using namespace cagvt::bench;
  const Axis interval{{"interval"}, {{10, 25, 50, 100}}};
  return run_figure_main(
      argc, argv, "abl01",
      {{"BM_MatternComp",
        [](const Args& a) { return point(a[0], GvtKind::kMattern, Workload::computation()); },
        interval, history_counters},
       {"BM_BarrierComp",
        [](const Args& a) { return point(a[0], GvtKind::kBarrier, Workload::computation()); },
        interval, history_counters},
       {"BM_BarrierComm",
        [](const Args& a) { return point(a[0], GvtKind::kBarrier, Workload::communication()); },
        interval, history_counters},
       {"BM_CaComm",
        [](const Args& a) {
          return point(a[0], GvtKind::kControlledAsync, Workload::communication());
        },
        interval, history_counters}});
}
