// Ablation A6: GVT algorithms under deterministic perturbation (src/fault).
//
// Three cluster scenarios, each run with every GVT algorithm on the
// computation-dominated PHOLD workload:
//
//   scenario 0  healthy    no faults — the baseline the others divide into
//   scenario 1  straggler  node 3 computes 4x slower for the middle of the
//                          run (t=5ms..15ms of a ~20ms simulated wall)
//   scenario 2  degraded   every link at 4x latency, half bandwidth, 2us
//                          jitter, plus periodic 200us MPI-progress stalls
//                          on node 1
//
// The paper's argument predicts the ordering: Barrier couples every node to
// the slowest one each round, so a straggler/stall hits it hardest; pure
// asynchronous Mattern keeps fast nodes racing ahead of the perturbed one
// and pays in rollbacks; CA-GVT detects the efficiency collapse and falls
// back to synchronous rounds only while the perturbation lasts.
//
// The perturbation schedule is deterministic (counter-based RNG), so each
// point still runs exactly once (Iterations(1)).
#include "figure_common.hpp"

#include "fault/fault_parse.hpp"

namespace cagvt::bench {
namespace {

const char* const kScenarios[] = {
    /*healthy=*/"",
    /*straggler=*/"straggler:node=3,t=5ms..15ms,slow=4x",
    /*degraded=*/"link:latency=4x,bw=0.5,jitter=2us;"
                 "mpistall:node=1,t=2ms..,stall=200us,period=2ms",
};

SimulationResult point(std::int64_t scenario, GvtKind gvt) {
  SimulationConfig cfg = figure_config(8);
  cfg.gvt = gvt;
  const char* const schedule = kScenarios[scenario];
  if (schedule[0] != '\0') cfg.faults = fault::parse_fault_schedule(schedule);
  return core::run_phold(cfg, Workload::computation());
}

void fault_counter(const SimulationResult& r, benchmark::UserCounters& c) {
  c["fault_activations"] = static_cast<double>(r.fault_activations);
}

}  // namespace
}  // namespace cagvt::bench

int main(int argc, char** argv) {
  using namespace cagvt::bench;
  // 0 = healthy, 1 = straggler, 2 = degraded links + MPI stalls.
  const Axis scenario{{"scenario"}, {{0, 1, 2}}};
  return run_figure_main(
      argc, argv, "abl06",
      {{"BM_Mattern", [](const Args& a) { return point(a[0], GvtKind::kMattern); }, scenario,
        fault_counter},
       {"BM_Barrier", [](const Args& a) { return point(a[0], GvtKind::kBarrier); }, scenario,
        fault_counter},
       {"BM_CaGvt", [](const Args& a) { return point(a[0], GvtKind::kControlledAsync); },
        scenario, fault_counter}});
}
