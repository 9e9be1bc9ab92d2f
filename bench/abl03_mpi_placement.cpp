// Ablation A3: the full MPI placement spectrum, including the
// "everywhere" mode the paper's introduction argues against (every thread
// makes its own MPI calls through the library's lock, cf. Amer et al. [2]
// on MPI+threads lock contention).
//
// Expected ordering under communication load:
//   dedicated > combined >> everywhere
// with the lock-wait counter exposing the contention the everywhere mode
// suffers.
#include "figure_common.hpp"

namespace cagvt::bench {
namespace {

SimulationResult point(int nodes, MpiPlacement mpi) {
  SimulationConfig cfg = figure_config(nodes);
  cfg.gvt = GvtKind::kMattern;
  cfg.mpi = mpi;
  return core::run_phold(cfg, Workload::communication());
}

void lock_wait_counter(const SimulationResult& r, benchmark::UserCounters& c) {
  c["lock_wait_thread_s"] = r.lock_wait_seconds;
}

}  // namespace
}  // namespace cagvt::bench

int main(int argc, char** argv) {
  using namespace cagvt::bench;
  return run_figure_main(
      argc, argv, "abl03",
      {{"BM_DedicatedComm",
        [](const Args& a) { return point(a[0], MpiPlacement::kDedicated); }, kNodesAxis,
        lock_wait_counter},
       {"BM_CombinedComm", [](const Args& a) { return point(a[0], MpiPlacement::kCombined); },
        kNodesAxis, lock_wait_counter},
       {"BM_EverywhereComm",
        [](const Args& a) { return point(a[0], MpiPlacement::kEverywhere); }, kNodesAxis,
        lock_wait_counter}});
}
