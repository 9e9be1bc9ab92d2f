// Ablation A4: imbalanced model — a quarter of each node's workers host
// "hot" LPs whose events cost 4x the base EPG.
//
// The paper (and its predecessor, Eker et al. DS-RT 2018) observes that
// synchronous GVT tolerates imbalance better: barriers stop fast threads
// from racing far ahead of the loaded ones, containing the straggler
// traffic the imbalance would otherwise generate.
#include "figure_common.hpp"

#include "models/imbalanced_phold.hpp"

namespace cagvt::bench {
namespace {

SimulationResult point(std::int64_t hot_factor, GvtKind gvt) {
  SimulationConfig cfg = figure_config(8);
  cfg.gvt = gvt;
  const pdes::LpMap map = core::Simulation::make_map(cfg);
  models::ImbalancedPholdParams params;
  params.base = Workload::computation().phold();
  params.hot_worker_fraction = 0.25;
  params.hot_factor = static_cast<double>(hot_factor);
  const models::ImbalancedPholdModel model(map, params);
  core::Simulation sim(cfg, model);
  return sim.run();
}

}  // namespace
}  // namespace cagvt::bench

int main(int argc, char** argv) {
  using namespace cagvt::bench;
  const Axis hot_factor{{"hot_factor"}, {{1, 2, 4, 8}}};
  return run_figure_main(
      argc, argv, "abl04",
      {{"BM_Mattern", [](const Args& a) { return point(a[0], GvtKind::kMattern); }, hot_factor},
       {"BM_Barrier", [](const Args& a) { return point(a[0], GvtKind::kBarrier); }, hot_factor},
       {"BM_CaGvt", [](const Args& a) { return point(a[0], GvtKind::kControlledAsync); },
        hot_factor}});
}
