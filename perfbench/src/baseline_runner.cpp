// Compiled only into the frozen build (see baseline.hpp): `cagvt` and
// `perfbench` are renamed by the compiler command line, so every simulator
// type here is the frozen copy's.
#include <chrono>

#include "baseline.hpp"
#include "core/simulation.hpp"
#include "exec/thread_engine.hpp"
#include "workloads.hpp"

namespace perfbench_baseline {

Run run_instance(const std::string& workload, std::uint64_t seed, int index) {
  using Clock = std::chrono::steady_clock;
  const perfbench::Workload w = perfbench::make_instances(workload, seed).at(index);
  const cagvt::pdes::LpMap map = cagvt::core::Simulation::make_map(w.cfg);
  const auto model = w.make_model(map);
  cagvt::core::SimulationResult r;
  Clock::time_point start;
  if (w.coroutine()) {
    cagvt::core::Simulation sim(w.cfg, *model);
    start = Clock::now();
    r = sim.run();
  } else {
    cagvt::exec::ThreadEngine engine(w.cfg, *model);
    start = Clock::now();
    r = engine.run(/*max_wall_seconds=*/150.0);
  }
  const double run_s = std::chrono::duration<double>(Clock::now() - start).count();
  return {run_s, r.events.committed, r.completed};
}

}  // namespace perfbench_baseline
