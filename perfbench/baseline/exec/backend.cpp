#include "exec/backend.hpp"

#include "exec/thread_engine.hpp"

namespace cagvt::exec {

core::SimulationResult run_simulation(const core::SimulationConfig& cfg,
                                      const pdes::Model& model, BackendKind backend,
                                      double max_wall_seconds) {
  switch (backend) {
    case BackendKind::kCoro: {
      core::Simulation sim(cfg, model);
      return sim.run(max_wall_seconds);
    }
    case BackendKind::kThreads: {
      ThreadEngine engine(cfg, model);
      return engine.run(max_wall_seconds);
    }
  }
  throw std::invalid_argument("unknown execution backend");
}

}  // namespace cagvt::exec
