// Pluggable execution backend selection (--backend=coro|threads).
//
//   kCoro    — the deterministic oracle: the metasim coroutine substrate
//              (core::Simulation), cooperative yield-point interleaving,
//              simulated time, bit-reproducible runs.
//   kThreads — real std::threads with shared-memory MPSC queues and an
//              atomic GVT fence (exec::ThreadEngine); schedules are
//              genuinely nondeterministic, committed RESULTS must not be.
//
// The contract the differential harness (tests/exec_differential_test.cpp)
// enforces: for any supported configuration, both backends — and the
// sequential reference — agree on committed_fingerprint, the committed
// event count, and state_hash. Ordering-level nondeterminism (GVT round
// counts, rollback counts, wall time) is allowed to differ.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

#include "core/config.hpp"
#include "core/simulation.hpp"
#include "pdes/model.hpp"

namespace cagvt::exec {

enum class BackendKind {
  kCoro,     // cooperative coroutine substrate (deterministic oracle)
  kThreads,  // one OS thread per simulated worker (+ per-node MPI agents)
};

inline std::string_view to_string(BackendKind kind) {
  switch (kind) {
    case BackendKind::kCoro: return "coro";
    case BackendKind::kThreads: return "threads";
  }
  return "?";
}

inline BackendKind backend_from(std::string_view name) {
  if (name == "coro" || name == "coroutine") return BackendKind::kCoro;
  if (name == "threads" || name == "thread") return BackendKind::kThreads;
  throw std::invalid_argument("unknown execution backend: " + std::string(name) +
                              " (expected 'coro' or 'threads')");
}

/// Run `model` under `cfg` on the chosen backend. For kCoro this is
/// exactly core::Simulation::run (max_wall_seconds caps SIMULATED time);
/// for kThreads it is exec::ThreadEngine::run (the cap is REAL time), and
/// configurations needing the simulated clock (faults, checkpoints,
/// observability) throw std::invalid_argument.
core::SimulationResult run_simulation(const core::SimulationConfig& cfg,
                                      const pdes::Model& model, BackendKind backend,
                                      double max_wall_seconds = 3600.0);

}  // namespace cagvt::exec
