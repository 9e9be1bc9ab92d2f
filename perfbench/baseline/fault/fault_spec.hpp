// Typed perturbation specifications for the deterministic fault-injection
// subsystem (see fault_engine.hpp).
//
// A FaultSpec describes one perturbation of the virtual cluster as a
// first-class timed object: WHAT is degraded (a node's CPU, a link, a
// node's MPI agent), WHERE (node / link endpoints, -1 = every one), WHEN
// (a simulated wall-clock window [start, end)), and HOW MUCH (slowdown or
// inflation factors, optionally shaped by a profile). Specs are plain data
// validated at startup; the schedule DSL in fault_parse.hpp produces them
// from `--fault` strings.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

#include "metasim/time.hpp"

namespace cagvt::fault {

/// What the perturbation degrades.
enum class FaultKind {
  kStraggler,    // per-node CPU slowdown (EPG / engine / MPI CPU costs)
  kLinkDegrade,  // per-link latency inflation, bandwidth cut, jitter
  kMpiStall,     // bounded pauses of a node's MPI agent (progress starvation)
  kLoss,         // per-link frame loss (deterministic coin-flip or window)
  kCrash,        // whole-node crash: down for a window, then restart; the
                 // cluster restores from its last GVT-aligned checkpoint
  kMemSqueeze,   // per-worker event-pool budget squeeze: while active,
                 // memory-bounded optimism (--flow=bounded) caps the
                 // worker's pool at min(flow budget, squeeze budget)
};

/// Which traffic a kLoss spec drops. Acks travel the control plane.
enum class FrameClass {
  kAll,
  kData,     // event messages
  kControl,  // GVT tokens + transport acks
};

/// Time-shape of a straggler's slowdown factor inside its window.
enum class FaultProfile {
  kConstant,    // full factor over the whole window
  kSquareWave,  // factor on for the first half of each period, off for the
                // second (degraded <-> healthy oscillation)
  kRamp,        // factor grows linearly from 1 at start to `slow` at end
};

struct FaultSpec {
  FaultKind kind = FaultKind::kStraggler;
  FaultProfile profile = FaultProfile::kConstant;

  /// Straggler / MPI-stall target node; -1 = every node.
  int node = -1;
  /// Link endpoints (kLinkDegrade); -1 = any.
  int src = -1;
  int dst = -1;

  /// Active window in simulated wall-clock time, [start, end).
  metasim::SimTime start = 0;
  metasim::SimTime end = metasim::kTimeNever;

  /// Straggler: CPU cost multiplier (>= 1; 4 = "4x slower").
  double slow = 1.0;

  /// Link: one-way latency multiplier (>= 1) and additive extra latency.
  double latency_factor = 1.0;
  metasim::SimTime latency_add = 0;
  /// Link: bandwidth multiplier in (0, 1]; 0.25 = quarter capacity.
  double bandwidth = 1.0;
  /// Link: max extra latency drawn uniformly per frame from the
  /// counter-based RNG (0 = no jitter).
  metasim::SimTime jitter = 0;

  /// Square-wave straggler: oscillation period. MPI stall: pulse spacing
  /// (0 = one pulse spanning the whole window).
  metasim::SimTime period = 0;
  /// MPI stall: length of each pause of the node's MPI agent.
  metasim::SimTime stall = 0;

  /// Loss: probability in (0, 1] that a matching frame is dropped on the
  /// wire (1 + a bounded window = deterministic blackout).
  double rate = 0.0;
  /// Loss: which traffic class the spec drops.
  FrameClass loss_class = FrameClass::kAll;
  /// Crash: how long the node stays down after `start`. The parser and the
  /// FaultEngine derive `end` = start + down from it.
  metasim::SimTime down = 0;

  /// Mem squeeze: target worker (global index); -1 = every worker. Distinct
  /// from `node` — pressure budgets are per worker, not per node.
  int worker = -1;
  /// Mem squeeze: event-pool budget (pending + uncommitted history) the
  /// targeted workers are squeezed to while the window is active.
  std::int64_t budget = 0;

  /// Effective end of the active window: crash specs carry their window as
  /// (start, down), every other kind carries it as [start, end) directly.
  metasim::SimTime window_end() const {
    return kind == FaultKind::kCrash && down > 0 ? start + down : end;
  }

  /// Throws std::invalid_argument naming the offending field. `index` is
  /// the spec's position in the schedule, echoed in the message.
  void validate(std::size_t index = 0) const;
};

inline std::string_view to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kStraggler: return "straggler";
    case FaultKind::kLinkDegrade: return "link";
    case FaultKind::kMpiStall: return "mpistall";
    case FaultKind::kLoss: return "loss";
    case FaultKind::kCrash: return "crash";
    case FaultKind::kMemSqueeze: return "mem";
  }
  return "?";
}

inline std::string_view to_string(FrameClass cls) {
  switch (cls) {
    case FrameClass::kAll: return "all";
    case FrameClass::kData: return "data";
    case FrameClass::kControl: return "control";
  }
  return "?";
}

inline std::string_view to_string(FaultProfile profile) {
  switch (profile) {
    case FaultProfile::kConstant: return "const";
    case FaultProfile::kSquareWave: return "square";
    case FaultProfile::kRamp: return "ramp";
  }
  return "?";
}

inline void FaultSpec::validate(std::size_t index) const {
  const auto fail = [index](const std::string& what) {
    throw std::invalid_argument("fault spec #" + std::to_string(index + 1) + ": " + what);
  };
  if (end <= start) fail("window end must be after start");
  switch (kind) {
    case FaultKind::kStraggler:
      if (slow < 1.0) fail("straggler slow factor must be >= 1");
      if (profile == FaultProfile::kSquareWave && period <= 0)
        fail("square profile needs period > 0");
      if (profile == FaultProfile::kRamp && end == metasim::kTimeNever)
        fail("ramp profile needs a bounded window");
      break;
    case FaultKind::kLinkDegrade:
      if (latency_factor < 1.0) fail("link latency factor must be >= 1");
      if (latency_add < 0) fail("link latency add must be >= 0");
      if (!(bandwidth > 0.0) || bandwidth > 1.0) fail("link bandwidth must be in (0, 1]");
      if (jitter < 0) fail("link jitter must be >= 0");
      break;
    case FaultKind::kMpiStall:
      if (stall <= 0) fail("mpistall needs stall > 0");
      if (period < 0) fail("mpistall period must be >= 0");
      if (period > 0 && stall > period) fail("mpistall stall must be <= period");
      break;
    case FaultKind::kLoss:
      if (!(rate > 0.0) || rate > 1.0) fail("loss rate must be in (0, 1]");
      if (rate >= 1.0 && end == metasim::kTimeNever)
        fail("loss rate=1 needs a bounded window (t=START..END), or nothing "
             "would ever get through");
      break;
    case FaultKind::kCrash:
      if (node < 0) fail("crash needs a specific node (node=K, not 'all')");
      if (down <= 0) fail("crash needs down > 0 (how long the node stays down)");
      break;
    case FaultKind::kMemSqueeze:
      if (budget <= 0) fail("mem needs budget > 0 (events per worker)");
      break;
  }
}

}  // namespace cagvt::fault
