// Shared horizon-clamp arithmetic.
//
// Three subsystems clamp a worker's execution horizon to "last GVT plus a
// window": the conservative bounded-window executor (`--sync=window`,
// cons::Controller), the overload throttle (`--flow=bounded`,
// flow::Controller), and the adaptive GVT policy's throttle tier
// (core/gvt_policy.hpp SyncTier::kThrottle, applied by NodeRuntime and the
// thread backend). All must advance the bound *monotonically* — a GVT
// round may momentarily report a value below the previously granted
// horizon (e.g. after a restore), and retracting an already-granted bound
// would re-introduce the causality window the clamp exists to close. This
// header is that single shared rule, so the clamps cannot drift apart.
// When several clamps are engaged at once the worker runs under the
// tightest (std::min composition in the worker loops).
#pragma once

#include <algorithm>

#include "pdes/event.hpp"

namespace cagvt::cons {

/// Advance a monotone execution bound to at least `gvt + width`.
/// Never moves the bound backwards.
inline pdes::VirtualTime advance_clamp(pdes::VirtualTime current, pdes::VirtualTime gvt,
                                       pdes::VirtualTime width) {
  return std::max(current, gvt + width);
}

}  // namespace cagvt::cons
