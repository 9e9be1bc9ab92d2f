// The execution clamp: "process no event past GVT + C".
//
// Every bound on optimism in this repository is the Korniss/Novotny moving
// window, and every one is a Clamp:
//
//  * the adaptive GVT policy's throttle tier (core/gvt_policy.hpp
//    SyncTier::kThrottle): one Clamp per node in NodeRuntime, one per
//    worker in exec::ThreadEngine, following the decided tier each round;
//  * the overload throttle (`--flow=bounded`): one Throttle per worker in
//    flow::Controller and in exec::ThreadEngine, driven by pressure and
//    storm stress with release hysteresis;
//  * the conservative bounded window (`--sync=window`, cons::Controller).
//
// A clamp engages at GVT + C and then only slides forward: a round may
// report a GVT below the granted bound (e.g. after a restore), and
// retracting a granted bound would re-open the causality window the clamp
// exists to close. The width is used as configured; any C > 0 keeps the
// globally minimal pending event (at or above GVT) executable, so a fully
// clamped cluster still makes progress. Worker loops run under the
// tightest engaged clamp (std::min over the bounds).
#pragma once

#include <algorithm>
#include <cstdint>

#include "pdes/event.hpp"

namespace cagvt::cons {

/// Consecutive calm rounds before a stressed clamp (or a declared rollback
/// storm) releases.
inline constexpr int kCalmRounds = 2;

class Clamp {
 public:
  /// Engage at gvt + width, or slide an engaged bound up to gvt + width; a
  /// bound is never retracted. Returns true on a new engagement.
  bool hold(pdes::VirtualTime gvt, pdes::VirtualTime width) {
    if (engaged()) {
      bound_ = std::max(bound_, gvt + width);
      return false;
    }
    bound_ = gvt + width;
    ++engagements_;
    return true;
  }

  void release() { bound_ = pdes::kVtInfinity; }

  /// hold() while `engage` is set, release() otherwise.
  bool follow(bool engage, pdes::VirtualTime gvt, pdes::VirtualTime width) {
    if (engage) return hold(gvt, width);
    release();
    return false;
  }

  bool engaged() const { return bound_ != pdes::kVtInfinity; }
  /// Largest recv_ts a clamped worker may execute (kVtInfinity = released).
  pdes::VirtualTime bound() const { return bound_; }
  /// Released-to-engaged transitions so far.
  std::uint64_t engagements() const { return engagements_; }

 private:
  pdes::VirtualTime bound_ = pdes::kVtInfinity;
  std::uint64_t engagements_ = 0;
};

/// A Clamp with stressed/calm hysteresis, as the overload throttle runs
/// it. Stress engages at once at the last adopted GVT (waiting for the
/// next round would let speculation overshoot by a round of history); each
/// round adoption slides the bound while stressed or cooling off, and
/// kCalmRounds consecutive calm rounds release it.
class Throttle {
 public:
  explicit Throttle(pdes::VirtualTime width) : width_(width) {}

  /// Stress seen between rounds.
  void stress() { clamp_.hold(gvt_, width_); }
  /// True when stress() would change nothing: engaged, with the bound
  /// already at or above the last GVT + width.
  bool stress_is_noop() const { return clamp_.engaged() && clamp_.bound() >= gvt_ + width_; }

  /// Round adoption at `gvt`, `stressed` saying how the round ended.
  void adopt(pdes::VirtualTime gvt, bool stressed) {
    gvt_ = gvt;
    if (stressed) {
      calm_ = 0;
      clamp_.hold(gvt, width_);
    } else if (clamp_.engaged()) {
      if (++calm_ >= kCalmRounds) {
        clamp_.release();
        calm_ = 0;
      } else {
        clamp_.hold(gvt, width_);
      }
    }
  }

  /// Drop the clamp and the calm count; the last GVT and the engagement
  /// count stay.
  void reset() {
    clamp_.release();
    calm_ = 0;
  }

  pdes::VirtualTime bound() const { return clamp_.bound(); }
  std::uint64_t engagements() const { return clamp_.engagements(); }

 private:
  Clamp clamp_;
  pdes::VirtualTime width_;
  pdes::VirtualTime gvt_ = 0;
  int calm_ = 0;
};

}  // namespace cagvt::cons
