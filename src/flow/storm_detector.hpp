// EWMA rollback-storm detector.
//
// A rollback *storm* is a cascade that feeds itself: anti-messages from one
// rollback trigger further (secondary) rollbacks whose antis trigger more —
// the classic echo / dog-chasing-its-tail failure mode of unthrottled
// optimism. Two signatures identify it over a sliding GVT-round window:
//
//   * the EWMA fraction of rollback episodes caused by anti-messages
//     (secondary rollbacks) rather than stragglers — echo storms are
//     secondary-dominated, healthy speculation is straggler-dominated;
//   * the EWMA slope of the mean rollback depth — a cascade that digs
//     deeper every round is diverging even while the secondary fraction
//     is still climbing toward the threshold.
//
// The detector is fed one note() per rollback episode (from the kernel's
// note_rollback hook) and folded once per GVT round. It releases with
// hysteresis: a declared storm persists until cons::kCalmRounds consecutive
// rounds show neither trigger, so the throttle does not flap at the
// threshold. Header-only and thread-free: each worker owns one detector
// (the real-thread backend keeps them thread-partitioned).
#pragma once

#include <cstdint>

#include "cons/clamp.hpp"

namespace cagvt::flow {

class StormDetector {
 public:
  explicit StormDetector(double secondary_threshold = 0.5)
      : threshold_(secondary_threshold) {}

  /// One rollback episode: `depth` events undone, `secondary` true when the
  /// episode was caused by an anti-message (false for a straggler).
  void note(std::uint64_t depth, bool secondary) {
    ++episodes_;
    depth_sum_ += depth;
    if (secondary) ++secondary_;
  }

  /// Fold the episodes observed since the last GVT round into the EWMAs
  /// and update the storm state. Returns storming().
  bool fold_round() {
    const bool active = episodes_ >= kMinEpisodes;
    const double frac =
        episodes_ == 0 ? 0.0 : static_cast<double>(secondary_) / static_cast<double>(episodes_);
    const double depth =
        episodes_ == 0 ? 0.0 : static_cast<double>(depth_sum_) / static_cast<double>(episodes_);
    secondary_ewma_ = kAlpha * frac + (1.0 - kAlpha) * secondary_ewma_;
    const double prev_depth = depth_ewma_;
    depth_ewma_ = kAlpha * depth + (1.0 - kAlpha) * depth_ewma_;
    slope_ewma_ = kAlpha * (depth_ewma_ - prev_depth) + (1.0 - kAlpha) * slope_ewma_;
    episodes_ = secondary_ = 0;
    depth_sum_ = 0;

    const bool echo = secondary_ewma_ >= threshold_;
    const bool deepening = slope_ewma_ > kSlopeEps && depth_ewma_ >= kDeepDepth;
    if (active && (echo || deepening)) {
      if (!storming_) ++storms_;
      storming_ = true;
      calm_rounds_ = 0;
    } else if (storming_ && ++calm_rounds_ >= cons::kCalmRounds) {
      storming_ = false;
    }
    return storming_;
  }

  bool storming() const { return storming_; }
  /// Distinct storm episodes declared so far.
  std::uint64_t storms() const { return storms_; }
  double secondary_fraction() const { return secondary_ewma_; }
  double depth_ewma() const { return depth_ewma_; }
  double depth_slope() const { return slope_ewma_; }

  void reset() { *this = StormDetector(threshold_); }

 private:
  static constexpr double kAlpha = 0.3;       // matches core::EfficiencyEstimator
  static constexpr std::uint64_t kMinEpisodes = 4;  // ignore idle / trickle rounds
  static constexpr double kDeepDepth = 8.0;   // mean depth floor for slope trigger
  static constexpr double kSlopeEps = 0.5;    // per-round depth growth that counts

  double threshold_;
  std::uint64_t episodes_ = 0;
  std::uint64_t secondary_ = 0;
  std::uint64_t depth_sum_ = 0;
  double secondary_ewma_ = 0.0;
  double depth_ewma_ = 0.0;
  double slope_ewma_ = 0.0;
  bool storming_ = false;
  int calm_rounds_ = 0;
  std::uint64_t storms_ = 0;
};

}  // namespace cagvt::flow
