// Load-balancer configuration (`--lb=off|roughness[,key=val,...]`).
//
// The roughness policy implements the control objective of Korniss et al.
// ("Suppressing Roughness of Virtual Times in Parallel Discrete-Event
// Simulations"): keep the LVT surface flat. The width of the time horizon
// (Shchur & Novotny) — the spread of per-worker LVTs — is the measured
// signal; when its smoothed value grows large relative to how far GVT
// advances per round, the balancer sheds hot LPs from the laggard workers
// to the most-advanced ones at the next GVT fence.
#pragma once

#include <string>
#include <string_view>

namespace cagvt::lb {

enum class LbKind { kOff, kRoughness };

struct LbConfig {
  LbKind kind = LbKind::kOff;

  /// Migrate when smoothed roughness > trigger * smoothed GVT advance per
  /// round. Lower = more aggressive.
  double trigger = 0.5;

  /// Maximum LPs moved per migration fence (cluster-wide).
  int budget = 8;

  /// Hysteresis: GVT rounds to wait after a migration fence before the
  /// balancer may trigger again, letting the signal re-settle.
  int cooldown = 2;

  /// EWMA smoothing factor for the roughness / advance-rate / per-LP work
  /// estimators (weight of the newest sample).
  double ewma = 0.3;

  /// A worker is never drained below this many LPs.
  int min_lps = 1;

  bool enabled() const { return kind != LbKind::kOff; }

  /// Throws std::invalid_argument on out-of-range parameters.
  void validate() const;
};

/// Parse "--lb=" text: "off" or "roughness[,trigger=..][,budget=..]
/// [,cooldown=..][,ewma=..][,min-lps=..]". Throws std::invalid_argument
/// (with the offending key) on unknown kinds or keys.
LbConfig parse_lb(std::string_view text);

std::string to_string(const LbConfig& cfg);

}  // namespace cagvt::lb
