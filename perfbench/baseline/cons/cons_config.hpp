// Conservative-synchronization configuration (`--sync=optimistic|cmb|window`).
//
// `optimistic` is the default Time Warp engine. `cmb` runs the kernel
// conservatively under Chandy-Misra-Bryant null-message synchronization
// with demand-driven null suppression. `window` runs it under a bounded
// time window advanced by the GVT reduction machinery (any --gvt algorithm
// doubles as the window-advance barrier). Both conservative modes require
// the model to declare a positive lookahead (pdes::Model::lookahead()).
#pragma once

#include <limits>
#include <string>
#include <string_view>

namespace cagvt::cons {

enum class SyncKind { kOptimistic, kCmb, kWindow };

struct ConsConfig {
  SyncKind kind = SyncKind::kOptimistic;

  /// Window executor: cap on how far past the last GVT workers may run.
  /// The effective per-round advance is min(window, lookahead) — a window
  /// wider than the lookahead cannot be granted without risking causality
  /// violations. The default (infinity) means "as far as lookahead allows".
  double window = std::numeric_limits<double>::infinity();

  bool enabled() const { return kind != SyncKind::kOptimistic; }

  /// Throws std::invalid_argument on out-of-range parameters.
  void validate() const;
};

/// Parse "--sync=" text: "optimistic", "cmb", or "window[,window=W]".
/// Throws std::invalid_argument listing the valid modes on a typo.
ConsConfig parse_cons(std::string_view text);

std::string to_string(const ConsConfig& cfg);
const char* to_string(SyncKind kind);

}  // namespace cagvt::cons
