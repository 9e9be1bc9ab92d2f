// Event message types of the Time Warp engine.
#pragma once

#include <compare>
#include <cstdint>
#include <limits>

namespace cagvt::pdes {

/// Logical process identifier (dense, 0-based across the whole cluster).
using LpId = std::int32_t;

/// Virtual (model) time. Distinct from metasim wall-clock time.
using VirtualTime = double;

inline constexpr VirtualTime kVtInfinity = std::numeric_limits<VirtualTime>::infinity();

/// Message color for Mattern-style GVT accounting.
enum class Color : std::uint8_t { kWhite = 0, kRed = 1 };

/// What a transported message means. Event messages are deposited into the
/// destination kernel; the conservative-synchronization control messages
/// (src/cons) ride the same send/receive path — so they pay real transport
/// costs and stay visible to GVT transit counting — but are consumed by the
/// cons::Controller instead of the kernel.
enum class MsgKind : std::uint8_t {
  kEvent = 0,        // a simulation event (positive or anti)
  kNull = 1,         // CMB null message: recv_ts carries the guarantee
  kNullRequest = 2,  // demand-driven null request: recv_ts carries the bound
  kCancelback = 3,   // overload relief: an unprocessed event returned to its
                     // sender (src/flow); unlike kNull/kNullRequest it carries
                     // a real simulation event, so it stays in GVT minima
};

/// A time-stamped event message. `uid` is replay-stable: an event's id is a
/// deterministic hash of its creating event's id and output index, so a
/// rolled-back-and-re-executed handler regenerates bit-identical events.
/// uids also break virtual-time ties, giving a deterministic total order.
struct Event {
  VirtualTime recv_ts = 0;
  VirtualTime send_ts = 0;
  std::uint64_t uid = 0;
  LpId src_lp = -1;
  LpId dst_lp = -1;
  std::uint64_t payload = 0;
  std::uint32_t epoch = 0;    // OwnerTable version at send time; a receiver
                              // holding a newer table forwards instead of drops
  bool anti = false;          // true: anti-message (cancels the positive twin)
  Color color = Color::kWhite;  // stamped by the GVT layer at send time
  MsgKind kind = MsgKind::kEvent;  // control messages never reach a kernel
  /// Epoch-GVT accounting bucket (sender's epoch mod 3), the epoch
  /// algorithm's analogue of `color`. Transport metadata only — never part
  /// of commit fingerprints or state hashes.
  std::uint8_t gvt_tag = 0;

  /// The matching anti-message for this (positive) event.
  Event make_anti() const {
    Event a = *this;
    a.anti = true;
    return a;
  }
};

/// Total order on events: (receive timestamp, uid). uid ties cannot occur
/// between distinct events (64-bit uids; collision odds are negligible at
/// simulation scale and would be caught by annihilation-mismatch checks).
struct EventKey {
  VirtualTime ts = -kVtInfinity;
  std::uint64_t uid = 0;

  friend auto operator<=>(const EventKey&, const EventKey&) = default;
};

inline EventKey key_of(const Event& e) { return EventKey{e.recv_ts, e.uid}; }

/// Routing key for transport: a cancelback travels *backwards* — to the
/// worker owning the LP that sent the event — so flow control can park it
/// at its source; everything else routes to its destination LP.
inline LpId route_lp(const Event& e) {
  return e.kind == MsgKind::kCancelback ? e.src_lp : e.dst_lp;
}

}  // namespace cagvt::pdes
