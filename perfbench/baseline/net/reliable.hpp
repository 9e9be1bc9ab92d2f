// Reliable-transport framing for the virtual fabric.
//
// When the fault schedule can lose frames (loss: specs) or whole nodes
// (crash: specs), the Fabric wraps every point-to-point payload in a Frame
// carrying sequencing metadata, and keeps per-directed-link, per-stream
// sender/receiver state:
//
//  * sender  — next sequence number, the unacked window (seq -> stored
//              payload for retransmission), and retransmit timer state
//              with exponential backoff;
//  * receiver — the next expected sequence number plus a reorder buffer,
//              giving exactly-once in-order delivery into the rank inbox.
//
// Two independent streams per directed link: the DATA stream (event
// messages) and the CONTROL stream (GVT tokens). Transport acks are
// cumulative, travel the control plane, and are never themselves acked.
// The control stream survives checkpoint restores untouched; the data
// stream is reset under a new epoch so stale pre-restore frames and acks
// self-identify and are discarded on arrival.
//
// Without loss/crash specs the Fabric never populates this state and wire
// frames are fire-and-forget (reliable = false), so healthy runs stay
// byte-identical to builds without the subsystem.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "net/tree_reduce.hpp"

namespace cagvt::net {

/// Which logical stream of a directed link a frame belongs to.
enum class StreamClass : std::uint8_t {
  kData,     // event messages
  kControl,  // GVT control messages (Mattern tokens)
};

inline const char* to_string(StreamClass cls) {
  return cls == StreamClass::kData ? "data" : "control";
}

/// The wire unit: a payload plus transport metadata. Acks carry no payload;
/// their `seq` is cumulative (the receiver's next expected sequence).
/// kTree frames are hop-by-hop collective traffic (net/tree_reduce.hpp):
/// they carry a TreeVal instead of a payload, ride the control plane, and —
/// like the flat collectives — are modelled as reliable, exempt from loss
/// and crash windows (see the Fabric's tree-frame interception).
template <typename Payload>
struct Frame {
  enum class Kind : std::uint8_t { kMsg, kAck, kTree };

  Kind kind = Kind::kMsg;
  StreamClass cls = StreamClass::kData;
  /// false = fire-and-forget (no loss/crash specs in the schedule): the
  /// receiver unwraps the payload with no sequencing checks at all.
  bool reliable = false;
  /// Data-plane incarnation; bumped by checkpoint restores.
  std::uint32_t epoch = 0;
  std::uint64_t seq = 0;
  /// kTree only: reduce-up vs broadcast-down, wave number, partial/total.
  bool tree_up = false;
  std::uint64_t tree_wave = 0;
  TreeVal tree_val{};
  Payload payload{};
};

/// Sender half of one directed link stream.
template <typename Payload>
struct SendStream {
  struct Pending {
    int bytes = 0;
    Payload payload{};
    /// Engine time of the original send — the RTT sample source.
    std::int64_t sent_at = 0;
    /// Karn's rule: a retransmitted frame's ack is ambiguous (original or
    /// resend?), so it never contributes an RTT sample.
    bool resent = false;
  };

  std::uint32_t epoch = 0;
  std::uint64_t next_seq = 0;
  /// Consecutive timer expiries without ack progress (backoff exponent).
  int attempts = 0;
  bool timer_armed = false;
  /// Smoothed round-trip time (EWMA of ack-confirmed samples); 0 until the
  /// first sample. The retransmit timeout adapts to it so a congested link
  /// (queueing delay >> base RTO) does not trigger spurious resend storms.
  std::int64_t srtt = 0;
  std::map<std::uint64_t, Pending> unacked;
};

/// Receiver half of one directed link stream.
template <typename Payload>
struct RecvStream {
  std::uint32_t epoch = 0;
  std::uint64_t expected = 0;
  std::map<std::uint64_t, Payload> reorder;
};

/// Data-stream cursors of one (node, peer) pair at a checkpoint cut. At a
/// quiesced GVT round every data frame is delivered, so restoring these on
/// both ends of a link (plus an epoch bump) resumes a consistent numbering.
struct PeerSeqState {
  std::uint64_t send_next = 0;
  std::uint64_t recv_expected = 0;
};

/// Per-peer data-stream state of one node, indexed by peer rank.
using TransportSnapshot = std::vector<PeerSeqState>;

}  // namespace cagvt::net
