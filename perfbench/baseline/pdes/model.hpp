// Simulation model API.
//
// A model defines per-LP state, the initial events, the event handler, and
// the computational cost (EPG units) of each event. Handlers must be pure
// functions of (state, event): the engine executes them optimistically and
// re-executes them after rollbacks, so any randomness must come from
// CounterRng keyed by the event uid (see util/rng.hpp). State is a raw byte
// block checkpointed by the engine before every handler invocation.
#pragma once

#include <cstddef>
#include <span>

#include "pdes/event.hpp"
#include "util/assert.hpp"
#include "util/inline_vec.hpp"
#include "util/rng.hpp"

namespace cagvt::pdes {

/// Collects events scheduled by a handler. The engine stamps uids
/// deterministically from the generating event's uid, making re-execution
/// reproduce identical events (required for anti-message matching).
class EventSink {
 public:
  EventSink(LpId src_lp, VirtualTime send_ts, std::uint64_t parent_uid,
            InlineVec<Event, 2>& out)
      : src_lp_(src_lp), send_ts_(send_ts), parent_uid_(parent_uid), out_(out) {}

  /// Schedule an event for `dst` at virtual time `recv_ts` (> send time).
  void schedule(LpId dst, VirtualTime recv_ts, std::uint64_t payload = 0) {
    CAGVT_CHECK_MSG(recv_ts > send_ts_, "events must be scheduled into the virtual future");
    Event e;
    e.recv_ts = recv_ts;
    e.send_ts = send_ts_;
    e.uid = hash_combine(parent_uid_, ++count_);
    e.src_lp = src_lp_;
    e.dst_lp = dst;
    e.payload = payload;
    out_.push_back(e);
  }

  int count() const { return count_; }

 private:
  LpId src_lp_;
  VirtualTime send_ts_;
  std::uint64_t parent_uid_;
  int count_ = 0;
  InlineVec<Event, 2>& out_;
};

class Model {
 public:
  virtual ~Model() = default;

  /// Size in bytes of one LP's state block.
  virtual std::size_t state_size() const = 0;

  /// Initialize `lp`'s state and schedule its starting events. Initial
  /// events MUST target `lp` itself (they are deposited before the cluster
  /// transport exists). `sink.schedule` send time is virtual time 0.
  virtual void init_lp(LpId lp, std::span<std::byte> state, EventSink& sink) const = 0;

  /// Process one event against `state`, scheduling follow-up events.
  virtual void handle_event(std::span<std::byte> state, const Event& event,
                            EventSink& sink) const = 0;

  /// Computational cost of processing `event`, in EPG units (~1 FLOP each).
  virtual double cost_units(const Event& event) const = 0;

  /// Conservative-synchronization contract (src/cons): a strict lower
  /// bound on the timestamp increment of EVERY event this model schedules
  /// (recv_ts - send_ts > lookahead(), for all handlers and all inputs).
  /// The optimistic engine ignores it; the conservative executors require
  /// it to be positive and build their safety bounds on it. The default 0
  /// declares "no lookahead" — such models run optimistically only.
  virtual VirtualTime lookahead() const { return 0; }

  /// Rollback strategy. Models whose handlers are perfectly invertible can
  /// implement reverse_event() and return true here: the engine then skips
  /// the per-event state checkpoint (ROSS's reverse computation mode,
  /// which is how the paper's substrate runs PHOLD). Default: the engine
  /// checkpoints state before every handler call.
  virtual bool supports_reverse() const { return false; }

  /// Undo the state mutation handle_event(event) performed. Only called
  /// when supports_reverse() is true, in exact reverse execution order.
  /// Generated events are cancelled by the engine (anti-messages); only
  /// the state change must be inverted here.
  virtual void reverse_event(std::span<std::byte> state, const Event& event) const {
    (void)state;
    (void)event;
    CAGVT_CHECK_MSG(false, "model declared reverse support but lacks reverse_event");
  }

  /// Helper for typed state access in implementations.
  template <typename T>
  static T& state_as(std::span<std::byte> state) {
    CAGVT_ASSERT(state.size() >= sizeof(T));
    return *reinterpret_cast<T*>(state.data());
  }
};

}  // namespace cagvt::pdes
