// Deterministic discrete-event engine for the virtual cluster.
//
// The engine dispatches timed continuations in (time, sequence) order, so a
// given program produces bit-identical schedules on every run. Continuations
// are coroutine resumptions (simulated threads — see process.hpp), plain
// callbacks (e.g. network message delivery), or polls of a parked idle
// loop (see Poller below).
//
// Resumptions and callbacks wait in a binary heap. Polls never enter it:
// each is pushed at now + d with a fresh sequence number, and now never
// decreases, so the polls that share one delay d arrive already sorted by
// (time, sequence). They wait in one FIFO lane per distinct delay (in
// practice the idle and MPI poll periods, plus their straggler-scaled
// values), and run() dispatches the earliest of the heap top and the lane
// heads. A re-armed poll is a pop_front and a push_back instead of a
// log-n heap sift.
//
// Concurrency contract: an Engine and everything scheduled on it belong to
// exactly ONE OS thread — the one that constructed it. "Parallelism" on
// this substrate is cooperative: simulated threads interleave at co_await
// yield points, and the GVT algorithms cut consistent states by counting
// those cooperative hand-offs. The real-thread execution backend
// (src/exec) deliberately does NOT reuse this engine: it replaces yield
// points with an atomic GVT fence over std::barrier, and the differential
// tests (tests/exec_differential_test.cpp) check the two executions commit
// identical results. The owner-thread assertions below turn any accidental
// cross-thread use of the cooperative engine into an immediate failure
// instead of a data race.
#pragma once

#include <coroutine>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "metasim/time.hpp"
#include "util/assert.hpp"

namespace cagvt::metasim {

/// A simulated thread parked in an idle polling loop (see Engine::poll_at).
///
/// Instead of resuming the thread at every poll only to find nothing to do,
/// the engine asks skip() first. skip() runs at the poll's time and either
/// performs the side effects of one no-op loop iteration itself and returns
/// the delay to the next poll, or returns kResume to wake the thread. A
/// no-op iteration must schedule nothing but its trailing poll: the engine
/// re-arms that poll with the next sequence number, exactly the entry the
/// iteration's own `co_await delay(...)` would have queued, so eliding it
/// leaves the dispatch order of every other entry unchanged (DESIGN §8).
class Poller {
 public:
  static constexpr SimTime kResume = -1;

  /// Account one no-op iteration and return the delay (>= 0) to the next
  /// poll, or return kResume. Must not schedule anything on the engine.
  virtual SimTime skip() = 0;

  /// The parked coroutine; set by the awaitable that parks it.
  std::coroutine_handle<> handle;

 protected:
  ~Poller() = default;
};

class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine();

  /// Current simulated wall-clock time.
  SimTime now() const { return now_; }

  /// Schedule `fn` to run at absolute time `when` (>= now). Dispatch order
  /// between equal times is FIFO by scheduling order.
  void call_at(SimTime when, std::function<void()> fn) {
    push_call(when, std::move(fn), Kind::kCall);
  }
  void call_after(SimTime delay, std::function<void()> fn) { call_at(now_ + delay, std::move(fn)); }

  /// Daemon variant: like call_at, but the event does not keep the engine
  /// alive — run() returns (without advancing the clock) once only daemon
  /// events remain. Background instrumentation (e.g. fault-window edges)
  /// uses this so a run's duration is decided solely by real work.
  void call_at_daemon(SimTime when, std::function<void()> fn) {
    push_call(when, std::move(fn), Kind::kDaemon);
  }

  /// Schedule a coroutine resumption (used by awaitables).
  void resume_at(SimTime when, std::coroutine_handle<> handle) {
    push(when, Kind::kResume, {.frame = handle.address()});
  }

  /// Schedule a poll of `poller` (its handle must be set): at `when` the
  /// engine calls poller.skip() and, until that returns kResume, re-arms
  /// the poll instead of resuming the coroutine. Each elided poll counts
  /// as one dispatch.
  void poll_at(SimTime when, Poller& poller);

  /// Run until the event queue drains, `stop()` is called, or simulated
  /// time would exceed `until`. Returns the time of the last dispatched
  /// event. Rethrows any exception escaping a coroutine or callback.
  SimTime run(SimTime until = kTimeNever);

  /// Halt the dispatch loop after the current continuation returns.
  void stop() { stopped_ = true; }
  bool stopped() const { return stopped_; }

  bool empty() const;
  std::uint64_t dispatched() const { return dispatched_; }
  /// Dispatches that were polls answered by Poller::skip() (a subset of
  /// dispatched()).
  std::uint64_t polls_elided() const { return polls_elided_; }

  /// Internal: processes register their root handles so frames suspended at
  /// teardown are destroyed (see process.hpp).
  void adopt_frame(std::coroutine_handle<> handle) { frames_.push_back(handle); }

  /// Internal: coroutine promises park escaped exceptions here; run()
  /// rethrows them.
  void set_pending_exception(std::exception_ptr e) { pending_exception_ = e; }

  /// Debug-build guard for the single-thread contract above: scheduling
  /// into or running an engine from a thread other than its constructor's
  /// is a bug (use the src/exec thread backend for real parallelism).
  void assert_owner() const { CAGVT_ASSERT(std::this_thread::get_id() == owner_); }

 private:
  /// Dispatch position: earliest `when` first, FIFO by `seq` at equal times.
  struct Stamp {
    SimTime when;
    std::uint64_t seq;
    bool operator>(const Stamp& o) const { return when != o.when ? when > o.when : seq > o.seq; }
  };
  enum class Kind : std::uint8_t { kResume, kCall, kDaemon };
  /// Heap entries are small PODs: coroutine resumes carry the frame address
  /// directly, plain callbacks live in the callbacks_ slab.
  union Target {
    void* frame;          // kResume: coroutine frame address
    std::uint64_t slot;   // kCall, kDaemon: index into callbacks_
  };
  struct Entry {
    Stamp at;
    Target target;
    Kind kind;
  };
  static bool later(const Entry& a, const Entry& b) { return a.at > b.at; }
  /// Parked polls pushed with one delay, in (when, seq) order.
  struct Lane {
    SimTime delay;
    std::deque<std::pair<Stamp, Poller*>> polls;
  };

  void push(SimTime when, Kind kind, Target target);
  void push_call(SimTime when, std::function<void()> fn, Kind kind);
  /// Append a poll at now_ + delay, with the next sequence number, to the
  /// lane of that delay (an empty lane is re-keyed, else one is added).
  void park(SimTime delay, Poller* poller);
  /// The lane whose head is the earliest parked poll, or nullptr.
  Lane* earliest_lane();
  /// Ask the head poll of `lane` to skip; re-arm it or resume its thread.
  void dispatch_poll(Lane& lane);

  std::thread::id owner_ = std::this_thread::get_id();
  SimTime now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t dispatched_ = 0;
  std::uint64_t polls_elided_ = 0;
  std::uint64_t live_count_ = 0;  // queued non-daemon events and parked polls
  bool stopped_ = false;
  std::vector<Entry> heap_;  // std::*_heap with later(): earliest (when, seq) first
  std::vector<Lane> lanes_;
  std::vector<std::function<void()>> callbacks_;
  std::vector<std::uint64_t> free_slots_;
  std::vector<std::coroutine_handle<>> frames_;
  std::exception_ptr pending_exception_;
};

}  // namespace cagvt::metasim
