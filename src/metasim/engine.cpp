#include "metasim/engine.hpp"

#include <algorithm>

namespace cagvt::metasim {

Engine::~Engine() {
  // Destroy every adopted coroutine frame that has not already completed.
  // Frames use final_suspend = suspend_always, so handles stay valid until
  // explicitly destroyed and double-destroy cannot happen here.
  for (auto handle : frames_) {
    if (handle) handle.destroy();
  }
}

void Engine::push(SimTime when, Kind kind, Target target) {
  assert_owner();
  CAGVT_CHECK_MSG(when >= now_, "cannot schedule into the simulated past");
  heap_.push_back(Entry{{when, seq_++}, target, kind});
  std::push_heap(heap_.begin(), heap_.end(), later);
  if (kind != Kind::kDaemon) ++live_count_;
}

void Engine::push_call(SimTime when, std::function<void()> fn, Kind kind) {
  std::uint64_t slot;
  if (free_slots_.empty()) {
    slot = callbacks_.size();
    callbacks_.push_back(std::move(fn));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    callbacks_[slot] = std::move(fn);
  }
  push(when, kind, {.slot = slot});
}

void Engine::poll_at(SimTime when, Poller& poller) {
  assert_owner();
  CAGVT_CHECK_MSG(when >= now_, "cannot schedule into the simulated past");
  park(when - now_, &poller);
  ++live_count_;
}

void Engine::park(SimTime delay, Poller* poller) {
  // A lane only ever receives now_ + delay with a fresh seq, and now_
  // never decreases, so appending keeps it sorted by (when, seq).
  Lane* lane = nullptr;
  for (Lane& l : lanes_) {
    if (l.delay == delay) {
      lane = &l;
      break;
    }
    if (lane == nullptr && l.polls.empty()) lane = &l;
  }
  if (lane == nullptr) lane = &lanes_.emplace_back();
  lane->delay = delay;
  lane->polls.emplace_back(Stamp{now_ + delay, seq_++}, poller);
}

bool Engine::empty() const {
  return heap_.empty() &&
         std::all_of(lanes_.begin(), lanes_.end(), [](const Lane& l) { return l.polls.empty(); });
}

Engine::Lane* Engine::earliest_lane() {
  Lane* best = nullptr;
  for (Lane& l : lanes_) {
    if (!l.polls.empty() && (best == nullptr || best->polls.front().first > l.polls.front().first))
      best = &l;
  }
  return best;
}

void Engine::dispatch_poll(Lane& lane) {
  Poller* poller = lane.polls.front().second;
  const SimTime next = poller->skip();
  lane.polls.pop_front();
  if (next != Poller::kResume) {
    // An elided no-op iteration: re-arm at the (when, seq) its trailing
    // co_await delay(next) would have taken.
    CAGVT_ASSERT(next >= 0);
    ++polls_elided_;
    park(next, poller);
    return;
  }
  --live_count_;
  poller->handle.resume();
}

SimTime Engine::run(SimTime until) {
  assert_owner();
  stopped_ = false;
  // Stop as soon as only daemon events remain: they are instrumentation,
  // and dispatching them would advance the clock past the last real work.
  while (live_count_ > 0 && !stopped_) {
    Lane* lane = earliest_lane();
    const bool poll =
        lane != nullptr && (heap_.empty() || heap_.front().at > lane->polls.front().first);
    const SimTime when = poll ? lane->polls.front().first.when : heap_.front().at.when;
    if (when > until) break;
    CAGVT_ASSERT(when >= now_);
    now_ = when;
    ++dispatched_;
    if (poll) {
      dispatch_poll(*lane);
    } else {
      const Entry entry = heap_.front();
      std::pop_heap(heap_.begin(), heap_.end(), later);
      heap_.pop_back();
      if (entry.kind == Kind::kResume) {
        --live_count_;
        std::coroutine_handle<>::from_address(entry.target.frame).resume();
      } else {
        // Move out before running: the callback may schedule new entries,
        // which can reuse its slot.
        if (entry.kind == Kind::kCall) --live_count_;
        std::function<void()> fn = std::move(callbacks_[entry.target.slot]);
        free_slots_.push_back(entry.target.slot);
        fn();
      }
    }
    if (pending_exception_) {
      std::exception_ptr e = pending_exception_;
      pending_exception_ = nullptr;
      std::rethrow_exception(e);
    }
  }
  return now_;
}

}  // namespace cagvt::metasim
