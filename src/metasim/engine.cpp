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
  heap_.push_back(Entry{when, seq_++, target, kind});
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

void Engine::replace_top(SimTime when) {
  // The std::*_heap layout (comparator later()), restored by a sift-down:
  // a re-armed poll costs one log-n pass instead of a pop and a push.
  Entry entry = heap_.front();
  entry.when = when;
  entry.seq = seq_++;
  std::size_t i = 0;
  const std::size_t n = heap_.size();
  while (true) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && later(heap_[child], heap_[child + 1])) ++child;
    if (!later(entry, heap_[child])) break;
    heap_[i] = heap_[child];
    i = child;
  }
  heap_[i] = entry;
}

void Engine::pop_top() {
  std::pop_heap(heap_.begin(), heap_.end(), later);
  heap_.pop_back();
}

SimTime Engine::run(SimTime until) {
  assert_owner();
  stopped_ = false;
  // Stop as soon as only daemon events remain: they are instrumentation,
  // and dispatching them would advance the clock past the last real work.
  while (live_count_ > 0 && !stopped_) {
    Entry& top = heap_.front();
    if (top.when > until) break;
    CAGVT_ASSERT(top.when >= now_);
    now_ = top.when;
    ++dispatched_;
    switch (top.kind) {
      case Kind::kPoll: {
        Poller* poller = top.target.poller;
        const SimTime next = poller->skip();
        if (next != Poller::kResume) {
          // An elided no-op iteration: re-arm in place at the (when, seq)
          // its trailing co_await delay(next) would have taken.
          CAGVT_ASSERT(next >= 0);
          ++polls_elided_;
          replace_top(now_ + next);
          continue;
        }
        pop_top();
        --live_count_;
        poller->handle.resume();
        break;
      }
      case Kind::kResume: {
        const auto handle = std::coroutine_handle<>::from_address(top.target.frame);
        pop_top();
        --live_count_;
        handle.resume();
        break;
      }
      case Kind::kCall:
      case Kind::kDaemon: {
        // Move out before pop: the callback may schedule new entries,
        // which can reuse its slot and reallocate the heap.
        const std::uint64_t slot = top.target.slot;
        if (top.kind == Kind::kCall) --live_count_;
        std::function<void()> fn = std::move(callbacks_[slot]);
        free_slots_.push_back(slot);
        pop_top();
        fn();
        break;
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
