#include "metasim/engine.hpp"

namespace cagvt::metasim {

Engine::~Engine() {
  // Destroy every adopted coroutine frame that has not already completed.
  // Frames use final_suspend = suspend_always, so handles stay valid until
  // explicitly destroyed and double-destroy cannot happen here.
  for (auto handle : frames_) {
    if (handle) handle.destroy();
  }
}

void Engine::call_at(SimTime when, std::function<void()> fn) {
  assert_owner();
  CAGVT_CHECK_MSG(when >= now_, "cannot schedule into the simulated past");
  queue_.push(Entry{when, seq_++, std::move(fn), /*daemon=*/false});
  ++live_count_;
}

void Engine::call_at_daemon(SimTime when, std::function<void()> fn) {
  assert_owner();
  CAGVT_CHECK_MSG(when >= now_, "cannot schedule into the simulated past");
  queue_.push(Entry{when, seq_++, std::move(fn), /*daemon=*/true});
}

void Engine::resume_at(SimTime when, std::coroutine_handle<> handle) {
  call_at(when, [handle] { handle.resume(); });
}

SimTime Engine::run(SimTime until) {
  assert_owner();
  stopped_ = false;
  // Stop as soon as only daemon events remain: they are instrumentation,
  // and dispatching them would advance the clock past the last real work.
  while (live_count_ > 0 && !stopped_) {
    const Entry& top = queue_.top();
    if (top.when > until) break;
    // Copy out before pop: the continuation may push new entries and
    // invalidate the reference.
    Entry entry{top.when, top.seq, std::move(const_cast<Entry&>(top).fn), top.daemon};
    queue_.pop();
    if (!entry.daemon) --live_count_;
    CAGVT_ASSERT(entry.when >= now_);
    now_ = entry.when;
    ++dispatched_;
    entry.fn();
    if (pending_exception_) {
      std::exception_ptr e = pending_exception_;
      pending_exception_ = nullptr;
      std::rethrow_exception(e);
    }
  }
  return now_;
}

}  // namespace cagvt::metasim
