// Timing decorator around pdes::Model, the one interface the kernel calls
// back into. Every call is forwarded unchanged; handle_event and
// reverse_event are timed with steady_clock into per-thread accumulators,
// so the decorator is safe on the threads backend, where several workers
// run handlers at once. Totals are read only after the run has returned
// (the backend has joined its threads by then).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <span>
#include <vector>

#include "pdes/model.hpp"

namespace perfbench {

class TimedModel final : public cagvt::pdes::Model {
 public:
  /// Handler time and call count of one OS thread.
  struct alignas(64) ThreadTotals {  // own cache line: no false sharing
    std::uint64_t calls = 0;  // handle_event + reverse_event
    std::int64_t ns = 0;      // their self time
  };

  explicit TimedModel(const cagvt::pdes::Model& inner)
      : inner_(inner), id_(next_id_.fetch_add(1) + 1) {}
  TimedModel(const TimedModel&) = delete;
  TimedModel& operator=(const TimedModel&) = delete;

  std::size_t state_size() const override { return inner_.state_size(); }
  void init_lp(cagvt::pdes::LpId lp, std::span<std::byte> state,
               cagvt::pdes::EventSink& sink) const override {
    inner_.init_lp(lp, state, sink);
  }
  void handle_event(std::span<std::byte> state, const cagvt::pdes::Event& event,
                    cagvt::pdes::EventSink& sink) const override {
    ThreadTotals& t = local();
    const auto start = Clock::now();
    inner_.handle_event(state, event, sink);
    t.ns += elapsed_ns(start);
    ++t.calls;
  }
  double cost_units(const cagvt::pdes::Event& event) const override {
    return inner_.cost_units(event);
  }
  cagvt::pdes::VirtualTime lookahead() const override { return inner_.lookahead(); }
  bool supports_reverse() const override { return inner_.supports_reverse(); }
  void reverse_event(std::span<std::byte> state,
                     const cagvt::pdes::Event& event) const override {
    ThreadTotals& t = local();
    const auto start = Clock::now();
    inner_.reverse_event(state, event);
    t.ns += elapsed_ns(start);
    ++t.calls;
  }

  /// One entry per thread that ran a handler, in first-call order.
  std::vector<ThreadTotals> totals() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return {slots_.begin(), slots_.end()};
  }

 private:
  using Clock = std::chrono::steady_clock;

  static std::int64_t elapsed_ns(Clock::time_point start) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start).count();
  }

  /// This thread's accumulator. The thread-local cache is keyed by a
  /// process-unique id, not the object address, so a decorator built where
  /// an earlier one died never inherits its slot.
  ThreadTotals& local() const {
    thread_local std::uint64_t cached_id = 0;
    thread_local ThreadTotals* cached = nullptr;
    if (cached_id != id_) {
      const std::lock_guard<std::mutex> lock(mutex_);
      cached = &slots_.emplace_back();
      cached_id = id_;
    }
    return *cached;
  }

  static inline std::atomic<std::uint64_t> next_id_{0};

  const cagvt::pdes::Model& inner_;
  const std::uint64_t id_;
  mutable std::mutex mutex_;
  mutable std::deque<ThreadTotals> slots_;  // deque: addresses stay stable
};

}  // namespace perfbench
