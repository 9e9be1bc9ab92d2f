// Shared-memory MPSC event queue for the real-thread execution backend.
//
// This is the thread backend's replacement for core::SharedQueue: where the
// coroutine backend models queue contention with a simulated-time Mutex,
// this queue takes a real std::mutex and real cache traffic. Any number of
// producer threads push; exactly one consumer (the owning worker, or the
// node's MPI agent for an outbox) drains. Arrival order is preserved, which
// gives the per-(producer, consumer) FIFO the Time Warp annihilation
// protocol relies on: an anti-message can never overtake its positive twin
// on the same path.
#pragma once

#include <atomic>
#include <cstddef>
#include <deque>
#include <mutex>
#include <utility>
#include <vector>

namespace cagvt::exec {

template <typename T>
class MpscQueue {
 public:
  MpscQueue() = default;
  MpscQueue(const MpscQueue&) = delete;
  MpscQueue& operator=(const MpscQueue&) = delete;

  void push(T value) {
    const std::lock_guard<std::mutex> lock(mutex_);
    items_.push_back(std::move(value));
    size_.store(items_.size(), std::memory_order_release);
  }

  /// Append everything to `out` in arrival order; returns the count moved.
  std::size_t drain(std::vector<T>& out) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const std::size_t n = items_.size();
    for (T& item : items_) out.push_back(std::move(item));
    items_.clear();
    size_.store(0, std::memory_order_release);
    return n;
  }

  /// Lock-free emptiness peek for the consumer's fast path. A stale true
  /// only costs the consumer one more loop iteration before it sees the
  /// push; correctness never depends on this (the GVT fence's quiesce
  /// protocol counts in-flight messages separately).
  bool approx_empty() const { return size_.load(std::memory_order_acquire) == 0; }

 private:
  std::mutex mutex_;
  std::deque<T> items_;
  std::atomic<std::size_t> size_{0};
};

}  // namespace cagvt::exec
