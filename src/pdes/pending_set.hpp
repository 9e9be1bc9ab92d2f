// Pending event set with lazy annihilation.
//
// A min-heap over EventKey plus a live-uid set. Anti-messages cancel
// pending positives in O(1) by removing the uid from the live set; the
// stale heap entry is skipped on a later pop ("tombstoning"), which keeps
// cancellation off the heap's critical path — the same trick ROSS-family
// engines use for their cancel queues.
#pragma once

#include <optional>
#include <queue>
#include <unordered_set>
#include <vector>

#include "pdes/event.hpp"
#include "util/assert.hpp"

namespace cagvt::pdes {

class PendingSet {
 public:
  void push(const Event& e) {
    CAGVT_ASSERT(!e.anti);
    const bool inserted = live_.insert(e.uid).second;
    CAGVT_CHECK_MSG(inserted, "duplicate event uid in pending set");
    heap_.push(e);
  }

  /// Cancel a pending positive by uid. Returns true iff it was pending.
  bool cancel(std::uint64_t uid) { return live_.erase(uid) > 0; }

  /// True iff a live positive with this uid is pending.
  bool contains(std::uint64_t uid) const { return live_.contains(uid); }

  /// Smallest live key, or nullopt when empty.
  std::optional<EventKey> min_key() {
    skim();
    if (heap_.empty()) return std::nullopt;
    return key_of(heap_.top());
  }

  /// Pop the smallest live event whose timestamp is <= bound.
  std::optional<Event> pop_next(VirtualTime bound) {
    skim();
    if (heap_.empty() || heap_.top().recv_ts > bound) return std::nullopt;
    Event e = heap_.top();
    heap_.pop();
    live_.erase(e.uid);
    return e;
  }

  bool empty() {
    skim();
    return heap_.empty();
  }

  std::size_t size() const { return live_.size(); }

  /// Remove and return every live event destined for `lp` (used when the
  /// LP migrates to another worker). O(n log n) heap rebuild — migration
  /// happens at GVT fences, far off the event-processing fast path.
  std::vector<Event> extract_lp(LpId lp) {
    std::vector<Event> moved;
    std::vector<Event> kept;
    kept.reserve(live_.size());
    while (!heap_.empty()) {
      const Event& top = heap_.top();
      // Consume the uid on first sight: a cancelled-then-regenerated event
      // shares the heap with its tombstone, and only the first entry in key
      // order is the live one (matching pop_next's skip semantics).
      if (live_.erase(top.uid) > 0) {
        if (top.dst_lp == lp) {
          moved.push_back(top);
        } else {
          kept.push_back(top);
        }
      }
      heap_.pop();
    }
    heap_ = {};
    for (const Event& e : kept) {
      live_.insert(e.uid);
      heap_.push(e);
    }
    return moved;
  }

  /// Remove and return up to `max_count` live events with the *largest*
  /// keys for which `eligible` returns true (cancelback relief hands back
  /// the furthest-ahead speculation first — the events least likely to be
  /// needed soon). Same O(n log n) rebuild as extract_lp; only runs under
  /// red memory pressure, never on the event-processing fast path.
  template <typename Pred>
  std::vector<Event> extract_top(std::size_t max_count, Pred&& eligible) {
    std::vector<Event> all;
    all.reserve(live_.size());
    while (!heap_.empty()) {
      const Event& top = heap_.top();
      // Consume the uid on first sight (see extract_lp).
      if (live_.erase(top.uid) > 0) all.push_back(top);
      heap_.pop();
    }
    heap_ = {};
    // Pops come off the min-heap in ascending key order; walk backwards to
    // take the largest eligible keys.
    std::vector<Event> taken;
    std::vector<Event> kept;
    kept.reserve(all.size());
    for (auto it = all.rbegin(); it != all.rend(); ++it) {
      if (taken.size() < max_count && eligible(*it)) {
        taken.push_back(*it);
      } else {
        kept.push_back(*it);
      }
    }
    for (const Event& e : kept) {
      live_.insert(e.uid);
      heap_.push(e);
    }
    return taken;
  }

 private:
  struct Later {
    bool operator()(const Event& a, const Event& b) const { return key_of(a) > key_of(b); }
  };

  /// Drop tombstoned entries off the top of the heap. Every live uid has
  /// an entry in the heap, so equal sizes mean there is no tombstone and
  /// the hash lookups can be skipped.
  void skim() {
    if (heap_.size() == live_.size()) return;
    while (!heap_.empty() && !live_.contains(heap_.top().uid)) heap_.pop();
  }

  std::priority_queue<Event, std::vector<Event>, Later> heap_;
  std::unordered_set<std::uint64_t> live_;
};

}  // namespace cagvt::pdes
