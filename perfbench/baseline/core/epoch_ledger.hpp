// Message accounting for the epoch-pipelined GVT (core/epoch_gvt.hpp).
//
// Pure bookkeeping, no engine dependencies — the protocol unit tests drive
// this class directly.
//
// Every off-node event message is tagged with its sender's epoch modulo 3
// (pdes::Event::gvt_tag), the epoch algorithm's generalization of Mattern's
// two alternating colours. Three buckets suffice because live traffic can
// only carry tags of epochs {e-1, e, e+1} while epoch e is in flight:
// epoch e's end condition proves every bucket-(e-1) message was received,
// so by induction anything older is fully drained before epoch e+1 begins,
// and a bucket can be recycled exactly one epoch after its reduction
// consumed it.
//
// Per bucket the ledger keeps
//  * a CUMULATIVE signed balance (sends - receives), never cleared: once
//    every message of a residue class is delivered the balance returns to
//    zero on its own, so "globally drained" is simply "sums to zero across
//    nodes" — no per-epoch counter handoff is needed; and
//  * the minimum receive timestamp of the bucket's event-carrying sends
//    (kNull/kNullRequest are counted in the balance — they ride the same
//    transport and must drain — but excluded from the minimum, exactly like
//    Mattern's min_red rule: they never touch LP state).
//
// Epoch e's reduction drains bucket (e-1)%3 and folds that bucket's send
// minimum into the GVT (the messages crossing the epoch's join cut); the
// bucket e%3 minimum is frozen only once every worker of the node joined
// epoch e — the caller orders that.
#pragma once

#include <cstdint>

#include "pdes/event.hpp"
#include "util/assert.hpp"

namespace cagvt::core {

class EpochLedger {
 public:
  static constexpr int kBuckets = 3;

  /// Tag bucket of a sender inside `epoch`.
  static int bucket_of(std::uint64_t epoch) { return static_cast<int>(epoch % 3); }
  /// The bucket epoch e's reduction must drain: (e-1) mod 3.
  static int closing_bucket(std::uint64_t epoch) {
    return static_cast<int>((epoch + 2) % 3);
  }

  /// `in_minimum` is true for event-carrying kinds (kEvent, kCancelback).
  void record_send(int bucket, double recv_ts, bool in_minimum) {
    ++counter_[check(bucket)];
    if (in_minimum && recv_ts < min_send_[bucket]) min_send_[bucket] = recv_ts;
  }

  void record_recv(int bucket) { --counter_[check(bucket)]; }

  /// Reopen a bucket for epoch e (= bucket e%3) at epoch begin. Its last
  /// reader was epoch e-2's reduction — complete before e-1 could begin —
  /// and its cumulative balance has globally returned to zero, so only the
  /// send minimum needs resetting.
  void recycle(int bucket) { min_send_[check(bucket)] = pdes::kVtInfinity; }

  /// Checkpoint restore: the rewound cut has no in-flight messages and its
  /// send history describes the discarded timeline.
  void clear() {
    for (int b = 0; b < kBuckets; ++b) {
      counter_[b] = 0;
      min_send_[b] = pdes::kVtInfinity;
    }
  }

  std::int64_t balance(int bucket) const { return counter_[check(bucket)]; }
  double min_send(int bucket) const { return min_send_[check(bucket)]; }

 private:
  static int check(int bucket) {
    CAGVT_CHECK(bucket >= 0 && bucket < kBuckets);
    return bucket;
  }

  std::int64_t counter_[kBuckets] = {0, 0, 0};
  double min_send_[kBuckets] = {pdes::kVtInfinity, pdes::kVtInfinity,
                                pdes::kVtInfinity};
};

}  // namespace cagvt::core
