// Configurable-arity tree reduction for the virtual fabric.
//
// The flat collectives in vmpi (Barrier / ReduceBarrier) model a
// dissemination all-reduce whose cost grows with log2(nranks) *and* whose
// release is a single global rendezvous: every rank blocks until the last
// arrival. That is fine at the paper's 8 nodes, but the epoch-pipelined GVT
// keeps a reduction permanently in flight, and at 64-256 virtual nodes the
// rendezvous itself becomes the scaling wall (Shchur & Novotny's
// time-horizon analysis predicts exactly this).
//
// This header is the pure protocol half of the replacement: an explicit
// reduce-up / broadcast-down tree over rank IDs, expressed as a transport-
// agnostic state machine that consumes and produces Msg records. The
// Fabric wires those records onto the simulated network (net/vmpi.hpp);
// tests drive the same state machine directly under arbitrary message
// interleavings, arities, and rank counts.
//
// Waves: every collective call is numbered by a monotonically increasing
// wave. All ranks issue the same global sequence of tree collectives (the
// callers guarantee this — GVT epochs and barrier loops make identical
// control-flow decisions from identically-reduced values), so wave k on one
// rank pairs with wave k everywhere. Ranks may be arbitrarily skewed in
// time, so a parent can receive wave k+3 from a fast child before its own
// wave k closed; the reducer buffers such futures per wave.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <vector>

#include "util/assert.hpp"

namespace cagvt::net {

/// Rank tree of a reduction: rank 0 is the root, rank r's parent is
/// (r-1)/arity, its children are r*arity+1 .. r*arity+arity (clipped).
struct TreeTopology {
  int nranks = 1;
  int arity = 2;

  int parent(int rank) const { return rank == 0 ? -1 : (rank - 1) / arity; }
  int child_begin(int rank) const { return rank * arity + 1; }
  int num_children(int rank) const {
    const int begin = child_begin(rank);
    if (begin >= nranks) return 0;
    const int end = begin + arity < nranks ? begin + arity : nranks;
    return end - begin;
  }
};

/// The value a tree collective reduces. One fixed composite shape instead of
/// a templated op: the epoch GVT needs all the fields at once (two minima,
/// three counter balances, two additive overhead deltas, one max), and the
/// simpler collectives just use a slice of it (sum -> sum[0], min -> min_a,
/// barrier -> nothing). Elementwise combine is associative and commutative,
/// so any tree shape and arrival order reduces to the same total.
struct TreeVal {
  double min_a = std::numeric_limits<double>::infinity();
  double min_b = std::numeric_limits<double>::infinity();
  /// Signed message-balance accumulators (epoch GVT: one per colour bucket;
  /// generic sum collectives use sum[0]).
  std::int64_t sum[3] = {0, 0, 0};
  std::int64_t add_a = 0;
  std::int64_t add_b = 0;
  std::int64_t max_a = 0;

  static TreeVal combine(const TreeVal& a, const TreeVal& b) {
    TreeVal out;
    out.min_a = a.min_a < b.min_a ? a.min_a : b.min_a;
    out.min_b = a.min_b < b.min_b ? a.min_b : b.min_b;
    for (int i = 0; i < 3; ++i) out.sum[i] = a.sum[i] + b.sum[i];
    out.add_a = a.add_a + b.add_a;
    out.add_b = a.add_b + b.add_b;
    out.max_a = a.max_a > b.max_a ? a.max_a : b.max_a;
    return out;
  }
};

/// One hop of the tree protocol. `up` frames carry a subtree's partial
/// toward the root; `!up` frames broadcast the final reduction back down.
struct TreeMsg {
  int from = 0;
  int to = 0;
  bool up = true;
  std::uint64_t wave = 0;
  TreeVal val{};
};

/// Per-rank reduction state machine. Feed it the local contribution
/// (contribute) and every arriving tree frame (deliver); it returns the
/// frames the rank must emit in response. A wave's result becomes available
/// on this rank once the broadcast-down reaches it (at the root: once the
/// last partial arrives).
class TreeReducer {
 public:
  TreeReducer(const TreeTopology& topo, int rank) : topo_(topo), rank_(rank) {}

  /// This rank's own value for `wave`. Must be called exactly once per wave.
  std::vector<TreeMsg> contribute(std::uint64_t wave, const TreeVal& val) {
    Pending& p = pending_[wave];
    CAGVT_CHECK_MSG(!p.contributed, "duplicate tree contribution for a wave");
    p.contributed = true;
    p.acc = TreeVal::combine(p.acc, val);
    return maybe_complete(wave);
  }

  /// A tree frame addressed to this rank arrived.
  std::vector<TreeMsg> deliver(const TreeMsg& msg) {
    CAGVT_CHECK(msg.to == rank_);
    if (!msg.up) {
      // Broadcast-down: the wave's final value. Record it and fan out.
      results_.emplace(msg.wave, msg.val);
      pending_.erase(msg.wave);
      return fanout_down(msg.wave, msg.val);
    }
    Pending& p = pending_[msg.wave];
    p.acc = TreeVal::combine(p.acc, msg.val);
    ++p.children_arrived;
    CAGVT_CHECK(p.children_arrived <= topo_.num_children(rank_));
    return maybe_complete(msg.wave);
  }

  bool has_result(std::uint64_t wave) const { return results_.count(wave) != 0; }

  /// Consume the wave's result (each rank reads its result exactly once).
  TreeVal take_result(std::uint64_t wave) {
    auto it = results_.find(wave);
    CAGVT_CHECK_MSG(it != results_.end(), "tree result taken before it completed");
    TreeVal val = it->second;
    results_.erase(it);
    return val;
  }

  int rank() const { return rank_; }
  const TreeTopology& topology() const { return topo_; }

 private:
  struct Pending {
    TreeVal acc{};
    int children_arrived = 0;
    bool contributed = false;
  };

  std::vector<TreeMsg> maybe_complete(std::uint64_t wave) {
    const Pending& p = pending_.at(wave);
    if (!p.contributed || p.children_arrived < topo_.num_children(rank_)) return {};
    const TreeVal total = p.acc;
    pending_.erase(wave);
    if (rank_ == 0) {
      results_.emplace(wave, total);
      return fanout_down(wave, total);
    }
    return {TreeMsg{rank_, topo_.parent(rank_), /*up=*/true, wave, total}};
  }

  std::vector<TreeMsg> fanout_down(std::uint64_t wave, const TreeVal& val) {
    std::vector<TreeMsg> out;
    const int begin = topo_.child_begin(rank_);
    const int count = topo_.num_children(rank_);
    out.reserve(static_cast<std::size_t>(count));
    for (int c = begin; c < begin + count; ++c)
      out.push_back(TreeMsg{rank_, c, /*up=*/false, wave, val});
    return out;
  }

  TreeTopology topo_;
  int rank_;
  /// Waves this rank has not yet pushed up (or, at the root, closed).
  /// Buffers out-of-order arrivals: a fast child's wave k+3 partial can land
  /// before this rank's own wave k contribution.
  std::map<std::uint64_t, Pending> pending_;
  std::map<std::uint64_t, TreeVal> results_;
};

}  // namespace cagvt::net
