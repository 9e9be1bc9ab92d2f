// Placement of LPs onto the cluster.
//
// `LpMap` mirrors the paper's static layout: each node runs W worker
// threads, each worker owns a contiguous block of `lps_per_worker` LPs
// (128 per hardware thread at paper scale). The map fixes the *shape* of
// the cluster (nodes, workers, LP count) for a run.
//
// `OwnerTable` layers dynamic ownership on top: a versioned lp -> worker
// array, initialized to the LpMap's block placement and rewritten only at
// GVT round fences by the load balancer (src/lb). Every routing decision
// goes through the table; with migration off it is the identity overlay
// and routes exactly like the static map.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "pdes/event.hpp"
#include "util/assert.hpp"

namespace cagvt::pdes {

class LpMap {
 public:
  LpMap(int nodes, int workers_per_node, int lps_per_worker)
      : nodes_(nodes), workers_per_node_(workers_per_node), lps_per_worker_(lps_per_worker) {
    CAGVT_CHECK(nodes >= 1 && workers_per_node >= 1 && lps_per_worker >= 1);
  }

  int nodes() const { return nodes_; }
  int workers_per_node() const { return workers_per_node_; }
  int lps_per_worker() const { return lps_per_worker_; }
  int total_workers() const { return nodes_ * workers_per_node_; }
  LpId total_lps() const { return static_cast<LpId>(total_workers() * lps_per_worker_); }

  /// Global worker index owning `lp` (0 .. total_workers()-1).
  int worker_of(LpId lp) const {
    CAGVT_ASSERT(lp >= 0 && lp < total_lps());
    return static_cast<int>(lp) / lps_per_worker_;
  }

  int node_of(LpId lp) const { return worker_of(lp) / workers_per_node_; }

  /// Worker index within its node (0 .. workers_per_node()-1).
  int worker_in_node(LpId lp) const { return worker_of(lp) % workers_per_node_; }

  int node_of_worker(int worker) const { return worker / workers_per_node_; }
  int worker_in_node_of(int worker) const { return worker % workers_per_node_; }
  int global_worker(int node, int worker_in_node) const {
    return node * workers_per_node_ + worker_in_node;
  }

  LpId first_lp_of_worker(int worker) const {
    return static_cast<LpId>(worker * lps_per_worker_);
  }

  /// k-th LP of a worker.
  LpId lp_of(int worker, int k) const {
    CAGVT_ASSERT(k >= 0 && k < lps_per_worker_);
    return first_lp_of_worker(worker) + static_cast<LpId>(k);
  }

 private:
  int nodes_;
  int workers_per_node_;
  int lps_per_worker_;
};

/// One LP relocation decided by the load balancer.
struct Migration {
  LpId lp = -1;
  int src_worker = -1;
  int dst_worker = -1;
};

/// Versioned dynamic owner table. The version is the migration epoch:
/// senders stamp it into every event, so a receiver holding a newer table
/// can tell a legitimately stale message (forward it to the current owner)
/// from a routing bug (crash loudly). Batches applied at a GVT fence bump
/// the version exactly once, making "the table at round R" well defined.
class OwnerTable {
 public:
  explicit OwnerTable(const LpMap& map)
      : map_(map),
        owner_(static_cast<std::size_t>(map.total_lps())),
        lp_count_(static_cast<std::size_t>(map.total_workers()), map.lps_per_worker()) {
    for (LpId lp = 0; lp < map.total_lps(); ++lp)
      owner_[static_cast<std::size_t>(lp)] = map.worker_of(lp);
  }

  const LpMap& map() const { return map_; }
  std::uint32_t version() const { return version_; }
  std::uint64_t moves_applied() const { return moves_applied_; }

  int worker_of(LpId lp) const {
    CAGVT_ASSERT(lp >= 0 && lp < map_.total_lps());
    return owner_[static_cast<std::size_t>(lp)];
  }
  int node_of(LpId lp) const { return map_.node_of_worker(worker_of(lp)); }
  int worker_in_node(LpId lp) const { return map_.worker_in_node_of(worker_of(lp)); }

  /// Number of LPs currently owned by `worker`.
  int lp_count_of(int worker) const {
    CAGVT_ASSERT(worker >= 0 && worker < map_.total_workers());
    return lp_count_[static_cast<std::size_t>(worker)];
  }

  /// Apply one fence's batch of moves; bumps the version once (even for a
  /// multi-move batch) so all moves of a fence share one epoch boundary.
  void apply(std::span<const Migration> moves) {
    if (moves.empty()) return;
    for (const Migration& m : moves) {
      CAGVT_CHECK_MSG(worker_of(m.lp) == m.src_worker,
                      "migration source does not own the LP");
      CAGVT_CHECK(m.dst_worker >= 0 && m.dst_worker < map_.total_workers());
      CAGVT_CHECK(m.dst_worker != m.src_worker);
      owner_[static_cast<std::size_t>(m.lp)] = m.dst_worker;
      --lp_count_[static_cast<std::size_t>(m.src_worker)];
      ++lp_count_[static_cast<std::size_t>(m.dst_worker)];
    }
    ++version_;
    moves_applied_ += moves.size();
  }

  struct Snapshot {
    std::vector<int> owner;
    std::uint32_t version = 0;
  };

  Snapshot snapshot() const { return Snapshot{owner_, version_}; }

  /// Restore from a GVT-aligned checkpoint. Rewinding the version is safe:
  /// the restore fence drains every in-flight message first, so no event
  /// stamped with a later epoch survives into the resumed run.
  void restore(const Snapshot& snap) {
    CAGVT_CHECK_MSG(snap.owner.size() == owner_.size(),
                    "owner-table snapshot from a different cluster shape");
    owner_ = snap.owner;
    version_ = snap.version;
    std::fill(lp_count_.begin(), lp_count_.end(), 0);
    for (const int w : owner_) ++lp_count_[static_cast<std::size_t>(w)];
  }

 private:
  LpMap map_;
  std::vector<int> owner_;
  std::vector<int> lp_count_;
  std::uint32_t version_ = 0;
  std::uint64_t moves_applied_ = 0;
};

/// Message locality classes from the paper's Section 2: local (same
/// worker thread), regional (same node, different worker — shared memory),
/// remote (different node — network).
enum class Locality : std::uint8_t { kLocal, kRegional, kRemote };

inline Locality classify(const LpMap& map, LpId src, LpId dst) {
  if (map.worker_of(src) == map.worker_of(dst)) return Locality::kLocal;
  if (map.node_of(src) == map.node_of(dst)) return Locality::kRegional;
  return Locality::kRemote;
}

}  // namespace cagvt::pdes
