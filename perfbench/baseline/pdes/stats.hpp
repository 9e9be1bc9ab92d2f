// Per-thread Time Warp statistics; aggregated across the cluster by the
// experiment harness into the paper's metrics (committed event rate,
// efficiency, rollback counts).
#pragma once

#include <cstdint>

namespace cagvt::pdes {

struct KernelStats {
  std::uint64_t processed = 0;          // handler executions (incl. later undone)
  std::uint64_t committed = 0;          // fossil-collected, final
  std::uint64_t rolled_back = 0;        // handler executions undone
  std::uint64_t rollback_episodes = 0;  // distinct rollback occurrences
  std::uint64_t primary_rollbacks = 0;  // caused by a straggler
  std::uint64_t secondary_rollbacks = 0;  // caused by an anti-message
  std::uint64_t stragglers = 0;
  std::uint64_t events_generated = 0;
  std::uint64_t antimessages_emitted = 0;  // external (off-thread) antis
  std::uint64_t annihilated_pending = 0;   // anti met its positive in pending
  std::uint64_t annihilated_early = 0;     // anti arrived before its positive
  std::uint64_t local_cancellations = 0;   // same-thread annihilations
  /// Out-of-order deliveries absorbed under dynamic placement: a migration
  /// fence splits a sender's FIFO stream across the old-owner detour and
  /// the direct path, so duplicates and orphaned antis can arrive.
  std::uint64_t migration_reorders = 0;
  std::uint64_t cancelled_back = 0;        // pending events returned to senders
                                           // by overload relief (src/flow)
  std::size_t max_history = 0;             // peak uncommitted records (memory)
  /// Peak event pool (pending + uncommitted history), sampled once per GVT
  /// round at adoption time — cheap enough to stay on even with --flow=off,
  /// which is how the overload ablation measures unconstrained growth.
  std::size_t pool_peak = 0;

  /// Paper metric: committed over total executed. Equals the paper's
  /// committed/generated for PHOLD (each execution generates one event).
  double efficiency() const {
    return processed == 0 ? 1.0
                          : static_cast<double>(committed) / static_cast<double>(processed);
  }

  KernelStats& operator+=(const KernelStats& o) {
    processed += o.processed;
    committed += o.committed;
    rolled_back += o.rolled_back;
    rollback_episodes += o.rollback_episodes;
    primary_rollbacks += o.primary_rollbacks;
    secondary_rollbacks += o.secondary_rollbacks;
    stragglers += o.stragglers;
    events_generated += o.events_generated;
    antimessages_emitted += o.antimessages_emitted;
    annihilated_pending += o.annihilated_pending;
    annihilated_early += o.annihilated_early;
    local_cancellations += o.local_cancellations;
    migration_reorders += o.migration_reorders;
    cancelled_back += o.cancelled_back;
    if (o.max_history > max_history) max_history = o.max_history;
    if (o.pool_peak > pool_peak) pool_peak = o.pool_peak;
    return *this;
  }
};

}  // namespace cagvt::pdes
