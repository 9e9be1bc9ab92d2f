#include "core/epoch_gvt.hpp"

#include <algorithm>

#include "util/log.hpp"

namespace cagvt::core {

using metasim::delay;
using metasim::Process;
using metasim::SimTime;

void EpochGvt::begin_epoch() {
  CAGVT_CHECK(phase_ == Phase::kIdle);
  ++epoch_;
  phase_ = Phase::kCollect;
  epoch_started_ = node_.engine().now();
  joined_count_ = 0;
  adopted_count_ = 0;
  node_min_lvt_ = pdes::kVtInfinity;
  node_committed_ = 0;
  node_processed_ = 0;
  first_wave_ = true;
  restore_cleared_ = false;
  // Reopen this epoch's own tag bucket: its last reader was epoch e-2's
  // reduction, and no live worker carries the tag anymore (all are in
  // epoch e-1 until they join).
  ledger_.recycle(EpochLedger::bucket_of(epoch_));
  plan_ = node_.recovery() != nullptr ? node_.recovery()->plan_round(epoch_)
                                      : RoundPlan::kNormal;
  // Epochs are the algorithm's rounds: the first node to begin one fixes
  // the cluster-wide recovery / migration answer, exactly like Mattern.
  lb_moves_ = plan_ != RoundPlan::kRestore && node_.lb() != nullptr &&
              node_.lb()->round_has_moves(epoch_);
  // Checkpoint / restore / migration epochs and escalated CA trips
  // (SyncTier::kSync after gvt_escalate_rounds bad epochs) run
  // synchronously; throttled epochs (SyncTier::kThrottle) and everything
  // else keep the pipeline fully asynchronous.
  sync_epoch_ = pending_sync_ || plan_ != RoundPlan::kNormal || lb_moves_;
  // Overload protection: a red-pressure round request is satisfied by the
  // continuously running cadence — every epoch fossil-collects.
  if (node_.flow() != nullptr) node_.flow()->note_round_begin();
  CAGVT_LOG_TRACE("rank %d begin epoch %llu sync=%d", node_.rank(),
                  static_cast<unsigned long long>(epoch_), sync_epoch_ ? 1 : 0);
  node_.trace().round_begin(node_.rank(), epoch_, sync_epoch_);
}

void EpochGvt::finish_epoch() {
  phase_ = Phase::kIdle;
  ++stats_.rounds;
  if (sync_epoch_) ++stats_.sync_rounds;
  stats_.round_time_total += node_.engine().now() - epoch_started_;
  // Tier occupancy: plan-forced synchronous epochs count as kSync even
  // when the adaptive policy did not ask for one.
  note_round_tier(sync_epoch_ ? SyncTier::kSync
                  : node_.gvt_clamp().engaged() ? SyncTier::kThrottle
                                                : SyncTier::kAsync);
  node_.trace().round_end(node_.rank(), epoch_);
  node_.metrics().counter("gvt.rounds").inc();
  if (sync_epoch_) node_.metrics().counter("gvt.sync_rounds").inc();
  // The pipeline never idles: the next epoch opens immediately, so the
  // transients that accumulated against it during this epoch's reduction
  // are already being drained.
  if (!node_.stopped()) begin_epoch();
}

void EpochGvt::complete_epoch(const net::TreeVal& total) {
  CAGVT_CHECK(phase_ == Phase::kReduce);
  const double gvt = std::min(total.min_a, total.min_b);
  // A computed GVT can only regress across a checkpoint restore (the
  // rewound timeline restarts below the discarded one).
  if (node_.recovery() == nullptr)
    CAGVT_CHECK_MSG(gvt >= gvt_value_, "epoch GVT regressed");
  const auto committed = static_cast<std::uint64_t>(total.add_a);
  const auto processed = static_cast<std::uint64_t>(total.add_b);
  const auto queue_peak = static_cast<std::uint64_t>(total.max_a);
  // Shared policy (core/gvt_policy.hpp): the same smoothing and the same
  // two triggers CA-GVT adapts on decide the NEXT epoch's tier. Every rank
  // runs the stateful policy on the identical reduced totals, so the
  // hysteresis / escalation state machines stay in lockstep with no extra
  // broadcast. Throttle-first: a trip clamps execution to GVT + C while
  // epochs keep pipelining; only gvt_escalate_rounds consecutive tripped
  // epochs escalate to a quiesced synchronous epoch.
  efficiency_.update(committed, processed);
  const double last_efficiency = efficiency_.value();
  const SyncDecision decision = trigger_.decide(last_efficiency, queue_peak);
  pending_tier_ = decision.tier;
  pending_sync_ = decision.tier == SyncTier::kSync;
  node_.apply_gvt_tier(decision.tier, gvt);
  node_.trace().gvt_computed(node_.rank(), epoch_, gvt, last_efficiency, queue_peak);
  if (pending_sync_ != sync_epoch_) {
    node_.trace().mode_switch(node_.rank(), epoch_, pending_sync_, last_efficiency,
                              queue_peak);
    node_.metrics().counter("gvt.mode_switches").inc();
  }
  CAGVT_LOG_DEBUG("gvt epoch %llu: gvt=%.3f efficiency=%.3f queue_peak=%llu next_tier=%s",
                  static_cast<unsigned long long>(epoch_), gvt, last_efficiency,
                  static_cast<unsigned long long>(queue_peak), to_string(decision.tier));
  gvt_value_ = gvt;
  phase_ = Phase::kBroadcast;
  node_.trace().phase_change(node_.rank(), epoch_, "broadcast");
}

Process EpochGvt::sys_barrier(bool agent_side, int worker, const char* which) {
  node_.trace().barrier_enter(node_.rank(), worker, epoch_, which);
  if (agent_side) {
    co_await node_.collectives().barrier_agent();
  } else {
    co_await node_.collectives().barrier();
  }
  node_.trace().barrier_exit(node_.rank(), worker, epoch_, which);
}

Process EpochGvt::agent_barrier(const char* which) {
  node_.trace().barrier_enter(node_.rank(), /*worker=*/-1, epoch_, which);
  co_await node_.collectives().barrier_agent();
  node_.trace().barrier_exit(node_.rank(), /*worker=*/-1, epoch_, which);
}

Process EpochGvt::worker_tick(WorkerCtx& worker) {
  const auto& cfg = node_.cfg();
  const bool agent_inline = worker.mpi_duty && !cfg.has_dedicated_mpi();

  if (opens_pipeline()) begin_epoch();

  // --- Join: contribute the epoch cut values and switch the send tag.
  // Unlike Mattern's white->red flip there is no separate Collect visit
  // later — the join IS the contribution, which is what lets the epoch
  // reduction start the moment the last local worker has passed here. ------
  if (joins(worker)) {
    // Epochs never outrun a worker: epoch e+1 begins only after every
    // worker adopted epoch e.
    CAGVT_CHECK(worker.gvt.epoch + 1 == epoch_);
    if (sync_epoch_)
      co_await sys_barrier(agent_inline, worker.index_in_node, "pre-join");
    co_await cm_mutex_.lock();
    worker.gvt.epoch = epoch_;  // sends are tagged epoch_ % 3 from here on
    node_.trace().white_red(node_.rank(), worker.index_in_node, epoch_);
    worker.gvt.contributed = true;
    worker.gvt.adopted = false;
    node_min_lvt_ = std::min(node_min_lvt_, NodeRuntime::worker_min_ts(worker));
    // Windowed decided-event counters for the shared efficiency estimate
    // (identical bookkeeping to MatternGvt's Collect contribution).
    const auto& ks = worker.kernel.stats();
    node_committed_ += ks.committed - worker.gvt.last_committed;
    node_processed_ += (ks.committed - worker.gvt.last_committed) +
                       (ks.rolled_back - worker.gvt.last_rolled_back);
    worker.gvt.last_committed = ks.committed;
    worker.gvt.last_rolled_back = ks.rolled_back;
    CAGVT_LOG_TRACE("rank %d worker %d joined epoch %llu", node_.rank(),
                    worker.index_in_node, static_cast<unsigned long long>(epoch_));
    if (++joined_count_ == cfg.workers_per_node()) {
      // The node's view of the closing bucket is frozen now: no local
      // worker carries tag (e-1)%3 anymore, so its send minimum and this
      // node's share of its balance can enter the reduction.
      phase_ = Phase::kReduce;
      node_.trace().phase_change(node_.rank(), epoch_, "reduce");
    }
    cm_mutex_.unlock();
    worker.gvt.iters_since_round = 0;
  }

  // Synchronous epochs quiesce processing between join and adoption; held
  // workers still read (and count) incoming messages — deferred, like
  // Barrier GVT's ReadMessages — so the closing bucket can drain.
  if (node_.reads_held(worker)) co_await node_.read_messages_deferred(worker);

  // --- Adopt: the reduction broadcast handed every rank the same value. ----
  if (adopts(worker)) {
    CAGVT_CHECK(worker.gvt.contributed);
    worker.gvt.adopted = true;
    if (plan_ == RoundPlan::kRestore) {
      // Rewind instead of adopting; the bucket ledger restarts empty — the
      // restored cut has no in-flight messages to account for.
      if (!restore_cleared_) {
        restore_cleared_ = true;
        ledger_.clear();
      }
      co_await node_.restore_worker(worker, epoch_);
    } else {
      const std::uint64_t committed = node_.adopt_gvt(worker, gvt_value_, epoch_);
      co_await delay(cfg.cluster.fossil_per_event * static_cast<SimTime>(committed));
      if (plan_ == RoundPlan::kCheckpoint)
        co_await node_.checkpoint_worker(worker, epoch_, gvt_value_);
      if (lb_moves_) co_await node_.apply_migrations(worker, epoch_);
    }
    worker.gvt.iters_since_round = 0;
    CAGVT_LOG_TRACE("rank %d worker %d adopted epoch %llu", node_.rank(),
                    worker.index_in_node, static_cast<unsigned long long>(epoch_));
    if (sync_epoch_)
      co_await sys_barrier(agent_inline, worker.index_in_node, "post-fossil");
    if (++adopted_count_ == cfg.workers_per_node()) finish_epoch();
    co_await node_.flush_round_buffer(worker);
  }
}

Process EpochGvt::agent_tick(WorkerCtx* self) {
  // The dedicated MPI thread is a party of a synchronous epoch's two
  // barriers. The joined-epoch markers are recorded BEFORE the await:
  // epochs chain with no idle gap, so by the time a barrier releases the
  // last worker may already have begun the next epoch — a Mattern-style
  // stage counter written after the await would clobber that epoch's
  // state and wedge its pre-join barrier. (When the agent is an inline
  // worker, worker_tick already joins with the barrier_agent variant.)
  if (agent_syncs()) {
    if (prejoin_due()) {
      agent_prejoin_epoch_ = epoch_;
      co_await agent_barrier("pre-join");
    }
    if (postfossil_due()) {
      agent_postfossil_epoch_ = epoch_;
      co_await agent_barrier("post-fossil");
    }
  }

  // --- The epoch reduction: retry waves of the tree all-reduce until the
  // closing bucket's global balance reaches zero. Every rank contributes
  // the same global sequence of waves (each wave's verdict is computed
  // from the identical reduced value on every rank), so the per-rank wave
  // counters stay aligned with no extra coordination. -----------------------
  if (reduces()) {
    const int closing = EpochLedger::closing_bucket(epoch_);
    std::uint64_t committed = 0;
    std::uint64_t processed = 0;
    std::uint64_t queue_peak = 0;
    net::TreeVal total;
    while (true) {
      bool pump = false;
      co_await node_.mpi_progress(&pump);
      if (self != nullptr) {
        // Combined placement: the agent is also a worker — its own inboxes
        // must keep draining or the balance would never reach zero.
        co_await node_.drain_inboxes(*self, &pump);
      }
      net::TreeVal v;
      v.min_a = node_min_lvt_;
      v.min_b = ledger_.min_send(closing);
      for (int b = 0; b < EpochLedger::kBuckets; ++b) v.sum[b] = ledger_.balance(b);
      if (first_wave_) {
        // Overhead measurements ride only the epoch's first wave; retry
        // waves re-contribute the frozen minima and refreshed balances.
        v.add_a = static_cast<std::int64_t>(node_committed_);
        v.add_b = static_cast<std::int64_t>(node_processed_);
        v.max_a = static_cast<std::int64_t>(node_.take_mpi_queue_peak());
        first_wave_ = false;
      }
      total = co_await node_.fabric().tree_allreduce(node_.rank(), v);
      CAGVT_LOG_TRACE("epoch %llu wave: sums=%lld/%lld/%lld closing=%d sync=%d",
                      static_cast<unsigned long long>(epoch_),
                      static_cast<long long>(total.sum[0]),
                      static_cast<long long>(total.sum[1]),
                      static_cast<long long>(total.sum[2]), closing,
                      sync_epoch_ ? 1 : 0);
      committed += static_cast<std::uint64_t>(total.add_a);
      processed += static_cast<std::uint64_t>(total.add_b);
      queue_peak = std::max(queue_peak, static_cast<std::uint64_t>(total.max_a));
      CAGVT_CHECK_MSG(total.sum[closing] >= 0, "epoch message accounting went negative");
      // A synchronous epoch must leave NOTHING in flight (its quiesced cut
      // carries checkpoints / rewinds / migrations), so it additionally
      // waits out the current bucket — its senders are held, so the
      // balance can only fall — and the recycled bucket (zero already).
      const bool drained =
          total.sum[closing] == 0 &&
          (!sync_epoch_ || (total.sum[0] == 0 && total.sum[1] == 0 && total.sum[2] == 0));
      if (drained) break;
    }
    net::TreeVal summary = total;
    summary.add_a = static_cast<std::int64_t>(committed);
    summary.add_b = static_cast<std::int64_t>(processed);
    summary.max_a = static_cast<std::int64_t>(queue_peak);
    complete_epoch(summary);
  }
}

}  // namespace cagvt::core
