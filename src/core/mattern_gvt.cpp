#include "core/mattern_gvt.hpp"

#include <algorithm>

#include "util/log.hpp"

namespace cagvt::core {

using metasim::delay;
using metasim::Process;
using metasim::SimTime;

void MatternGvt::begin_round() {
  CAGVT_CHECK(phase_ == Phase::kIdle);
  phase_ = Phase::kRed;
  // Alternate the round colour: messages of the previous colour — including
  // any still in flight from the last round — are what this round's
  // counting phase drains before the Collect cut.
  cur_color_ = flip(cur_color_);
  ++round_;
  round_started_ = node_.engine().now();
  red_count_ = 0;
  counting_done_ = false;
  node_min_lvt_ = pdes::kVtInfinity;
  node_min_red_ = pdes::kVtInfinity;
  node_committed_ = 0;
  node_processed_ = 0;
  contributions_ = 0;
  collect_forwarded_ = false;
  adopted_count_ = 0;
  restore_cleared_ = false;
  plan_ = node_.recovery() != nullptr ? node_.recovery()->plan_round(round_)
                                      : RoundPlan::kNormal;
  // Migration plans commit to a round the same way recovery plans do: the
  // first node to begin the round fixes the cluster-wide answer. Restore
  // rounds never migrate — the plan would describe the discarded timeline.
  lb_moves_ = plan_ != RoundPlan::kRestore && node_.lb() != nullptr &&
              node_.lb()->round_has_moves(round_);
  // Checkpoint/restore/migration rounds piggyback on the synchronous
  // machinery: the barriers quiesce processing, and the post-fossil barrier
  // fences the snapshot/rewind/moves from the round's message flush. The
  // adaptive policy only reaches the barrier set at SyncTier::kSync;
  // kThrottle rounds run asynchronously under the execution clamp.
  sync_round_active_ = tier_flag_ == SyncTier::kSync || always_sync_ ||
                       plan_ != RoundPlan::kNormal || lb_moves_;
  // Overload protection: a red-pressure round request is satisfied by this
  // round (the controller keeps it visible until adoption so every node's
  // trigger fires promptly).
  if (node_.flow() != nullptr) node_.flow()->note_round_begin();
  node_.trace().round_begin(node_.rank(), round_, sync_round_active_);
}

void MatternGvt::finish_round() {
  phase_ = Phase::kIdle;
  tier_flag_ = pending_tier_;
  ++stats_.rounds;
  if (sync_round_active_) ++stats_.sync_rounds;
  stats_.round_time_total += node_.engine().now() - round_started_;
  // Tier occupancy: plan-forced synchronous rounds count as kSync even when
  // the adaptive policy did not ask for one.
  note_round_tier(sync_round_active_ ? SyncTier::kSync
                  : node_.gvt_clamp().engaged() ? SyncTier::kThrottle
                                                : SyncTier::kAsync);
  node_.trace().round_end(node_.rank(), round_);
  node_.metrics().counter("gvt.rounds").inc();
  if (sync_round_active_) node_.metrics().counter("gvt.sync_rounds").inc();
}

void MatternGvt::fold_node_into(MatternToken& token) {
  token.min_lvt = std::min(token.min_lvt, node_min_lvt_);
  token.min_red = std::min(token.min_red, node_min_red_);
  token.committed += node_committed_;
  token.processed += node_processed_;
  token.queue_peak = std::max(token.queue_peak, node_.take_mpi_queue_peak());
}

void MatternGvt::apply_broadcast(const MatternToken& token) {
  CAGVT_CHECK_MSG(token.round == round_, "GVT round desynchronized across nodes");
  CAGVT_CHECK(phase_ == Phase::kCollect);
  gvt_value_ = token.gvt;
  pending_tier_ = token.next_tier;
  // Throttle-first intervention: every rank applies the broadcast tier to
  // its execution clamp immediately (the clamp also stays on across kSync
  // rounds — escalation adds barriers, it does not lift the bound).
  node_.apply_gvt_tier(pending_tier_, token.gvt);
  phase_ = Phase::kBroadcast;
  node_.trace().phase_change(node_.rank(), round_, "broadcast");
}

Process MatternGvt::send_token(MatternToken token) {
  node_.trace().ring_leg(node_.rank(), token.round,
                         (node_.rank() + 1) % node_.fabric().nranks(),
                         token.phase == MatternToken::Phase::kCollect ? "collect"
                                                                      : "broadcast");
  co_await node_.fabric().ring_send(node_.rank(), node_.cfg().cluster.control_msg_bytes,
                                    NetMsg{token});
}

Process MatternGvt::complete_collect(MatternToken token) {
  token.gvt = std::min(token.min_lvt, token.min_red);
  // The EWMA smoothing (and its rationale) lives in core/gvt_policy.hpp,
  // shared with the real-thread fence so both backends adapt identically.
  efficiency_.update(token.committed, token.processed);
  const double last_efficiency = efficiency_.value();
  const SyncDecision decision = decide_tier(last_efficiency, token.queue_peak);
  token.next_tier = decision.tier;
  node_.trace().gvt_computed(node_.rank(), token.round, token.gvt, last_efficiency,
                             token.queue_peak);
  const bool sync_next = decision.tier == SyncTier::kSync;
  if (sync_next != sync_round_active_) {
    // CA-GVT flips mode for the next round; the smoothed efficiency and the
    // round's queue peak are exactly the measurements that triggered it.
    node_.trace().mode_switch(node_.rank(), token.round, sync_next,
                              last_efficiency, token.queue_peak);
    node_.metrics().counter("gvt.mode_switches").inc();
  }
  CAGVT_LOG_DEBUG("gvt round %llu: gvt=%.3f efficiency=%.3f queue_peak=%llu next_tier=%s",
                  static_cast<unsigned long long>(token.round), token.gvt, last_efficiency,
                  static_cast<unsigned long long>(token.queue_peak),
                  to_string(decision.tier));
  token.phase = MatternToken::Phase::kBroadcast;
  token.visits = 1;
  apply_broadcast(token);
  if (node_.fabric().nranks() > 1) co_await send_token(token);
}

Process MatternGvt::sys_barrier(bool agent_side, int worker, const char* which) {
  node_.trace().barrier_enter(node_.rank(), worker, round_, which);
  if (agent_side) {
    co_await node_.collectives().barrier_agent();
  } else {
    co_await node_.collectives().barrier();
  }
  node_.trace().barrier_exit(node_.rank(), worker, round_, which);
}

Process MatternGvt::worker_tick(WorkerCtx& worker) {
  const auto& cfg = node_.cfg();
  const bool agent_inline = worker.mpi_duty && !cfg.has_dedicated_mpi();

  // --- Join phase: flip to the round's colour (Alg. 2 lines 2-7;
  // Alg. 3 adds the first conditional barrier). Colours alternate per
  // round — begin_round flips cur_color_, so "not yet the round's colour"
  // marks a thread that has not joined. -------------------------------------
  if (opens_round(worker.gvt.iters_since_round)) begin_round();
  if (joins(worker)) {
    if (sync_round_active_)
      co_await sys_barrier(agent_inline, worker.index_in_node, "pre-red");
    co_await cm_mutex_.lock();
    worker.gvt.color = cur_color_;
    node_.trace().white_red(node_.rank(), worker.index_in_node, round_);
    worker.gvt.min_red = pdes::kVtInfinity;
    worker.gvt.contributed = false;
    worker.gvt.adopted = false;
    ++red_count_;
    cm_mutex_.unlock();
    worker.gvt.iters_since_round = 0;
  }

  // During a synchronous round, held workers still read (and count)
  // incoming messages — deferred, like Barrier GVT's ReadMessages — so the
  // white count can drain while processing is quiesced.
  if (node_.reads_held(worker)) co_await node_.read_messages_deferred(worker);

  // --- Red phase: once every white message is accounted for, contribute
  // LVT and min_red to the node control structure (Alg. 2 lines 8-12;
  // Alg. 3 adds the second barrier and the efficiency bookkeeping cost). ----
  if (contributes(worker)) {
    if (sync_round_active_)
      co_await sys_barrier(agent_inline, worker.index_in_node, "pre-collect");
    if (contribute_overhead() > 0) co_await delay(contribute_overhead());
    co_await cm_mutex_.lock();
    node_min_lvt_ = std::min(node_min_lvt_, NodeRuntime::worker_min_ts(worker));
    node_min_red_ = std::min(node_min_red_, worker.gvt.min_red);
    // Efficiency over the *decided* events of the last round window
    // (committed vs rolled back since the previous contribution). Decided
    // events exclude still-uncommitted history, which would bias the
    // estimate low; windowing lets the estimate track workload phases
    // (the paper's mixed models) instead of being dominated by startup.
    const auto& ks = worker.kernel.stats();
    node_committed_ += ks.committed - worker.gvt.last_committed;
    node_processed_ += (ks.committed - worker.gvt.last_committed) +
                       (ks.rolled_back - worker.gvt.last_rolled_back);
    worker.gvt.last_committed = ks.committed;
    worker.gvt.last_rolled_back = ks.rolled_back;
    ++contributions_;
    worker.gvt.contributed = true;
    cm_mutex_.unlock();
  }

  // --- Broadcast: adopt the new GVT, fossil collect (Alg. 2 lines 16-20;
  // Alg. 3 adds the post-fossil barrier). Threads keep the round's colour:
  // messages sent from here on stay accountable — the next round drains
  // them as its previous colour. ---------------------------------------------
  if (adopts(worker)) {
    CAGVT_CHECK(worker.gvt.contributed);
    worker.gvt.adopted = true;
    if (plan_ == RoundPlan::kRestore) {
      // Rewind instead of adopting: the computed GVT described the
      // pre-crash state being discarded. The colour counters restart from
      // zero — the restored cut has no in-flight messages to account for.
      if (!restore_cleared_) {
        restore_cleared_ = true;
        counter_[0] = 0;
        counter_[1] = 0;
      }
      co_await node_.restore_worker(worker, round_);
    } else {
      const std::uint64_t committed = node_.adopt_gvt(worker, gvt_value_, round_);
      co_await delay(cfg.cluster.fossil_per_event * static_cast<SimTime>(committed));
      if (plan_ == RoundPlan::kCheckpoint)
        co_await node_.checkpoint_worker(worker, round_, gvt_value_);
      // Migrations execute at the same quiesced cut, after any checkpoint
      // captured the pre-move placement; the post-fossil barrier below
      // keeps every worker parked until the fence's last arrival has moved
      // the LP packages and bumped the owner table.
      if (lb_moves_) co_await node_.apply_migrations(worker, round_);
    }
    worker.gvt.iters_since_round = 0;
    if (sync_round_active_)
      co_await sys_barrier(agent_inline, worker.index_in_node, "post-fossil");
    if (++adopted_count_ == cfg.workers_per_node()) finish_round();
    // Deliver messages buffered while processing was quiesced (ordered
    // before anything the next loop iteration drains).
    co_await node_.flush_round_buffer(worker);
  }
}

Process MatternGvt::agent_barrier(const char* which) {
  node_.trace().barrier_enter(node_.rank(), /*worker=*/-1, round_, which);
  co_await node_.collectives().barrier_agent();
  node_.trace().barrier_exit(node_.rank(), /*worker=*/-1, round_, which);
}

Process MatternGvt::agent_tick(WorkerCtx* self) {
  // The dedicated MPI thread is a party of a synchronous round's
  // system-wide barriers; join each as the round reaches it. Synchronous
  // rounds occur under CA-GVT's SyncFlag and in any checkpoint/restore
  // round. (When the agent is an inline worker, worker_tick already joins
  // with the barrier_agent variant, so no stage machine is needed.)
  if (agent_barrier_due()) {
    static constexpr const char* kStageBarrier[] = {"pre-red", "pre-collect", "post-fossil"};
    do {
      co_await agent_barrier(kStageBarrier[agent_stage_]);
      ++agent_stage_;
    } while (stage_reached(agent_stage_));
  }
  if (resets_stage()) agent_stage_ = 0;

  // Background message counting: all agents repeatedly all-reduce the
  // cumulative counters of the PREVIOUS round's colour; zero means every
  // message of that colour — including stragglers sent after the last
  // round's broadcast — has arrived (accumulateMsgCountersAcrossNodes).
  if (counts()) {
    const std::int64_t& old_counter = counter_[idx(flip(cur_color_))];
    while (true) {
      bool pump = false;
      co_await node_.mpi_progress(&pump);
      if (self != nullptr) {
        // Combined placement: the agent is also a worker — its own inboxes
        // must keep draining or the count would never reach zero.
        co_await node_.drain_inboxes(*self, &pump);
      }
      const std::int64_t total = co_await node_.fabric().allreduce_sum(old_counter);
      CAGVT_CHECK_MSG(total >= 0, "colour message accounting went negative");
      if (total == 0) break;
    }
    counting_done_ = true;
    phase_ = Phase::kCollect;
    node_.trace().phase_change(node_.rank(), round_, "collect");
  }

  // Originate the Collect circulation at rank 0 once every local thread
  // has contributed (circulateGlobalCM).
  if (originates()) {
    MatternToken token;
    token.phase = MatternToken::Phase::kCollect;
    token.round = round_;
    token.visits = 1;
    fold_node_into(token);
    collect_forwarded_ = true;
    if (node_.fabric().nranks() == 1) {
      co_await complete_collect(token);
    } else {
      co_await send_token(token);
    }
  }

  // Advance a held token.
  if (token_moves()) {
    MatternToken token = held_;
    have_token_ = false;
    if (token.phase == MatternToken::Phase::kBroadcast) {
      apply_broadcast(token);
      ++token.visits;
      if (token.visits < node_.fabric().nranks()) co_await send_token(token);
    } else if (node_.rank() == 0) {
      // Full circle: compute the GVT and start the broadcast.
      CAGVT_CHECK(collect_forwarded_ && token.visits == node_.fabric().nranks());
      co_await complete_collect(token);
    } else {
      fold_node_into(token);
      ++token.visits;
      collect_forwarded_ = true;
      co_await send_token(token);
    }
  }
}

}  // namespace cagvt::core
