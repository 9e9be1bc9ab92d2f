#include "core/barrier_gvt.hpp"

namespace cagvt::core {

using metasim::delay;
using metasim::Process;

Process BarrierGvt::worker_tick(WorkerCtx& worker) {
  if (!node_.round_due(worker.gvt.iters_since_round)) co_return;
  worker.gvt.iters_since_round = 0;

  // In combined/everywhere placements worker 0 doubles as the MPI agent
  // and performs the cross-node steps of the round inline.
  const bool agent_inline = worker.mpi_duty && !node_.cfg().has_dedicated_mpi();
  if (!round_active_) {
    round_active_ = true;  // signals the dedicated MPI thread to join
    if (node_.flow() != nullptr) node_.flow()->note_round_begin();
    round_started_ = node_.engine().now();
    if (node_.recovery() != nullptr) plan_ = node_.recovery()->plan_round(round_no_ + 1);
    // First worker to open the round also fixes whether the balancer's
    // pending migration plan executes at this round's fence (restore
    // rounds never migrate — the plan describes the discarded timeline).
    lb_moves_ = plan_ != RoundPlan::kRestore && node_.lb() != nullptr &&
                node_.lb()->round_has_moves(round_no_ + 1);
    node_.trace().round_begin(node_.rank(), round_no_ + 1, /*sync=*/true);
  }
  auto& collectives = node_.collectives();

  // Phase 1: block until no event message is in transit anywhere.
  // Messages are read (counted) but their rollback processing is deferred
  // past the round, as in ROSS — otherwise cascades would keep the round
  // alive.
  node_.trace().barrier_enter(node_.rank(), worker.index_in_node, round_no_ + 1,
                              "transit-count");
  while (true) {
    co_await node_.read_messages_deferred(worker);  // ReadMessages()
    if (agent_inline) {
      bool pump = false;
      co_await node_.mpi_progress(&pump);  // keep remote messages moving
    }
    const std::int64_t msg_count = worker.gvt.msgs_sent - worker.gvt.msgs_recv;
    if (agent_inline) {
      co_await collectives.sum_agent(msg_count);
    } else {
      co_await collectives.sum(msg_count);
    }
    if (collectives.last_sum() == 0) break;
  }
  node_.trace().barrier_exit(node_.rank(), worker.index_in_node, round_no_ + 1,
                             "transit-count");

  // Restore round: the transit count just drained every in-flight message
  // (including retransmits held back by the crash), so the cut is
  // quiescent — rewind instead of computing and adopting a GVT. The fence
  // barrier keeps every node's rewind and transport reset ahead of any
  // post-round send.
  if (plan_ == RoundPlan::kRestore) {
    const std::uint64_t round = round_no_;
    co_await node_.restore_worker(worker, round + 1);
    node_.trace().barrier_enter(node_.rank(), worker.index_in_node, round + 1,
                                "restore-fence");
    if (agent_inline) {
      co_await collectives.barrier_agent();
    } else {
      co_await collectives.barrier();
    }
    node_.trace().barrier_exit(node_.rank(), worker.index_in_node, round + 1,
                               "restore-fence");
    if (agent_inline) close_round();
    co_await node_.flush_round_buffer(worker);
    co_return;
  }

  // Phase 2: reduce the minimum local virtual position into the GVT.
  // (Round index snapshotted before the barrier: the agent may close the
  // round while adopters are still running at the same timestamp.)
  const std::uint64_t round = round_no_;
  const double local_min = NodeRuntime::worker_min_ts(worker);
  node_.trace().barrier_enter(node_.rank(), worker.index_in_node, round + 1,
                              "min-reduce");
  if (agent_inline) {
    co_await collectives.min_agent(local_min);
  } else {
    co_await collectives.min(local_min);
  }
  node_.trace().barrier_exit(node_.rank(), worker.index_in_node, round + 1,
                             "min-reduce");
  const double gvt = collectives.last_min();
  if (agent_inline)
    node_.trace().gvt_computed(node_.rank(), round + 1, gvt, 0.0, 0);

  const std::uint64_t committed = node_.adopt_gvt(worker, gvt, round);
  co_await delay(node_.cfg().cluster.fossil_per_event *
                 static_cast<metasim::SimTime>(committed));
  if (plan_ == RoundPlan::kCheckpoint) {
    co_await node_.checkpoint_worker(worker, round + 1, gvt);
    // Fence the snapshot (kernel + transport cursors) from the round's
    // flush: a send slipping in before a slower node's transport snapshot
    // would tear the checkpoint's sequence-number cut.
    node_.trace().barrier_enter(node_.rank(), worker.index_in_node, round + 1,
                                "ckpt-fence");
    if (agent_inline) {
      co_await collectives.barrier_agent();
    } else {
      co_await collectives.barrier();
    }
    node_.trace().barrier_exit(node_.rank(), worker.index_in_node, round + 1,
                               "ckpt-fence");
  }
  if (lb_moves_) {
    // Migrations execute at the same quiesced cut, after any checkpoint
    // captured the pre-move placement. The fence barrier keeps every
    // worker's post-round sends behind the owner-table bump.
    co_await node_.apply_migrations(worker, round + 1);
    node_.trace().barrier_enter(node_.rank(), worker.index_in_node, round + 1,
                                "lb-fence");
    if (agent_inline) {
      co_await collectives.barrier_agent();
    } else {
      co_await collectives.barrier();
    }
    node_.trace().barrier_exit(node_.rank(), worker.index_in_node, round + 1,
                               "lb-fence");
  }
  if (agent_inline) close_round();
  // Round over: hand the buffered messages to the engine (rollbacks and
  // their anti-messages happen now, as post-round traffic).
  co_await node_.flush_round_buffer(worker);
}

Process BarrierGvt::agent_tick(WorkerCtx* self) {
  (void)self;
  if (!agent_joins()) co_return;

  auto& collectives = node_.collectives();
  node_.trace().barrier_enter(node_.rank(), -1, round_no_ + 1, "transit-count");
  while (true) {
    bool pump = false;
    co_await node_.mpi_progress(&pump);
    co_await collectives.sum_agent(0);  // the MPI thread owns no LPs
    if (collectives.last_sum() == 0) break;
  }
  node_.trace().barrier_exit(node_.rank(), -1, round_no_ + 1, "transit-count");
  if (plan_ == RoundPlan::kRestore) {
    // Mirror the workers: no GVT this round, just the restore fence.
    node_.trace().barrier_enter(node_.rank(), -1, round_no_ + 1, "restore-fence");
    co_await collectives.barrier_agent();
    node_.trace().barrier_exit(node_.rank(), -1, round_no_ + 1, "restore-fence");
    close_round();
    co_return;
  }
  node_.trace().barrier_enter(node_.rank(), -1, round_no_ + 1, "min-reduce");
  co_await collectives.min_agent(pdes::kVtInfinity);
  node_.trace().barrier_exit(node_.rank(), -1, round_no_ + 1, "min-reduce");
  if (plan_ == RoundPlan::kCheckpoint) {
    node_.trace().barrier_enter(node_.rank(), -1, round_no_ + 1, "ckpt-fence");
    co_await collectives.barrier_agent();
    node_.trace().barrier_exit(node_.rank(), -1, round_no_ + 1, "ckpt-fence");
  }
  if (lb_moves_) {
    node_.trace().barrier_enter(node_.rank(), -1, round_no_ + 1, "lb-fence");
    co_await collectives.barrier_agent();
    node_.trace().barrier_exit(node_.rank(), -1, round_no_ + 1, "lb-fence");
  }
  close_round();
}

}  // namespace cagvt::core
