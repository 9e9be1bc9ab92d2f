// Synchronous Barrier GVT — the paper's Algorithm 1.
//
// Every `gvt_interval` worker-loop iterations all threads of the cluster
// stop simulating and run the two-level "stop-synchronize-and-go" round:
//
//   loop:
//     ReadMessages()                         (drain inboxes, may roll back)
//     transitNode  = PthreadBarrierSum(sent - received)   (node level)
//     transitTotal = MpiBarrierSum(transitNode)           (MPI thread)
//     until transitTotal == 0                 (no in-transit messages left)
//   GVT = MpiBarrierMin(PthreadBarrierMin(local virtual position))
//   fossil collect
//
// The cost of the algorithm is the idle time of threads blocked at the
// barriers — measured by the ReduceBarrier/Fabric block-time counters.
#pragma once

#include "core/gvt.hpp"
#include "core/node_runtime.hpp"

namespace cagvt::core {

class BarrierGvt final : public GvtAlgorithm {
 public:
  using GvtAlgorithm::GvtAlgorithm;

  void on_send(WorkerCtx& worker, pdes::Event& event) override {
    // No colouring needed; counting uses the cumulative per-thread
    // sent/received counters maintained by NodeRuntime.
    (void)worker;
    (void)event;
  }
  void on_recv(WorkerCtx& worker, const pdes::Event& event) override {
    (void)worker;
    (void)event;
  }

  metasim::Process worker_tick(WorkerCtx& worker) override;
  metasim::Process agent_tick(WorkerCtx* self) override;
  bool agent_done() const override { return !round_active_; }

  bool worker_tick_is_noop(const WorkerCtx& worker) const override {
    return !node_.round_due(worker.gvt.iters_since_round + 1);
  }
  bool agent_tick_is_noop(const WorkerCtx* self) const override {
    (void)self;
    return !agent_joins();
  }

  void on_token(const MatternToken& token) override {
    (void)token;
    CAGVT_CHECK_MSG(false, "Barrier GVT uses collectives, not tokens");
  }

 private:
  bool round_active_ = false;
  std::uint64_t round_no_ = 0;
  metasim::SimTime round_started_ = 0;
  /// What this round does besides GVT (checkpoint / restore). Every
  /// Barrier round is already fully synchronous, but snapshot/rewind and
  /// message sends must still be fenced by an extra global barrier — see
  /// NodeRuntime::checkpoint_worker.
  RoundPlan plan_ = RoundPlan::kNormal;
  /// The load balancer committed a migration plan to this round; workers
  /// execute it after fossil collection (and any checkpoint) and fence it
  /// from the round's flush with an extra global barrier.
  bool lb_moves_ = false;

  /// agent_tick's guard: in combined/everywhere placements worker 0 runs
  /// the agent side of a round inline in worker_tick.
  bool agent_joins() const { return node_.cfg().has_dedicated_mpi() && round_active_; }

  void close_round() {
    ++round_no_;
    ++stats_.rounds;
    stats_.round_time_total += node_.engine().now() - round_started_;
    round_active_ = false;
    plan_ = RoundPlan::kNormal;
    lb_moves_ = false;
    node_.trace().round_end(node_.rank(), round_no_);
    node_.metrics().counter("gvt.rounds").inc();
  }
};

}  // namespace cagvt::core
