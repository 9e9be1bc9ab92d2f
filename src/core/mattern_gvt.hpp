// Asynchronous Mattern GVT — the paper's Algorithm 2, adapted (as the
// paper does) to a two-level cluster of many-core nodes:
//
//  * Message colouring: every off-thread event message carries its
//    sender's colour, and colours ALTERNATE from round to round (Mattern's
//    repeated-cut scheme). Each colour keeps a per-node cumulative counter
//    (sent - received); a round drains the PREVIOUS round's colour to zero
//    before collecting, while messages of the current colour contribute
//    their receive timestamp to the sender's min_red. Alternation is what
//    makes repeated rounds sound: a current-colour message still in flight
//    when this round's broadcast lands (possible — senders keep simulating
//    after contributing) is exactly what the NEXT round's counting phase
//    waits for. With a single colour pair that never alternated, such a
//    message would be invisible to every later round and GVT could overrun
//    it — a hole that real perturbed timing (stragglers) does expose.
//  * A GVT round flips every thread to the round's colour
//    (interval-triggered; threads do NOT block — they keep simulating
//    throughout).
//  * Counting across nodes runs as a background MPI reduction on the
//    MPI agents (the paper's accumulateMsgCountersAcrossNodes): the agents
//    repeatedly all-reduce the previous colour's cumulative counters until
//    the global sum reaches zero — i.e. every message of the old colour
//    has been received.
//  * Then a control message circulates the node ring (circulateGlobalCM):
//    a Collect pass gathers min LVT / min red (each node folds in its
//    values once all its threads contributed to the node-shared control
//    structure), and a Broadcast pass distributes GVT = min(LVT, min_red).
//  * Threads adopt the GVT and fossil-collect; they keep the round's
//    colour until they join the next round.
//
// CA-GVT (Algorithm 3) derives from this class and injects its conditional
// barriers and efficiency bookkeeping through the protected hooks.
#pragma once

#include "core/gvt.hpp"
#include "core/gvt_policy.hpp"
#include "core/node_runtime.hpp"

namespace cagvt::core {

class MatternGvt : public GvtAlgorithm {
 public:
  explicit MatternGvt(NodeRuntime& node)
      : GvtAlgorithm(node),
        cm_mutex_(node.engine(), node.cfg().cluster.lock_acquire,
                  node.cfg().cluster.lock_handoff) {}

  void on_send(WorkerCtx& worker, pdes::Event& event) override {
    event.color = worker.gvt.color;
    ++counter_[idx(event.color)];
    // Current-colour sends feed min_red; old-colour sends (a thread that
    // has not joined the round yet) are covered by the counting drain.
    // Conservative control messages (kNull/kNullRequest) are counted for
    // the drain but excluded from the minimum: they never touch LP state —
    // a null merely unlocks pending events, which min_lvt already accounts
    // for — and a demand request propagated upstream carries X - k*la,
    // which may legitimately sit below the adopted GVT. Cancelbacks ARE
    // included: they carry a live simulation event back to its sender.
    if ((event.kind == pdes::MsgKind::kEvent ||
         event.kind == pdes::MsgKind::kCancelback) &&
        event.color == cur_color_ && event.recv_ts < worker.gvt.min_red)
      worker.gvt.min_red = event.recv_ts;
  }

  void on_recv(WorkerCtx& worker, const pdes::Event& event) override {
    (void)worker;
    --counter_[idx(event.color)];
  }

  metasim::Process worker_tick(WorkerCtx& worker) override;
  metasim::Process agent_tick(WorkerCtx* self) override;
  bool worker_tick_is_noop(const WorkerCtx& worker) const override {
    return !(opens_round(worker.gvt.iters_since_round + 1) || joins(worker) ||
             node_.reads_held(worker) || contributes(worker) || adopts(worker));
  }
  bool agent_tick_is_noop(const WorkerCtx* self) const override {
    (void)self;
    return !(agent_barrier_due() || resets_stage() || counts() || originates() ||
             token_moves());
  }

  void on_token(const MatternToken& token) override {
    CAGVT_CHECK_MSG(!have_token_, "two GVT control messages at one node");
    held_ = token;
    have_token_ = true;
  }

  bool worker_done(const WorkerCtx& worker) const override {
    return phase_ == Phase::kIdle || worker.gvt.adopted;
  }

  /// During a CA-GVT synchronous round, joined workers pause event
  /// processing until they have adopted — the round then behaves like a
  /// Barrier GVT round (full message flush, aligned resume). (`adopted`
  /// is cleared when a worker joins and set at broadcast, so it is the
  /// "in the active round" marker now that colours persist across rounds.)
  bool worker_held(const WorkerCtx& worker) const override {
    return sync_round_active_ && !worker.gvt.adopted && worker.gvt.color == cur_color_;
  }
  bool agent_done() const override { return phase_ == Phase::kIdle; }

  /// Window-mode conservative execution: every round runs with the full
  /// synchronous barrier set, draining all in-flight messages, so the
  /// reduced GVT is safe to advance the window against.
  void set_always_sync() override { always_sync_ = true; }

  // Introspection (tests, experiment reports).
  double last_gvt() const { return gvt_value_; }
  double last_global_efficiency() const { return efficiency_.value(); }
  std::uint64_t rounds_started() const { return round_; }

 protected:
  enum class Phase : std::uint8_t {
    kIdle,       // between rounds, all threads carry the last round's colour
    kRed,        // threads flipping colour / background old-colour counting
    kCollect,    // counting done; threads contribute LVT & min_red
    kBroadcast,  // GVT known; threads adopt
  };

  // --- CA-GVT extension hooks --------------------------------------------
  /// Which tier should the NEXT round run at, given the smoothed global
  /// efficiency and the cluster-wide peak MPI queue occupancy measured this
  /// round? Called exactly once per round at rank 0 (the decision rides the
  /// broadcast token), so a stateful policy sees every round's window.
  /// Plain Mattern never intervenes.
  virtual SyncDecision decide_tier(double efficiency, std::uint64_t queue_peak) {
    (void)efficiency;
    (void)queue_peak;
    return {};
  }
  /// Extra per-thread cost of the round's efficiency bookkeeping.
  virtual metasim::SimTime contribute_overhead() const { return 0; }

  Phase phase() const { return phase_; }
  bool sync_round_active() const { return sync_round_active_; }

  Phase phase_ = Phase::kIdle;

 private:
  /// Dedicated MPI thread's side of one synchronous-round barrier, traced
  /// with worker = -1 (the agent track).
  metasim::Process agent_barrier(const char* which);
  void begin_round();
  void finish_round();
  void fold_node_into(MatternToken& token);
  void apply_broadcast(const MatternToken& token);
  metasim::Process complete_collect(MatternToken token);  // at rank 0
  metasim::Process send_token(MatternToken token);
  /// `which` names the CA barrier point for the trace ("pre-red",
  /// "pre-collect", "post-fossil"); `worker` indexes the arriving thread
  /// (-1 for a dedicated MPI agent).
  metasim::Process sys_barrier(bool agent_side, int worker, const char* which);

  // --- step guards: each step of the two ticks runs under one (gvt.hpp) ---
  bool opens_round(int iters) const { return phase_ == Phase::kIdle && node_.round_due(iters); }
  bool joins(const WorkerCtx& worker) const {
    return phase_ == Phase::kRed && worker.gvt.color != cur_color_;
  }
  bool contributes(const WorkerCtx& worker) const {
    return phase_ == Phase::kCollect && worker.gvt.color == cur_color_ &&
           !worker.gvt.contributed;
  }
  bool adopts(const WorkerCtx& worker) const {
    return phase_ == Phase::kBroadcast && worker.gvt.color == cur_color_ &&
           !worker.gvt.adopted;
  }
  /// The round has reached the dedicated agent's barrier `stage`: 0 before
  /// white->red, 1 before contributions, 2 after fossil / ckpt / rewind.
  bool stage_reached(int stage) const {
    return stage == 0   ? phase_ != Phase::kIdle
           : stage == 1 ? phase_ == Phase::kCollect
                        : stage == 2 && phase_ == Phase::kBroadcast;
  }
  bool agent_barrier_due() const {
    return node_.cfg().has_dedicated_mpi() && sync_round_active_ && stage_reached(agent_stage_);
  }
  bool resets_stage() const { return phase_ == Phase::kIdle && agent_stage_ != 0; }
  bool counts() const {
    return phase_ == Phase::kRed && red_count_ == node_.cfg().workers_per_node() &&
           !counting_done_;
  }
  bool can_forward() const {
    return phase_ == Phase::kCollect && contributions_ == node_.cfg().workers_per_node() &&
           !collect_forwarded_;
  }
  bool originates() const { return node_.rank() == 0 && can_forward(); }
  /// A held Collect token at rank > 0 waits for can_forward.
  bool token_moves() const {
    return have_token_ && (held_.phase == MatternToken::Phase::kBroadcast ||
                           node_.rank() == 0 || can_forward());
  }

  static int idx(pdes::Color c) { return static_cast<int>(c); }
  static pdes::Color flip(pdes::Color c) {
    return c == pdes::Color::kWhite ? pdes::Color::kRed : pdes::Color::kWhite;
  }

  // Per-node shared control structure (the paper's node-level CM), guarded
  // by a contended lock like the real shared-memory structure would be.
  metasim::Mutex cm_mutex_;
  // Cumulative (sent - received) per message colour. The colour a round
  // flips threads TO alternates round to round; the counting phase drains
  // the opposite (previous) colour.
  std::int64_t counter_[2] = {0, 0};
  pdes::Color cur_color_ = pdes::Color::kWhite;
  int red_count_ = 0;
  bool counting_done_ = false;
  double node_min_lvt_ = pdes::kVtInfinity;
  double node_min_red_ = pdes::kVtInfinity;
  std::uint64_t node_committed_ = 0;
  std::uint64_t node_processed_ = 0;
  int contributions_ = 0;
  bool collect_forwarded_ = false;
  int adopted_count_ = 0;

  double gvt_value_ = 0;
  /// Tier decided for the next round (broadcast by rank 0 in the token).
  SyncTier pending_tier_ = SyncTier::kAsync;
  /// Tier in effect for the round currently being opened (the SyncFlag of
  /// Algorithm 3, generalized: kSync adds the conditional barriers, while
  /// kThrottle only keeps the execution clamp engaged).
  SyncTier tier_flag_ = SyncTier::kAsync;
  bool always_sync_ = false;        // window-mode: every round synchronous
  bool sync_round_active_ = false;  // this round runs the barrier set
  EfficiencyEstimator efficiency_;  // EWMA of per-round decided efficiency

  /// What this round does besides GVT (checkpoint / restore). Checkpoint
  /// and restore rounds are forced synchronous: the post-fossil barrier is
  /// what makes the cut quiescent (no sends between the snapshot/rewind
  /// and the barrier release).
  RoundPlan plan_ = RoundPlan::kNormal;
  /// The load balancer committed a migration plan to this round. Migration
  /// rounds are forced synchronous for the same reason checkpoints are: the
  /// post-fossil barrier holds every worker while the last fence arrival
  /// moves LP packages and bumps the owner table.
  bool lb_moves_ = false;
  bool restore_cleared_ = false;  // first restorer zeroed the colour counters
  /// Which of a synchronous round's three barriers the dedicated MPI
  /// thread has joined (combined placement joins inline as a worker).
  int agent_stage_ = 0;

  std::uint64_t round_ = 0;
  metasim::SimTime round_started_ = 0;
  bool have_token_ = false;
  MatternToken held_;
};

}  // namespace cagvt::core
