// GVT algorithm strategy interface.
//
// One instance per node. Instances coordinate across nodes exclusively via
// virtual-MPI traffic (tokens, collectives) — there is no shared-state
// shortcut, so the algorithms pay the same communication costs their real
// counterparts would.
//
// Call sites (driven by NodeRuntime):
//  * on_send/on_recv  — synchronous hooks on every off-thread event
//                       message at the moment a worker sends/reads it
//                       (message colouring + counting).
//  * worker_tick      — once per worker loop iteration; runs rounds, may
//                       block the worker (barriers) or be a cheap no-op.
//  * agent_tick       — once per MPI-agent progress iteration. The agent
//                       is the dedicated MPI thread when one exists,
//                       otherwise worker 0 (which then performs agent
//                       duties inside its own worker_tick).
//  * on_token         — a Mattern-style control message arrived.
//  * *_tick_is_noop   — asked before an idle poll is elided: each step of a
//                       tick runs under a named guard that always has an
//                       effect when it holds, so the query is "no guard
//                       holds" (DESIGN §8).
#pragma once

#include <memory>

#include "core/config.hpp"
#include "core/gvt_policy.hpp"
#include "core/messages.hpp"
#include "metasim/process.hpp"
#include "pdes/event.hpp"

namespace cagvt::core {

class NodeRuntime;
struct WorkerCtx;

struct GvtAlgoStats {
  std::uint64_t rounds = 0;       // GVT rounds completed at this node
  std::uint64_t sync_rounds = 0;  // rounds executed with added synchrony (CA)
  /// Rounds that ran asynchronously but under the policy's execution clamp
  /// (SyncTier::kThrottle — the deferred-escalation middle tier).
  std::uint64_t throttle_rounds = 0;
  metasim::SimTime round_time_total = 0;  // wall time spanned by rounds
};

class GvtAlgorithm {
 public:
  explicit GvtAlgorithm(NodeRuntime& node) : node_(node) {}
  virtual ~GvtAlgorithm() = default;
  GvtAlgorithm(const GvtAlgorithm&) = delete;
  GvtAlgorithm& operator=(const GvtAlgorithm&) = delete;

  virtual void on_send(WorkerCtx& worker, pdes::Event& event) = 0;
  virtual void on_recv(WorkerCtx& worker, const pdes::Event& event) = 0;
  virtual metasim::Process worker_tick(WorkerCtx& worker) = 0;
  /// `self` is the worker carrying MPI duty when the agent runs inline
  /// (combined/everywhere placements); nullptr on a dedicated MPI thread.
  virtual metasim::Process agent_tick(WorkerCtx* self) = 0;
  virtual void on_token(const MatternToken& token) = 0;

  /// Idle-poll elision: would worker_tick(worker) change and schedule
  /// nothing? The elided iteration has already counted itself, so interval
  /// guards are asked with iters_since_round + 1.
  virtual bool worker_tick_is_noop(const WorkerCtx& worker) const = 0;
  /// The same question for agent_tick(self).
  virtual bool agent_tick_is_noop(const WorkerCtx* self) const = 0;

  /// May the MPI agent exit once the node has stopped? Guards against
  /// leaving a round's cross-node protocol half-finished.
  virtual bool agent_done() const { return true; }

  /// Force every round to run in its fully synchronous form (all in-flight
  /// messages drained before the reduction). The bounded-window
  /// conservative executor requires this: its window advance is only safe
  /// against a GVT with nothing in transit. Barrier GVT is already fully
  /// synchronous, so the default is a no-op; Mattern-family algorithms
  /// override it.
  virtual void set_always_sync() {}

  /// Should this worker pause event processing right now? CA-GVT's
  /// synchronous rounds quiesce processing (like Barrier GVT) so the
  /// round's message flush actually converges and thread progress aligns.
  virtual bool worker_held(const WorkerCtx& worker) const {
    (void)worker;
    return false;
  }

  /// May this worker exit once the node has stopped? Asynchronous
  /// algorithms hold workers until they have adopted the final round's
  /// GVT (so cross-node barriers/rings complete cleanly).
  virtual bool worker_done(const WorkerCtx& worker) const {
    (void)worker;
    return true;
  }

  const GvtAlgoStats& stats() const { return stats_; }

 protected:
  /// Tier-occupancy accounting shared by the Mattern family and the epoch
  /// pipeline: call once per completed round/epoch with the tier it
  /// actually ran at (plan-forced synchronous rounds count as kSync).
  /// Bumps stats_ and the gvt.tier.* metrics, and mirrors the current tier
  /// into the gvt.tier gauge.
  void note_round_tier(SyncTier tier);

  NodeRuntime& node_;
  GvtAlgoStats stats_;
};

std::unique_ptr<GvtAlgorithm> make_gvt(GvtKind kind, NodeRuntime& node);

}  // namespace cagvt::core
