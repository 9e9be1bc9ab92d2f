// Structured trace recorder for GVT and Time Warp internals.
//
// A TraceRecorder collects typed, timestamped records of everything the
// paper's causal story is built from: GVT round lifecycle (white->red
// transitions, barrier entry/exit, ring circulation legs), CA-GVT mode
// switches with the efficiency/queue-occupancy values that triggered them,
// rollback episodes (LP, depth, cause), fossil collections, and virtual-MPI
// sends/receives. Records are stamped with metasim virtual wall-clock time
// (via a clock callback installed by the simulation facade) and a
// deterministic global sequence number, so identical seeds produce
// byte-identical traces through the exporters (see export.hpp).
//
// The recorder is measurement-only: emitting a record consumes no simulated
// time and never perturbs the run. When disabled (the default), every emit
// method is a single predictable branch.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace cagvt::obs {

/// What a trace record describes. Kind-specific payload fields are
/// documented on the typed emit methods below.
enum class RecordKind : std::uint8_t {
  kRoundBegin,   // a GVT round started at this node
  kRoundEnd,     // the round completed (GVT adopted by every local worker)
  kPhaseChange,  // node-level round phase transition (label = phase name)
  kWhiteRed,     // a worker turned red (joined the round)
  kBarrierEnter, // a thread arrived at a GVT barrier (label = which)
  kBarrierExit,  // ... and was released
  kRingLeg,      // the Mattern control message left this rank (label = pass)
  kGvtComputed,  // rank 0 computed the round's GVT (a = gvt, b = efficiency)
  kModeSwitch,   // CA-GVT flipped sync<->async (a = efficiency, u = queue peak)
  kRollback,     // rollback episode (u = LP, value = depth, label = cause)
  kFossil,       // fossil collection (a = gvt, value = newly committed)
  kMpiSend,      // vmpi isend (u = dst rank, value = bytes, label = class)
  kMpiRecv,      // vmpi inbox pop (u = src rank hint or 0, label = class)
  kFaultOn,      // injected fault window opened (a = magnitude, u = spec
                 // index, label = fault kind)
  kFaultOff,     // ... and closed
  kCkptWrite,    // GVT-aligned checkpoint written (a = gvt, value = bytes)
  kCrash,        // node went down (a = restart time, u = spec index)
  kRestore,      // node reloaded a checkpoint (a = restored gvt,
                 // u = checkpoint round, value = bytes)
  kRetransmit,   // reliable transport resent an unacked frame (u = dst rank,
                 // value = bytes, label = stream class)
  kLbRoughness,  // per-round LVT roughness sample (a = width, b = smoothed
                 // width, value = 1 if the balancer triggered)
  kLbMigrate,    // one LP moved at a GVT fence (u = LP, a = src worker,
                 // b = dst worker, value = package bytes)
  kFlowPressure, // a worker's event-pool pressure tier changed (u = tier
                 // 0/1/2, a = pool occupancy, b = effective budget)
  kFlowStorm,    // rollback-storm detector flipped (value = 1 start / 0 end,
                 // a = secondary-rollback EWMA, b = depth EWMA)
  kFlowCancelback, // a batch of pending events was returned to senders
                 // (value = events in the batch)
};

const char* to_string(RecordKind kind);

/// One trace record. The typed emit methods fill the kind-specific subset
/// of the payload fields; unused fields stay zero so serialized records are
/// fully determined by the emitting call.
struct TraceRecord {
  std::int64_t t = 0;        // metasim wall-clock nanoseconds
  std::uint64_t seq = 0;     // deterministic global sequence number
  RecordKind kind{};
  std::int16_t node = -1;    // simulated node (MPI rank), -1 = cluster scope
  std::int16_t worker = -1;  // worker index in node, -1 = node/agent scope
  std::uint64_t round = 0;   // GVT round the record belongs to (0 = none)
  double a = 0;              // kind-specific (gvt value, efficiency, ...)
  double b = 0;
  std::uint64_t u = 0;       // kind-specific id (LP, rank, queue peak, ...)
  std::int64_t value = 0;    // kind-specific magnitude (depth, bytes, count)
  const char* label = "";    // static string; never owned
};

class TraceRecorder {
 public:
  /// A disabled recorder ignores every emit. `capacity` bounds memory for
  /// long runs; records past it are counted in dropped() instead of stored.
  explicit TraceRecorder(bool enabled = false, std::size_t capacity = 1u << 22)
      : enabled_(enabled), capacity_(capacity) {}

  bool enabled() const { return enabled_; }

  /// Install the simulated-time source (the facade passes the engine's
  /// now()). Without a clock, records are stamped t = 0.
  void set_clock(std::function<std::int64_t()> clock) { clock_ = std::move(clock); }

  /// Drop all records and state so a fresh run starts from sequence 0.
  void reset() {
    records_.clear();
    dropped_ = 0;
    seq_ = 0;
  }

  // --- typed emitters ------------------------------------------------------
  void round_begin(int node, std::uint64_t round, bool sync) {
    emit({.kind = RecordKind::kRoundBegin, .node = narrow(node), .round = round,
          .value = sync ? 1 : 0, .label = sync ? "sync" : "async"});
  }
  void round_end(int node, std::uint64_t round) {
    emit({.kind = RecordKind::kRoundEnd, .node = narrow(node), .round = round});
  }
  void phase_change(int node, std::uint64_t round, const char* phase) {
    emit({.kind = RecordKind::kPhaseChange, .node = narrow(node), .round = round,
          .label = phase});
  }
  void white_red(int node, int worker, std::uint64_t round) {
    emit({.kind = RecordKind::kWhiteRed, .node = narrow(node), .worker = narrow(worker),
          .round = round});
  }
  void barrier_enter(int node, int worker, std::uint64_t round, const char* which) {
    emit({.kind = RecordKind::kBarrierEnter, .node = narrow(node),
          .worker = narrow(worker), .round = round, .label = which});
  }
  void barrier_exit(int node, int worker, std::uint64_t round, const char* which) {
    emit({.kind = RecordKind::kBarrierExit, .node = narrow(node),
          .worker = narrow(worker), .round = round, .label = which});
  }
  void ring_leg(int node, std::uint64_t round, int dst, const char* pass) {
    emit({.kind = RecordKind::kRingLeg, .node = narrow(node), .round = round,
          .u = static_cast<std::uint64_t>(dst), .label = pass});
  }
  void gvt_computed(int node, std::uint64_t round, double gvt, double efficiency,
                    std::uint64_t queue_peak) {
    emit({.kind = RecordKind::kGvtComputed, .node = narrow(node), .round = round,
          .a = gvt, .b = efficiency, .u = queue_peak});
  }
  /// CA-GVT decided the NEXT round's mode differs from the current flag.
  /// `efficiency` and `queue_peak` are the triggering measurements.
  void mode_switch(int node, std::uint64_t round, bool to_sync, double efficiency,
                   std::uint64_t queue_peak) {
    emit({.kind = RecordKind::kModeSwitch, .node = narrow(node), .round = round,
          .a = efficiency, .u = queue_peak, .value = to_sync ? 1 : 0,
          .label = to_sync ? "to-sync" : "to-async"});
  }
  void rollback(int node, int worker, std::uint64_t lp, std::int64_t depth,
                const char* cause) {
    emit({.kind = RecordKind::kRollback, .node = narrow(node), .worker = narrow(worker),
          .u = lp, .value = depth, .label = cause});
  }
  void fossil(int node, int worker, double gvt, std::int64_t committed) {
    emit({.kind = RecordKind::kFossil, .node = narrow(node), .worker = narrow(worker),
          .a = gvt, .value = committed});
  }
  void mpi_send(int node, int dst, std::int64_t bytes, const char* msg_class) {
    emit({.kind = RecordKind::kMpiSend, .node = narrow(node),
          .u = static_cast<std::uint64_t>(dst), .value = bytes, .label = msg_class});
  }
  /// `worker` is the thread that drained the inbox (-1 = dedicated agent).
  void mpi_recv(int node, int worker, const char* msg_class) {
    emit({.kind = RecordKind::kMpiRecv, .node = narrow(node), .worker = narrow(worker),
          .label = msg_class});
  }
  /// An injected perturbation window opened on `node` (src/fault).
  /// `magnitude` is the fault's headline factor (CPU slowdown, latency
  /// inflation; 0 for stalls); `fault_id` is the spec's schedule index.
  void fault_on(int node, const char* kind, double magnitude, std::uint64_t fault_id) {
    emit({.kind = RecordKind::kFaultOn, .node = narrow(node), .a = magnitude,
          .u = fault_id, .label = kind});
  }
  void fault_off(int node, const char* kind, std::uint64_t fault_id) {
    emit({.kind = RecordKind::kFaultOff, .node = narrow(node), .u = fault_id,
          .label = kind});
  }
  /// A worker deposited its slice of a GVT-aligned checkpoint.
  void ckpt_write(int node, int worker, std::uint64_t round, double gvt,
                  std::int64_t bytes) {
    emit({.kind = RecordKind::kCkptWrite, .node = narrow(node), .worker = narrow(worker),
          .round = round, .a = gvt, .value = bytes});
  }
  /// `node` crashed; `restart_at` is when its fault window ends.
  void crash(int node, std::int64_t restart_at, std::uint64_t fault_id) {
    emit({.kind = RecordKind::kCrash, .node = narrow(node),
          .a = static_cast<double>(restart_at), .u = fault_id});
  }
  /// A worker reloaded its slice of checkpoint `ckpt_round` (gvt = the
  /// recovery line the cluster rolled back to).
  void restore(int node, int worker, std::uint64_t round, std::uint64_t ckpt_round,
               double gvt, std::int64_t bytes) {
    emit({.kind = RecordKind::kRestore, .node = narrow(node), .worker = narrow(worker),
          .round = round, .a = gvt, .u = ckpt_round, .value = bytes});
  }
  /// The reliable transport resent an unacked frame to `dst`.
  void retransmit(int node, int dst, std::int64_t bytes, const char* stream) {
    emit({.kind = RecordKind::kRetransmit, .node = narrow(node),
          .u = static_cast<std::uint64_t>(dst), .value = bytes, .label = stream});
  }
  /// One round's LVT roughness (time-horizon width) sample, cluster scope.
  void lb_roughness(std::uint64_t round, double width, double smoothed, bool triggered) {
    emit({.kind = RecordKind::kLbRoughness, .round = round, .a = width, .b = smoothed,
          .value = triggered ? 1 : 0});
  }
  /// One LP migrated from `src_worker` to `dst_worker` at round's fence.
  void lb_migrate(std::uint64_t round, std::uint64_t lp, int src_worker, int dst_worker,
                  std::int64_t bytes) {
    emit({.kind = RecordKind::kLbMigrate, .round = round,
          .a = static_cast<double>(src_worker), .b = static_cast<double>(dst_worker),
          .u = lp, .value = bytes});
  }
  /// `worker`'s event-pool pressure crossed a tier boundary (src/flow).
  void flow_pressure(int worker, std::uint64_t round, int tier, std::int64_t pool,
                     std::int64_t budget) {
    emit({.kind = RecordKind::kFlowPressure, .worker = narrow(worker), .round = round,
          .a = static_cast<double>(pool), .b = static_cast<double>(budget),
          .u = static_cast<std::uint64_t>(tier),
          .label = tier == 2 ? "red" : tier == 1 ? "yellow" : "green"});
  }
  /// `worker`'s rollback-storm detector engaged (`start`) or released.
  void flow_storm(int worker, std::uint64_t round, bool start, double secondary_ewma,
                  double depth_ewma) {
    emit({.kind = RecordKind::kFlowStorm, .worker = narrow(worker), .round = round,
          .a = secondary_ewma, .b = depth_ewma, .value = start ? 1 : 0,
          .label = start ? "start" : "end"});
  }
  /// `worker` returned `count` pending events to their senders.
  void flow_cancelback(int worker, std::uint64_t round, std::int64_t count) {
    emit({.kind = RecordKind::kFlowCancelback, .worker = narrow(worker), .round = round,
          .value = count});
  }

  // --- inspection ----------------------------------------------------------
  const std::vector<TraceRecord>& records() const { return records_; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  static std::int16_t narrow(int v) { return static_cast<std::int16_t>(v); }

  void emit(TraceRecord rec) {
    if (!enabled_) return;
    if (records_.size() >= capacity_) {
      ++dropped_;
      return;
    }
    rec.t = clock_ ? clock_() : 0;
    rec.seq = seq_++;
    records_.push_back(rec);
  }

  bool enabled_;
  std::size_t capacity_;
  std::function<std::int64_t()> clock_;
  std::vector<TraceRecord> records_;
  std::uint64_t dropped_ = 0;
  std::uint64_t seq_ = 0;
};

}  // namespace cagvt::obs
