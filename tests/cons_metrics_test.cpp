// Unit tests for the CMB demand-driven protocol state machine and for the
// Kolakowska/Novotny update statistics the conservative executors export
// (worker-step utilization, null-message overhead, time-horizon width).
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cons/controller.hpp"
#include "core/simulation.hpp"
#include "models/phold.hpp"
#include "pdes/event.hpp"
#include "util/rng.hpp"

namespace cagvt::cons {
namespace {

using pdes::Event;
using pdes::MsgKind;

ConsConfig cmb_config() {
  ConsConfig cfg;
  cfg.kind = SyncKind::kCmb;
  return cfg;
}

/// A control event as a peer worker would have sent it.
Event control_from(const pdes::LpMap& map, MsgKind kind, int from_worker, int to_worker,
                   double ts) {
  Event e;
  e.recv_ts = ts;
  e.send_ts = ts;
  e.src_lp = map.lp_of(from_worker, 0);
  e.dst_lp = map.lp_of(to_worker, 0);
  e.kind = kind;
  return e;
}

TEST(ConsControllerTest, ZeroLookaheadThrows) {
  const pdes::LpMap map(1, 2, 1);
  try {
    Controller ctl(cmb_config(), map, /*lookahead=*/0.0, /*end_vt=*/10.0);
    FAIL() << "zero lookahead must be rejected";
  } catch (const std::invalid_argument& e) {
    // The error must tell the user how to fix it.
    EXPECT_NE(std::string(e.what()).find("min-delay"), std::string::npos) << e.what();
  }
}

TEST(ConsControllerTest, InitialBoundIsTheLookahead) {
  const pdes::LpMap map(1, 2, 1);
  Controller ctl(cmb_config(), map, /*lookahead=*/1.0, /*end_vt=*/10.0);
  EXPECT_DOUBLE_EQ(ctl.bound(0), 1.0);
  EXPECT_DOUBLE_EQ(ctl.bound(1), 1.0);
}

TEST(ConsControllerTest, BusyWorkerSendsNothing) {
  // Nulls are demand-driven: without a request on record, ticks emit zero
  // control traffic no matter how often they run.
  const pdes::LpMap map(1, 2, 1);
  Controller ctl(cmb_config(), map, 1.0, 10.0);
  std::vector<Event> out;
  for (int i = 0; i < 5; ++i) ctl.tick(0, /*pending_min=*/0.5, /*processed=*/3, out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(ctl.null_msgs(), 0u);
  EXPECT_EQ(ctl.req_msgs(), 0u);
}

TEST(ConsControllerTest, BlockedWorkerRequestsOncePerChannel) {
  const pdes::LpMap map(1, 2, 1);
  Controller ctl(cmb_config(), map, 1.0, 10.0);
  std::vector<Event> out;
  ctl.tick(0, /*pending_min=*/5.0, /*processed=*/0, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].kind, MsgKind::kNullRequest);
  EXPECT_DOUBLE_EQ(out[0].recv_ts, 5.0);
  EXPECT_EQ(map.worker_of(out[0].dst_lp), 1);

  // One outstanding request per channel: re-ticking the still-blocked
  // worker must not flood the peer.
  out.clear();
  for (int i = 0; i < 10; ++i) ctl.tick(0, 5.0, 0, out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(ctl.req_msgs(), 1u);
}

TEST(ConsControllerTest, NullAdvancesClockAndClearsOutstanding) {
  const pdes::LpMap map(1, 2, 1);
  Controller ctl(cmb_config(), map, 1.0, 10.0);
  std::vector<Event> out;
  ctl.tick(0, 5.0, 0, out);  // blocked -> request to worker 1
  out.clear();

  ctl.on_control(0, control_from(map, MsgKind::kNull, /*from=*/1, /*to=*/0, 6.0));
  EXPECT_DOUBLE_EQ(ctl.bound(0), 6.0);

  // The clock now covers the pending event: no further demand.
  ctl.tick(0, 5.0, 0, out);
  EXPECT_TRUE(out.empty());
}

TEST(ConsControllerTest, RequestServedWhenGuaranteeCovers) {
  const pdes::LpMap map(1, 2, 1);
  Controller ctl(cmb_config(), map, 1.0, 10.0);
  ctl.on_control(1, control_from(map, MsgKind::kNullRequest, /*from=*/0, /*to=*/1, 2.0));

  // Worker 1's guarantee is min(pending=3.0, clock=1.0) + la = 2.0 >= X.
  // (processed > 0 keeps its own blocked-branch demand out of the picture.)
  std::vector<Event> out;
  ctl.tick(1, /*pending_min=*/3.0, /*processed=*/1, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].kind, MsgKind::kNull);
  EXPECT_DOUBLE_EQ(out[0].recv_ts, 2.0);
  EXPECT_EQ(map.worker_of(out[0].dst_lp), 0);
  EXPECT_EQ(ctl.null_msgs(), 1u);

  // The demand is consumed; nothing further flows.
  out.clear();
  ctl.tick(1, 3.0, 1, out);
  EXPECT_TRUE(out.empty());
}

TEST(ConsControllerTest, UnsatisfiableDemandAdvertisesPartialAndPropagates) {
  const pdes::LpMap map(1, 3, 1);
  Controller ctl(cmb_config(), map, 1.0, 20.0);
  ctl.on_control(1, control_from(map, MsgKind::kNullRequest, /*from=*/0, /*to=*/1, 5.0));

  // A drained worker (no pending events of its own, so no blocked demand of
  // its own): the guarantee min(inf, clock=1) + 1 = 2 < 5, so worker 1
  // advertises the partial guarantee to the requester (the CMB ladder) and
  // propagates the reduced demand X - la = 4 to every channel capping it.
  std::vector<Event> out;
  ctl.tick(1, /*pending_min=*/pdes::kVtInfinity, /*processed=*/0, out);
  int nulls = 0, reqs = 0;
  for (const Event& e : out) {
    if (e.kind == MsgKind::kNull) {
      ++nulls;
      EXPECT_EQ(map.worker_of(e.dst_lp), 0);  // only the requester hears nulls
      EXPECT_DOUBLE_EQ(e.recv_ts, 2.0);
    } else {
      ++reqs;
      EXPECT_EQ(e.kind, MsgKind::kNullRequest);
      EXPECT_DOUBLE_EQ(e.recv_ts, 4.0);
    }
  }
  EXPECT_EQ(nulls, 1);
  EXPECT_EQ(reqs, 2);  // both other workers cap the guarantee

  // Same state, same tick: the advertised guarantee has not grown and the
  // upstream demands are registered — total silence, no null storm.
  out.clear();
  for (int i = 0; i < 10; ++i) ctl.tick(1, pdes::kVtInfinity, 0, out);
  EXPECT_TRUE(out.empty());

  // A partial null from worker 2 raises that channel's clock to 3 — below
  // the registered demand of 4, so the registration stands (worker 2 still
  // remembers it and will advertise again; re-requesting would only double
  // the ladder traffic). The guarantee is still capped by worker 0's
  // channel (min clock stays 1, G stays 2), so nothing at all goes out.
  ctl.on_control(1, control_from(map, MsgKind::kNull, /*from=*/2, /*to=*/1, 3.0));
  ctl.tick(1, pdes::kVtInfinity, 0, out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(ctl.req_msgs(), 2u);

  // A null covering the registered demand clears the registration; the
  // channel can be re-requested for later, higher demands.
  ctl.on_control(1, control_from(map, MsgKind::kNull, /*from=*/2, /*to=*/1, 4.0));
  ctl.on_control(1, control_from(map, MsgKind::kNullRequest, /*from=*/0, /*to=*/1, 7.0));
  ctl.tick(1, pdes::kVtInfinity, 0, out);
  bool re_requested = false;
  for (const Event& e : out)
    if (e.kind == MsgKind::kNullRequest && map.worker_of(e.dst_lp) == 2) {
      re_requested = true;
      EXPECT_DOUBLE_EQ(e.recv_ts, 6.0);  // new demand 7.0 minus one hop
    }
  EXPECT_TRUE(re_requested);
  EXPECT_EQ(ctl.null_msgs(), 1u);
}

TEST(ConsControllerTest, MutuallyBlockedWorkersClimbTheLadder) {
  // The deadlock regression the partial-advertisement rule exists for: two
  // workers whose guarantees cap each other must ratchet their clocks up by
  // one lookahead per exchange until a demand is met.
  const pdes::LpMap map(1, 2, 1);
  Controller ctl(cmb_config(), map, 1.0, 20.0);
  const double p0 = 6.0, p1 = 6.5;  // both far above the initial clocks

  std::vector<Event> wire;
  ctl.tick(0, p0, 0, wire);
  ctl.tick(1, p1, 0, wire);
  int exchanges = 0;
  while (!wire.empty() && exchanges < 100) {
    std::vector<Event> next;
    for (const Event& e : wire) {
      const int to = map.worker_of(e.dst_lp);
      ctl.on_control(to, e);
      ctl.tick(to, to == 0 ? p0 : p1, 0, next);
    }
    wire.swap(next);
    ++exchanges;
    if (ctl.bound(0) >= p0 && ctl.bound(1) >= p1) break;
  }
  EXPECT_GE(ctl.bound(0), p0) << "worker 0 never unblocked";
  EXPECT_GE(ctl.bound(1), p1) << "worker 1 never unblocked";
  EXPECT_LT(exchanges, 100) << "ladder failed to converge";
}

// ---------------------------------------------------------------------------
// Idle-poll elision query (DESIGN §8): idle_tick_is_noop must answer true
// exactly when an idle tick (processed == 0) emits nothing, and a
// controller that replaces those ticks by count_idle_tick() must stay
// indistinguishable from one that runs them: same control messages, same
// bounds, same counters, the same utilization double.

struct ConsObservables {
  std::vector<double> bounds;
  std::uint64_t null_msgs = 0;
  std::uint64_t req_msgs = 0;
  double utilization = 0;
  double null_ratio = 0;
  double horizon = 0;

  bool operator==(const ConsObservables&) const = default;
};

ConsObservables observe(const Controller& c, int workers) {
  ConsObservables o;
  for (int w = 0; w < workers; ++w) o.bounds.push_back(c.bound(w));
  o.null_msgs = c.null_msgs();
  o.req_msgs = c.req_msgs();
  o.utilization = c.utilization();
  o.null_ratio = c.null_ratio();
  o.horizon = c.avg_horizon_width();
  return o;
}

struct WireMsg {
  MsgKind kind;
  double ts;
  std::uint64_t uid;
  pdes::LpId src, dst;

  bool operator==(const WireMsg&) const = default;
};

std::vector<WireMsg> wire_of(const std::vector<Event>& events) {
  std::vector<WireMsg> out;
  for (const Event& e : events) out.push_back({e.kind, e.recv_ts, e.uid, e.src_lp, e.dst_lp});
  return out;
}

/// Drives two controllers in lockstep through a seeded mix of busy and idle
/// ticks, control deliveries (FIFO, as per-pair transport delivers them)
/// and GVT rounds; returns {idle ticks the query elided, idle ticks it
/// refused}.
std::pair<int, int> run_idle_lockstep(SyncKind kind) {
  constexpr int kWorkers = 4;
  const pdes::LpMap map(2, 2, 1);
  ConsConfig cfg;
  cfg.kind = kind;
  cfg.window = 0.75;
  Controller full(cfg, map, /*lookahead=*/1.0, /*end_vt=*/40.0);
  Controller elided(cfg, map, 1.0, 40.0);
  Xoshiro256StarStar rng(kind == SyncKind::kCmb ? 7 : 8);
  std::vector<double> pending_min(kWorkers, 0.5);
  std::deque<Event> wire;
  std::int64_t round = 0;
  double gvt = 0;
  int noops = 0, refusals = 0;

  for (int step = 0; step < 20000; ++step) {
    const int w = static_cast<int>(rng.next_below(kWorkers));
    const std::uint64_t op = rng.next_below(100);
    if (op < 60) {
      if (rng.next_below(5) == 0) {
        pending_min[w] = rng.next_below(10) == 0
                             ? pdes::kVtInfinity
                             : full.bound(w) - 1.0 + static_cast<double>(rng.next_below(24)) / 4;
      }
      const bool runnable = pending_min[w] <= full.bound(w);
      const int processed =
          runnable && rng.next_below(2) == 0 ? 1 + static_cast<int>(rng.next_below(3)) : 0;
      std::vector<Event> out, elided_out;
      if (processed == 0) {
        const bool noop = full.idle_tick_is_noop(w, pending_min[w]);
        Controller probe = full;
        std::vector<Event> probe_out;
        probe.tick(w, pending_min[w], 0, probe_out);
        EXPECT_EQ(noop, probe_out.empty()) << "step " << step;
        (noop ? noops : refusals) += 1;
        if (elided.idle_tick_is_noop(w, pending_min[w]))
          elided.count_idle_tick();
        else
          elided.tick(w, pending_min[w], 0, elided_out);
      } else {
        elided.tick(w, pending_min[w], processed, elided_out);
      }
      full.tick(w, pending_min[w], processed, out);
      EXPECT_EQ(wire_of(out), wire_of(elided_out)) << "step " << step;
      if (processed > 0) pending_min[w] += static_cast<double>(rng.next_below(8)) / 4;
      wire.insert(wire.end(), out.begin(), out.end());
    } else if (op < 90) {
      if (!wire.empty()) {
        const Event e = wire.front();
        wire.pop_front();
        full.on_control(map.worker_of(e.dst_lp), e);
        elided.on_control(map.worker_of(e.dst_lp), e);
      }
    } else {
      ++round;
      gvt += static_cast<double>(rng.next_below(4)) / 4;
      for (int v = 0; v < kWorkers; ++v) {
        const double lvt = std::max(gvt, pending_min[v]);
        full.on_gvt(round, v, lvt, gvt);
        elided.on_gvt(round, v, lvt, gvt);
      }
    }
    EXPECT_EQ(observe(full, kWorkers), observe(elided, kWorkers)) << "step " << step;
    if (::testing::Test::HasFailure()) break;
  }
  return {noops, refusals};
}

TEST(ConsControllerTest, IdleTickIsNoopMirrorsTheCmbTick) {
  const auto [noops, refusals] = run_idle_lockstep(SyncKind::kCmb);
  EXPECT_GT(noops, 1000);
  EXPECT_GT(refusals, 100);
}

TEST(ConsControllerTest, IdleTickIsNoopMirrorsTheWindowTick) {
  const auto [noops, refusals] = run_idle_lockstep(SyncKind::kWindow);
  EXPECT_GT(noops, 1000);
  EXPECT_EQ(refusals, 0);  // a window tick only counts the step
}

// ---------------------------------------------------------------------------
// Simulation-level update statistics.

core::SimulationConfig sim_config(SyncKind kind) {
  core::SimulationConfig cfg;
  cfg.nodes = 2;
  cfg.threads_per_node = 3;
  cfg.lps_per_worker = 4;
  cfg.end_vt = 20.0;
  cfg.gvt_interval = 6;
  cfg.seed = 31;
  cfg.sync.kind = kind;
  return cfg;
}

models::PholdParams metrics_params() {
  models::PholdParams p;
  p.min_delay = 0.5;
  p.regional_pct = 0.3;
  p.remote_pct = 0.1;
  p.epg_units = 500;
  return p;
}

TEST(ConsMetricsTest, CmbExportsUpdateStatistics) {
  const core::SimulationConfig cfg = sim_config(SyncKind::kCmb);
  const pdes::LpMap map = core::Simulation::make_map(cfg);
  const models::PholdModel model(map, metrics_params());
  core::Simulation sim(cfg, model);
  const core::SimulationResult r = sim.run(120.0);
  ASSERT_TRUE(r.completed);
  EXPECT_GT(r.cons_utilization, 0.0);
  EXPECT_LE(r.cons_utilization, 1.0);
  EXPECT_GE(r.cons_null_ratio, 0.0);
  EXPECT_GE(r.cons_horizon_width, 0.0);
  EXPECT_GT(r.cons_req_msgs, 0u);
  EXPECT_GT(r.cons_null_msgs, 0u);
}

TEST(ConsMetricsTest, WindowHasNoControlTraffic) {
  const core::SimulationConfig cfg = sim_config(SyncKind::kWindow);
  const pdes::LpMap map = core::Simulation::make_map(cfg);
  const models::PholdModel model(map, metrics_params());
  core::Simulation sim(cfg, model);
  const core::SimulationResult r = sim.run(120.0);
  ASSERT_TRUE(r.completed);
  // The window executor synchronizes through the GVT machinery alone.
  EXPECT_EQ(r.cons_null_msgs, 0u);
  EXPECT_EQ(r.cons_req_msgs, 0u);
  EXPECT_DOUBLE_EQ(r.cons_null_ratio, 0.0);
  EXPECT_GT(r.cons_utilization, 0.0);
  EXPECT_LE(r.cons_utilization, 1.0);
  EXPECT_GE(r.cons_horizon_width, 0.0);
}

TEST(ConsMetricsTest, OptimisticRunsLeaveConsMetricsZero) {
  // Subsystem-off convention: without --sync the controller is never even
  // instantiated, and every exported statistic stays at its zero default.
  const core::SimulationConfig cfg = sim_config(SyncKind::kOptimistic);
  const pdes::LpMap map = core::Simulation::make_map(cfg);
  const models::PholdModel model(map, metrics_params());
  core::Simulation sim(cfg, model);
  const core::SimulationResult r = sim.run(120.0);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.cons_null_msgs, 0u);
  EXPECT_EQ(r.cons_req_msgs, 0u);
  EXPECT_DOUBLE_EQ(r.cons_utilization, 0.0);
  EXPECT_DOUBLE_EQ(r.cons_null_ratio, 0.0);
  EXPECT_DOUBLE_EQ(r.cons_horizon_width, 0.0);
}

TEST(ConsMetricsTest, ZeroLookaheadModelRejectedAtRun) {
  const core::SimulationConfig cfg = sim_config(SyncKind::kCmb);
  models::PholdParams p = metrics_params();
  p.min_delay = 0;  // classic PHOLD: no lookahead to give
  const pdes::LpMap map = core::Simulation::make_map(cfg);
  const models::PholdModel model(map, p);
  core::Simulation sim(cfg, model);
  EXPECT_THROW(sim.run(10.0), std::invalid_argument);
}

}  // namespace
}  // namespace cagvt::cons
