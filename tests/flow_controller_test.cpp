// flow::Controller's idle-poll elision query (DESIGN §8). tick_is_noop
// must answer true exactly when on_tick followed by release would change
// no observable and hand back no event, and a controller that skips every
// tick the query calls a no-op must stay indistinguishable from one that
// runs them all, through a seeded mix of pressure ticks, GVT rounds,
// cancelbacks, rollbacks, round requests and `mem:` squeezes.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "fault/fault_engine.hpp"
#include "fault/fault_parse.hpp"
#include "flow/controller.hpp"
#include "metasim/engine.hpp"
#include "util/rng.hpp"

namespace cagvt::flow {
namespace {

constexpr int kWorkers = 4;

/// Every observable of the controller.
struct Observables {
  std::vector<core::PressureTier> tiers;
  std::vector<std::size_t> quotas;
  std::vector<std::size_t> parked;
  std::vector<pdes::VirtualTime> bounds;
  std::uint64_t peak_pool = 0;
  std::uint64_t red_ticks = 0;
  std::uint64_t forced_rounds = 0;
  std::uint64_t releases = 0;
  std::uint64_t cancelbacks = 0;
  std::uint64_t engagements = 0;
  bool round_requested = false;

  bool operator==(const Observables&) const = default;
};

Observables observe(const Controller& c) {
  Observables o;
  for (int w = 0; w < kWorkers; ++w) {
    o.tiers.push_back(c.tier(w));
    o.quotas.push_back(c.cancelback_quota(w));
    o.parked.push_back(c.parked_count(w));
    o.bounds.push_back(c.exec_bound(w));
  }
  o.peak_pool = c.peak_pool();
  o.red_ticks = c.red_ticks();
  o.forced_rounds = c.forced_rounds();
  o.releases = c.releases();
  o.cancelbacks = c.cancelbacks();
  o.engagements = c.throttle_engagements();
  o.round_requested = c.round_requested();
  return o;
}

std::vector<std::uint64_t> uids(const std::vector<pdes::Event>& events) {
  std::vector<std::uint64_t> out;
  for (const pdes::Event& e : events) out.push_back(e.uid);
  return out;
}

/// The flow part of one worker-loop iteration (NodeRuntime::flow_tick):
/// classify, return the quota under red, re-deliver eligible parked events.
std::vector<pdes::Event> run_tick(Controller& c, int w, std::size_t pending,
                                  std::size_t history) {
  if (c.on_tick(w, pending, history) == core::PressureTier::kRed)
    c.note_cancelback(w, c.cancelback_quota(w));
  std::vector<pdes::Event> out;
  c.release(w, out);
  return out;
}

TEST(FlowControllerTest, TickIsNoopMirrorsOnTickAndRelease) {
  FlowConfig cfg;
  cfg.kind = FlowKind::kBounded;
  cfg.mem = 64;
  cfg.clamp = 2.0;
  metasim::Engine engine;
  fault::FaultEngine faults(
      fault::parse_fault_schedule(
          "mem:worker=1,budget=24,t=100us..300us;mem:budget=40,t=500us..650us"),
      /*seed=*/1, /*nodes=*/1);
  faults.arm(engine, nullptr, nullptr);

  Controller full(cfg, kWorkers, &faults);     // runs every tick
  Controller elided(cfg, kWorkers, &faults);   // skips the query's no-ops
  Xoshiro256StarStar rng(20261019);
  std::vector<std::size_t> pending(kWorkers, 8), history(kWorkers, 8);
  std::int64_t round = 0;
  double gvt = 0;
  std::uint64_t next_uid = 1;
  int noops = 0, changes = 0;

  for (int step = 0; step < 20000; ++step) {
    const int w = static_cast<int>(rng.next_below(kWorkers));
    const std::uint64_t op = rng.next_below(100);
    if (op < 55) {
      // A pressure tick; the pool mostly stays put between ticks, as it
      // does across a run of idle polls.
      if (rng.next_below(4) == 0) pending[w] = rng.next_below(60);
      if (rng.next_below(4) == 0) history[w] = rng.next_below(30);
      const bool noop = full.tick_is_noop(w, pending[w], history[w]);
      Controller probe = full;
      std::vector<pdes::Event> probe_out;
      probe.on_tick(w, pending[w], history[w]);
      probe.release(w, probe_out);
      ASSERT_EQ(noop, probe_out.empty() && observe(probe) == observe(full)) << "step " << step;
      (noop ? noops : changes) += 1;

      const std::vector<pdes::Event> out = run_tick(full, w, pending[w], history[w]);
      std::vector<pdes::Event> elided_out;
      if (!elided.tick_is_noop(w, pending[w], history[w]))
        elided_out = run_tick(elided, w, pending[w], history[w]);
      ASSERT_EQ(uids(out), uids(elided_out)) << "step " << step;
      // Returned events leave the pool and park at their senders.
      const std::size_t quota = full.cancelback_quota(w);
      for (std::size_t i = 0; i < quota && pending[w] > 0; ++i, --pending[w]) {
        pdes::Event e;
        e.uid = next_uid++;
        e.recv_ts = gvt + 1.0 + static_cast<double>(rng.next_below(40)) / 4;
        const int src = static_cast<int>(rng.next_below(kWorkers));
        full.on_cancelback(src, e, w);
        elided.on_cancelback(src, e, w);
      }
    } else if (op < 65) {
      // A GVT round, adopted by every worker.
      ++round;
      gvt += static_cast<double>(rng.next_below(8)) / 2;
      for (int v = 0; v < kWorkers; ++v) {
        full.on_gvt(round, v, gvt);
        elided.on_gvt(round, v, gvt);
        history[v] /= 2;  // fossil collection
      }
    } else if (op < 73) {
      pdes::Event e;
      e.uid = next_uid++;
      e.recv_ts = gvt + 1.0;
      const int dest = static_cast<int>(rng.next_below(kWorkers + 1)) - 1;  // -1: unknown
      full.on_cancelback(w, e, dest);
      elided.on_cancelback(w, e, dest);
    } else if (op < 85) {
      const std::uint64_t depth = 1 + rng.next_below(12);
      const bool secondary = rng.next_below(3) != 0;
      full.note_rollback(w, depth, secondary);
      elided.note_rollback(w, depth, secondary);
    } else if (op < 90) {
      full.note_round_begin();
      elided.note_round_begin();
    } else if (op < 94) {
      pdes::Event anti;
      anti.uid = 1 + rng.next_below(next_uid);
      anti.anti = true;
      ASSERT_EQ(full.absorb_anti(w, anti), elided.absorb_anti(w, anti));
    } else {
      // Move the clock across the `mem:` squeeze windows.
      engine.call_at(engine.now() + static_cast<metasim::SimTime>(rng.next_below(1500)), [] {});
      engine.run();
    }
    ASSERT_EQ(observe(full), observe(elided)) << "step " << step;
  }
  EXPECT_GT(noops, 1000);
  EXPECT_GT(changes, 1000);
  EXPECT_GT(full.red_ticks(), 0u);
  EXPECT_GT(full.releases(), 0u);
  EXPECT_GT(full.throttle_engagements(), 0u);
}

}  // namespace
}  // namespace cagvt::flow
