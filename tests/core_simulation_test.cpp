// Full-stack integration: the complete virtual cluster (workers, MPI
// threads, network, GVT algorithms) must commit exactly the event set the
// sequential reference computes, for every algorithm and MPI placement.
#include "core/simulation.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "cons/cons_config.hpp"
#include "fault/fault_parse.hpp"
#include "flow/flow_config.hpp"
#include "lb/lb_config.hpp"
#include "models/phold.hpp"
#include "pdes/seqref.hpp"

namespace cagvt::core {
namespace {

SimulationConfig small_config() {
  SimulationConfig cfg;
  cfg.nodes = 2;
  cfg.threads_per_node = 3;
  cfg.lps_per_worker = 4;
  cfg.end_vt = 20.0;
  cfg.gvt_interval = 8;
  cfg.seed = 42;
  return cfg;
}

models::PholdParams default_phold() {
  models::PholdParams p;
  p.remote_pct = 0.10;
  p.regional_pct = 0.30;
  p.epg_units = 2000;
  return p;
}

struct RefResult {
  std::uint64_t committed;
  std::uint64_t fingerprint;
  std::uint64_t state_hash;
};

RefResult sequential_reference(const SimulationConfig& cfg, const models::PholdParams& params) {
  const pdes::LpMap map = Simulation::make_map(cfg);
  models::PholdModel model(map, params);
  pdes::SequentialReference ref(model, map, {.end_vt = cfg.end_vt, .seed = cfg.seed});
  ref.run();
  return {ref.committed(), ref.fingerprint(), ref.state_hash()};
}

// `max_wall_seconds` caps the simulated run. Each caller sets it to a small
// multiple of the simulated time its cases need: with idle polls elided, a
// wedged round keeps the clock moving cheaply, so a loose cap would let a
// hang spin for host minutes before it fails.
SimulationResult run_cluster(const SimulationConfig& cfg, const models::PholdParams& params,
                             double max_wall_seconds) {
  const pdes::LpMap map = Simulation::make_map(cfg);
  models::PholdModel model(map, params);
  Simulation sim(cfg, model);
  return sim.run(max_wall_seconds);
}

TEST(SimulationTest, MatternDedicatedMatchesReference) {
  SimulationConfig cfg = small_config();
  cfg.gvt = GvtKind::kMattern;
  const auto params = default_phold();
  const SimulationResult result = run_cluster(cfg, params, /*max_wall_seconds=*/0.02);
  const RefResult ref = sequential_reference(cfg, params);

  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.events.committed, ref.committed);
  EXPECT_EQ(result.committed_fingerprint, ref.fingerprint);
  EXPECT_GT(result.gvt_rounds, 0u);
  EXPECT_GT(result.final_gvt, cfg.end_vt);
  EXPECT_GT(result.committed_rate, 0.0);
  EXPECT_EQ(result.sync_rounds, 0u);  // plain Mattern never synchronizes
}

TEST(SimulationTest, DeterministicAcrossRuns) {
  SimulationConfig cfg = small_config();
  cfg.gvt = GvtKind::kMattern;
  const auto params = default_phold();
  const SimulationResult a = run_cluster(cfg, params, /*max_wall_seconds=*/0.02);
  const SimulationResult b = run_cluster(cfg, params, /*max_wall_seconds=*/0.02);
  EXPECT_EQ(a.events.committed, b.events.committed);
  EXPECT_EQ(a.events.processed, b.events.processed);
  EXPECT_EQ(a.events.rolled_back, b.events.rolled_back);
  EXPECT_EQ(a.committed_fingerprint, b.committed_fingerprint);
  EXPECT_DOUBLE_EQ(a.wall_seconds, b.wall_seconds);
  EXPECT_EQ(a.gvt_rounds, b.gvt_rounds);
  EXPECT_EQ(a.gvt_trace, b.gvt_trace);
}

TEST(SimulationTest, GvtTraceIsMonotone) {
  SimulationConfig cfg = small_config();
  cfg.gvt = GvtKind::kMattern;
  const SimulationResult result = run_cluster(cfg, default_phold(), /*max_wall_seconds=*/0.02);
  ASSERT_GT(result.gvt_trace.size(), 1u);
  for (std::size_t i = 1; i < result.gvt_trace.size(); ++i)
    EXPECT_GE(result.gvt_trace[i], result.gvt_trace[i - 1]);
}

struct ClusterCase {
  GvtKind gvt;
  MpiPlacement mpi;
  int nodes;
  int threads;
  double remote;
  double regional;
  std::uint64_t seed;
};

class ClusterSweep : public ::testing::TestWithParam<ClusterCase> {};

TEST_P(ClusterSweep, MatchesSequentialReference) {
  const ClusterCase c = GetParam();
  SimulationConfig cfg = small_config();
  cfg.gvt = c.gvt;
  cfg.mpi = c.mpi;
  cfg.nodes = c.nodes;
  cfg.threads_per_node = c.threads;
  cfg.seed = c.seed;
  models::PholdParams params = default_phold();
  params.remote_pct = c.remote;
  params.regional_pct = c.regional;

  // The slowest case finishes within 4 simulated ms.
  const SimulationResult result = run_cluster(cfg, params, /*max_wall_seconds=*/0.1);
  const RefResult ref = sequential_reference(cfg, params);

  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.events.committed, ref.committed);
  EXPECT_EQ(result.committed_fingerprint, ref.fingerprint);
  EXPECT_GT(result.gvt_rounds, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AlgorithmsAndPlacements, ClusterSweep,
    ::testing::Values(
        ClusterCase{GvtKind::kBarrier, MpiPlacement::kDedicated, 2, 3, 0.1, 0.3, 1},
        ClusterCase{GvtKind::kBarrier, MpiPlacement::kCombined, 2, 2, 0.1, 0.3, 2},
        ClusterCase{GvtKind::kBarrier, MpiPlacement::kEverywhere, 2, 2, 0.1, 0.3, 3},
        ClusterCase{GvtKind::kMattern, MpiPlacement::kDedicated, 2, 3, 0.1, 0.3, 4},
        ClusterCase{GvtKind::kMattern, MpiPlacement::kCombined, 2, 2, 0.1, 0.3, 5},
        ClusterCase{GvtKind::kMattern, MpiPlacement::kEverywhere, 2, 2, 0.1, 0.3, 6},
        ClusterCase{GvtKind::kControlledAsync, MpiPlacement::kDedicated, 2, 3, 0.1, 0.3, 7},
        ClusterCase{GvtKind::kControlledAsync, MpiPlacement::kCombined, 2, 2, 0.1, 0.3, 8},
        ClusterCase{GvtKind::kBarrier, MpiPlacement::kDedicated, 1, 3, 0.0, 0.4, 9},
        ClusterCase{GvtKind::kMattern, MpiPlacement::kDedicated, 1, 3, 0.0, 0.4, 10},
        ClusterCase{GvtKind::kControlledAsync, MpiPlacement::kDedicated, 1, 3, 0.0, 0.4, 11},
        ClusterCase{GvtKind::kMattern, MpiPlacement::kDedicated, 4, 2, 0.3, 0.2, 12},
        ClusterCase{GvtKind::kBarrier, MpiPlacement::kDedicated, 4, 2, 0.3, 0.2, 13},
        ClusterCase{GvtKind::kControlledAsync, MpiPlacement::kDedicated, 4, 2, 0.3, 0.2, 14},
        ClusterCase{GvtKind::kEpoch, MpiPlacement::kDedicated, 2, 3, 0.1, 0.3, 15},
        ClusterCase{GvtKind::kEpoch, MpiPlacement::kCombined, 2, 2, 0.1, 0.3, 16},
        ClusterCase{GvtKind::kEpoch, MpiPlacement::kEverywhere, 2, 2, 0.1, 0.3, 17},
        ClusterCase{GvtKind::kEpoch, MpiPlacement::kDedicated, 1, 3, 0.0, 0.4, 18},
        ClusterCase{GvtKind::kEpoch, MpiPlacement::kDedicated, 4, 2, 0.3, 0.2, 19}),
    [](const ::testing::TestParamInfo<ClusterCase>& info) {
      const auto& c = info.param;
      return std::string(to_string(c.gvt) == std::string_view("ca-gvt") ? "ca" : to_string(c.gvt)) +
             "_" + std::string(to_string(c.mpi)) + "_n" + std::to_string(c.nodes) + "_s" +
             std::to_string(c.seed);
    });

TEST(SimulationTest, CaGvtSwitchesToSyncUnderHeavyCommunication) {
  SimulationConfig cfg = small_config();
  cfg.gvt = GvtKind::kControlledAsync;
  cfg.nodes = 4;
  cfg.threads_per_node = 3;
  cfg.end_vt = 40.0;
  cfg.gvt_interval = 6;
  models::PholdParams params;
  params.remote_pct = 0.30;  // communication-heavy: efficiency should tank
  params.regional_pct = 0.60;
  params.epg_units = 200;

  // Finishes within 19 simulated ms.
  const SimulationResult result = run_cluster(cfg, params, /*max_wall_seconds=*/0.5);
  EXPECT_TRUE(result.completed);
  // The efficiency-triggered SyncFlag must have fired at least once.
  EXPECT_GT(result.sync_rounds, 0u);
  EXPECT_EQ(result.events.committed, sequential_reference(cfg, params).committed);
}

TEST(SimulationTest, PaperScaleSmoke) {
  // The paper's per-node shape (60 threads x 128 LPs per worker) on a
  // 2-node cluster, shortened horizon: exercises wide barriers, large LP
  // maps, and heavy per-node fan-in on the MPI thread.
  SimulationConfig cfg;
  cfg.nodes = 2;
  cfg.threads_per_node = 61;
  cfg.lps_per_worker = 128;
  cfg.end_vt = 3.0;
  cfg.gvt_interval = 12;
  cfg.seed = 5;
  models::PholdParams params;
  params.remote_pct = 0.01;
  params.regional_pct = 0.10;
  params.epg_units = 2000;
  const pdes::LpMap map = Simulation::make_map(cfg);
  ASSERT_EQ(map.total_lps(), 2 * 60 * 128);
  models::PholdModel model(map, params);
  Simulation sim(cfg, model);
  const SimulationResult r = sim.run(300.0);
  EXPECT_TRUE(r.completed);
  EXPECT_GT(r.events.committed, 10000u);
  EXPECT_GT(r.gvt_rounds, 0u);
}

// Idle-poll elision (DESIGN §8) must fire on an idle-heavy cluster and stay
// exact. The engine counts every elided poll as a dispatch, so a run's
// dispatch count, simulated duration and processed count must equal what
// the poll-by-poll engine produced before elision existed (the pinned
// values below); an inexact skip predicate would move them even where the
// committed set still matches seqref.
TEST(SimulationTest, IdlePollElisionFiresAndStaysExact) {
  struct Case {
    GvtKind gvt;
    MpiPlacement mpi;
    const char* faults;
    std::uint64_t processed;
    std::int64_t wall_ns;
    std::uint64_t dispatched;
  };
  const char* straggler = "straggler:node=1,t=100us..2ms,slow=4x";
  constexpr MpiPlacement kDedicated = MpiPlacement::kDedicated;
  constexpr MpiPlacement kCombined = MpiPlacement::kCombined;
  constexpr MpiPlacement kEverywhere = MpiPlacement::kEverywhere;
  // The combined and everywhere cases cover the inline agent query, the
  // combined placement's MPI poll period and the shared fabric inbox.
  const Case cases[] = {
      {GvtKind::kBarrier, kDedicated, "", 778, 1356830, 9631},
      {GvtKind::kMattern, kDedicated, "", 709, 892110, 75024},
      {GvtKind::kControlledAsync, kDedicated, "", 709, 1039930, 95280},
      {GvtKind::kEpoch, kDedicated, "", 691, 693365, 45376},
      {GvtKind::kBarrier, kDedicated, straggler, 778, 2671300, 9628},
      {GvtKind::kMattern, kDedicated, straggler, 732, 2215880, 233634},
      {GvtKind::kControlledAsync, kDedicated, straggler, 732, 2236580, 234579},
      {GvtKind::kEpoch, kDedicated, straggler, 699, 2129910, 211496},
      {GvtKind::kBarrier, kCombined, "", 1133, 1545075, 3226},
      {GvtKind::kMattern, kCombined, "", 1178, 1163380, 113033},
      {GvtKind::kControlledAsync, kCombined, "", 1178, 1410380, 136271},
      {GvtKind::kEpoch, kCombined, "", 1064, 884502, 63600},
      {GvtKind::kBarrier, kEverywhere, "", 1020, 1102625, 2865},
      {GvtKind::kMattern, kEverywhere, "", 1081, 1097995, 105393},
      {GvtKind::kControlledAsync, kEverywhere, "", 1081, 1364255, 131688},
      {GvtKind::kEpoch, kEverywhere, "", 1040, 868395, 61256},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(to_string(c.gvt)) + " mpi=" +
                 std::string(to_string(c.mpi)) + " faults='" +
                 c.faults + "'");
    SimulationConfig cfg = small_config();
    cfg.nodes = 8;
    cfg.end_vt = 10.0;
    cfg.gvt = c.gvt;
    cfg.mpi = c.mpi;
    cfg.faults = fault::parse_fault_schedule(c.faults);
    models::PholdParams params;  // the paper's computation-dominated profile
    params.regional_pct = 0.1;
    params.remote_pct = 0.01;
    params.epg_units = 10000;

    // Every case finishes within 2.7 simulated ms.
    const SimulationResult r = run_cluster(cfg, params, /*max_wall_seconds=*/0.1);
    const RefResult ref = sequential_reference(cfg, params);
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.events.committed, ref.committed);
    EXPECT_EQ(r.committed_fingerprint, ref.fingerprint);
    EXPECT_EQ(r.state_hash, ref.state_hash);
    EXPECT_GT(r.engine_polls_elided, 0u);
    EXPECT_LT(r.engine_polls_elided, r.engine_dispatched);
    EXPECT_EQ(r.events.processed, c.processed);
    EXPECT_EQ(std::llround(r.wall_seconds * 1e9), c.wall_ns);
    EXPECT_EQ(r.engine_dispatched, c.dispatched);
  }
}

// The same exactness for workers under the flow and conservative
// controllers, whose per-iteration ticks are elided through the
// controllers' own no-op queries (flow::Controller::tick_is_noop,
// cons::Controller::idle_tick_is_noop), and for workers held by
// synchronous rounds, whose iterations are the GVT ticks alone. Beyond the
// dispatch count, every flow counter and the exact utilization double
// (whose denominator counts the elided idle ticks) must equal the
// poll-by-poll engine's values.
TEST(SimulationTest, ControllerIdlePollElisionStaysExact) {
  struct Case {
    const char* name;
    GvtKind gvt;
    const char* flow;
    const char* sync;
    const char* faults;
    int ckpt_every;
    const char* lb;
    bool comm;  // the paper's communication-dominated PHOLD profile
    std::uint64_t processed;
    std::int64_t wall_ns;
    std::uint64_t dispatched;
    std::uint64_t flow_counters[7];  // cancelbacks, releases, storms,
                                     // engagements, forced, absorbed, peak
    double cons_utilization;
  };
  const char* crash = "crash:node=1,t=300us,down=200us";
  const Case cases[] = {
      {"flow mattern", GvtKind::kMattern, "bounded,mem=24", "optimistic", "", 0, "off", false,
       954, 1763185, 90842, {39, 38, 0, 13, 8, 1, 34}, 0},
      {"flow epoch", GvtKind::kEpoch, "bounded,mem=24", "optimistic", "", 0, "off", false,
       1016, 3501918, 136705, {29, 22, 2, 12, 7, 7, 32}, 0},
      {"flow ca crash", GvtKind::kControlledAsync, "bounded,mem=24", "optimistic", crash, 4,
       "off", false, 948, 4739981, 167511, {19, 11, 1, 23, 9, 1, 29}, 0},
      {"flow ca lb", GvtKind::kControlledAsync, "bounded,mem=24", "optimistic", "", 0,
       "roughness", false, 913, 2938833, 127931, {33, 31, 0, 17, 9, 2, 30}, 0},
      {"cmb", GvtKind::kControlledAsync, "off", "cmb", "", 0, "off", false,
       431, 16051600, 910037, {0, 0, 0, 0, 0, 0, 25}, 0.00035362369908007498},
      {"window", GvtKind::kControlledAsync, "off", "window", "", 0, "off", false,
       431, 6293275, 242909, {0, 0, 0, 0, 0, 0, 11}, 0.15025252525252525},
      {"ca comm", GvtKind::kControlledAsync, "off", "optimistic", "", 0, "off", true,
       1091, 2850075, 79613, {0, 0, 0, 0, 0, 0, 39}, 0},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    SimulationConfig cfg = small_config();
    cfg.nodes = 4;
    cfg.gvt = c.gvt;
    cfg.mpi = MpiPlacement::kDedicated;
    cfg.flow = flow::parse_flow(c.flow);
    cfg.sync = cons::parse_cons(c.sync);
    cfg.faults = fault::parse_fault_schedule(c.faults);
    cfg.ckpt_every = c.ckpt_every;
    cfg.lb = lb::parse_lb(c.lb);
    models::PholdParams params = default_phold();
    if (cfg.sync.enabled()) params.min_delay = 0.5;
    if (c.comm) {
      params.regional_pct = 0.9;
      params.remote_pct = 0.1;
      params.epg_units = 5000;
    }

    // Every case finishes within 17 simulated ms. A skip predicate that
    // elides real work can wedge a round while parked pollers keep the
    // clock moving, so a tight cap turns such a hang into a failure.
    const SimulationResult r = run_cluster(cfg, params, /*max_wall_seconds=*/0.1);
    const RefResult ref = sequential_reference(cfg, params);
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.events.committed, ref.committed);
    EXPECT_EQ(r.committed_fingerprint, ref.fingerprint);
    EXPECT_EQ(r.state_hash, ref.state_hash);
    EXPECT_EQ(r.events.processed, c.processed);
    EXPECT_EQ(std::llround(r.wall_seconds * 1e9), c.wall_ns);
    EXPECT_EQ(r.engine_dispatched, c.dispatched);
    const std::uint64_t flow_counters[7] = {
        r.flow_cancelbacks, r.flow_releases,       r.flow_storms,    r.flow_throttle_engagements,
        r.flow_forced_rounds, r.flow_absorbed_antis, r.peak_event_pool};
    for (int k = 0; k < 7; ++k) EXPECT_EQ(flow_counters[k], c.flow_counters[k]) << "counter " << k;
    EXPECT_EQ(r.cons_utilization, c.cons_utilization);
    // Controller workers and workers held by synchronous rounds alike
    // elide most of their polls; the comm case holds workers in most rounds.
    EXPECT_GT(2 * r.engine_polls_elided, r.engine_dispatched);
    if (c.comm) {
      EXPECT_GT(2 * r.sync_rounds, r.gvt_rounds);
    }
  }
}

TEST(SimulationTest, InvalidConfigThrows) {
  SimulationConfig cfg = small_config();
  cfg.threads_per_node = 1;  // dedicated placement needs >= 2
  const pdes::LpMap map(1, 1, 1);
  models::PholdModel model(map, {});
  EXPECT_THROW(Simulation(cfg, model), std::invalid_argument);
}

}  // namespace
}  // namespace cagvt::core
