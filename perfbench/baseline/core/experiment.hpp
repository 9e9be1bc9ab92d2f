// Experiment harness: canonical paper workloads, scaled cluster
// configurations, and report formatting shared by the examples and the
// bench binaries.
//
// The paper's full scale (8 nodes x 60 threads x 128 LPs/thread) runs in
// minutes on this simulator; benches default to a reduced,
// shape-preserving scale and honour CAGVT_BENCH_SCALE:
//   CAGVT_BENCH_SCALE=1   quick (default: 6+1 threads/node, 16 LPs/worker)
//   CAGVT_BENCH_SCALE=2   medium (12+1 threads, 32 LPs)
//   CAGVT_BENCH_SCALE=4   large (24+1 threads, 64 LPs)
//   CAGVT_BENCH_SCALE=10  paper scale (59+1 threads, 128 LPs)
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/simulation.hpp"
#include "models/mixed_phold.hpp"
#include "models/phold.hpp"
#include "util/config.hpp"

namespace cagvt::core {

/// The paper's two canonical PHOLD profiles (Section 4): computation-
/// dominated (10% regional, 1% remote, EPG 10K) and communication-
/// dominated (90% regional, 10% remote, EPG 5K).
struct Workload {
  double regional_pct;
  double remote_pct;
  double epg_units;

  static Workload computation() { return {0.10, 0.01, 10000}; }
  static Workload communication() { return {0.90, 0.10, 5000}; }

  models::PholdParams phold(std::uint64_t model_seed = 0x9E1D) const {
    models::PholdParams p;
    p.regional_pct = regional_pct;
    p.remote_pct = remote_pct;
    p.epg_units = epg_units;
    p.seed = model_seed;
    return p;
  }
};

/// Scaled base configuration for experiments. `scale` multiplies the
/// per-node thread and LP counts (1 = quick default).
SimulationConfig scaled_config(int nodes, double scale);

/// Read CAGVT_BENCH_SCALE (default 1.0).
double bench_scale_from_env();

/// Run PHOLD under `workload` on `cfg`'s cluster.
SimulationResult run_phold(const SimulationConfig& cfg, const Workload& workload);

/// Run the paper's X-Y mixed model (computation/communication phases).
SimulationResult run_mixed(const SimulationConfig& cfg, double x_pct, double y_pct);

/// One-line human-readable summary of a result.
std::string describe(const SimulationResult& result);

/// Apply hardware-cost overrides from generic options (all in ns unless
/// noted): --mpi-send, --mpi-recv, --net-latency, --rollback-cost,
/// --event-overhead, --epg-ns (ns per EPG unit, double), --barrier-base,
/// --collective-cpu. Used by the CLI and the calibration scripts.
void apply_cluster_overrides(net::ClusterSpec& spec, const Options& options);

/// Apply the fault-injection flags: --fault '<schedule>' (the DSL of
/// fault/fault_parse.hpp; ';'-separated specs) and --fault-seed N. Parse
/// errors propagate as fault::FaultParseError naming the offending token
/// and its position.
void apply_fault_options(SimulationConfig& cfg, const Options& options);

/// Apply the load-balancing flag: --lb 'off|roughness[,key=val...]'
/// (see lb/lb_config.hpp for the parameter DSL). Parse errors propagate
/// as std::invalid_argument naming the offending key.
void apply_lb_options(SimulationConfig& cfg, const Options& options);

/// Apply the conservative-synchronization flag: --sync
/// 'optimistic|cmb|window[,window=W]' (see cons/cons_config.hpp). Parse
/// errors propagate as std::invalid_argument listing the valid modes.
void apply_sync_options(SimulationConfig& cfg, const Options& options);

/// Apply the overload-protection flag: --flow
/// 'off|bounded[,mem=M,storm=S,clamp=C]' (see flow/flow_config.hpp). Parse
/// errors propagate as std::invalid_argument naming the offending key.
void apply_flow_options(SimulationConfig& cfg, const Options& options);

/// Run independent sweep points concurrently on OS threads, one full
/// Simulation (engine + cluster) per point. Each point's closure runs on
/// exactly one thread — the metasim engine's single-owner contract — and
/// results come back in input order regardless of completion order, so a
/// parallel sweep reports identically to a serial one. `max_threads` 0
/// means hardware_concurrency(); 1 degenerates to a serial loop. The first
/// exception a point throws is rethrown after all threads join.
std::vector<SimulationResult> run_parallel(
    std::vector<std::function<SimulationResult()>> points, int max_threads = 0);

}  // namespace cagvt::core
