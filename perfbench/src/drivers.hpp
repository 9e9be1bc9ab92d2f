// Layer drivers: small loops that time public functions of one layer at a
// time, fed input shapes measured on the workload they accompany.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Input shapes for the drivers. Each field comes from one count of the
/// workload's untraced run or configuration; `sources` names it for the
/// report.
struct DriverShapes {
  int engine_queue_depth = 1;      // simulated threads: nodes * threads_per_node
  std::size_t pending_size = 1;    // pdes.pool_peak
  double cancel_fraction = 0;      // pdes.antimessages / pdes.processed
  int kernel_lps = 1;              // lps_per_worker
  double rollback_depth = 1;       // pdes.rolled_back / pdes.rollback_episodes
  std::size_t fossil_batch = 1;    // committed / (core.gvt_rounds * workers)
  int tree_ranks = 128;            // the scale-out rank count
  int tree_arity = 2;              // core::autotune_tree_arity(tree_ranks)
  int mpsc_producers = 1;          // senders into one inbox, at most 3
  std::vector<std::string> sources;
};

/// Run every driver for about `budget_s` seconds in total and return the
/// per-layer metrics they measure, by metric name. Each driver's wall time
/// is recorded as a child span of `parent` in `log`.
std::map<std::string, double> run_drivers(const Workload& workload, const DriverShapes& shapes,
                                          double budget_s, SpanLog& log, int parent);

}  // namespace perfbench
