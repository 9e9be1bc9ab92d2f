// The frozen baseline: perfbench/baseline/ is a verbatim copy of src/ as it
// stood when this benchmark was added. It is compiled into the benchmark a
// second time, with its namespace renamed, and timed in alternation with the
// current src/ on the same instance. Both builds see the same state of a
// shared host, so the ratio of their speeds is steady where either time alone
// is not (see METRICS.md). The copy is never edited.
//
// This header is shared by both builds, so it names no simulator type.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench_baseline {

struct Run {
  double run_s = 0;  // host seconds of run(), set-up excluded
  std::uint64_t committed = 0;
  bool completed = false;
};

/// Build instance `index` of make_instances(workload, seed) on the frozen
/// copy, run it once with obs off, and time run().
Run run_instance(const std::string& workload, std::uint64_t seed, int index);

}  // namespace perfbench_baseline
