// The one harness behind every bench binary.
//
// Each binary regenerates one figure, table or ablation of the paper. A
// figure is a list of series (a GVT algorithm / MPI placement / model
// combination); each series sweeps its own axis of points, by default the
// paper's node counts (1, 2, 4, 8). run_figure_main registers every series
// x point as a one-iteration google-benchmark row, computes the whole table
// on first use through core::run_parallel (every point is an independent
// simulation, so the sweep saturates the host's cores), and exports each
// point's counters serially, in row order:
//
//   rate_events_s   committed event rate (the y-axis of Figures 3-12)
//   efficiency_pct  committed / processed
//   rollbacks       events undone
//   gvt_rounds / sync_rounds / gvt_rounds_per_s / tree_frames
//   sim_wall_s      simulated wall-clock duration of the run
//   lvt_disparity, completed
//
// plus whatever counters the series' `extra` hook adds. The simulator is
// deterministic, so each point runs exactly once and the counters are the
// product; the row's timings are not. Listing rows (--benchmark_list_tests)
// never runs a simulation.
//
// The report is written to BENCH_<figure>.json (the committed baselines
// scripts/check_bench_baselines.py gates on) by injecting --benchmark_out
// flags ahead of the user's arguments, so an explicit --benchmark_out on
// the command line still wins. Control via environment:
//
//   CAGVT_BENCH_JSON_DIR   output directory (default: current directory)
//   CAGVT_BENCH_JSON=0     disable the file entirely
//   CAGVT_BENCH_SCALE      scales the per-node thread/LP counts of
//                          figure_config (see core/experiment.hpp)
#pragma once

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hpp"

namespace cagvt::bench {

using core::GvtKind;
using core::MpiPlacement;
using core::SimulationConfig;
using core::SimulationResult;
using core::Workload;

inline SimulationConfig figure_config(int nodes) {
  return core::scaled_config(nodes, core::bench_scale_from_env());
}

/// One point's argument values, in the order of its series' axis names.
using Args = std::vector<std::int64_t>;

/// The points one series sweeps: the product of each named argument's
/// values, first argument varying fastest (google-benchmark's ArgsProduct
/// order). No names means a single point without arguments.
struct Axis {
  std::vector<std::string> names;
  std::vector<std::vector<std::int64_t>> values;

  std::vector<Args> points() const {
    std::vector<Args> out{Args{}};
    for (const auto& axis_values : values) {
      std::vector<Args> next;
      for (const std::int64_t v : axis_values) {
        for (Args args : out) {
          args.push_back(v);
          next.push_back(std::move(args));
        }
      }
      out = std::move(next);
    }
    return out;
  }
};

inline const Axis kNodesAxis{{"nodes"}, {{1, 2, 4, 8}}};

/// Counters a series adds to export_counters' set for one point.
using ExtraCounters =
    std::function<void(const SimulationResult&, benchmark::UserCounters&)>;

/// One curve on a figure: a name (the legend entry / row name), the closure
/// that produces one point, the axis it sweeps and its extra counters.
struct FigureSeries {
  std::string name;
  std::function<SimulationResult(const Args&)> run;
  Axis axis = kNodesAxis;
  ExtraCounters extra = {};
};

inline void export_counters(const SimulationResult& r, benchmark::UserCounters& c) {
  c["rate_events_s"] = r.committed_rate;
  c["efficiency_pct"] = r.efficiency * 100.0;
  c["rollbacks"] = static_cast<double>(r.events.rolled_back);
  c["gvt_rounds"] = static_cast<double>(r.gvt_rounds);
  c["sync_rounds"] = static_cast<double>(r.sync_rounds);
  c["sim_wall_s"] = r.wall_seconds;
  c["lvt_disparity"] = r.avg_lvt_disparity;
  c["completed"] = r.completed ? 1 : 0;
  c["gvt_rounds_per_s"] =
      r.wall_seconds > 0 ? static_cast<double>(r.gvt_rounds) / r.wall_seconds : 0;
  c["tree_frames"] = static_cast<double>(r.tree_frames);
}

/// Parses the command line, runs the registered rows and writes the JSON
/// report (see the header comment).
inline int run_with_json_baseline(int argc, char** argv, const char* figure) {
  std::string out_flag;
  const char* toggle = std::getenv("CAGVT_BENCH_JSON");
  if (toggle == nullptr || std::string(toggle) != "0") {
    const char* dir = std::getenv("CAGVT_BENCH_JSON_DIR");
    out_flag = "--benchmark_out=" + std::string(dir != nullptr ? dir : ".") +
               "/BENCH_" + figure + ".json";
  }

  std::string format_flag = "--benchmark_out_format=json";
  std::vector<char*> args;
  args.push_back(argv[0]);
  if (!out_flag.empty()) {
    // Before the user's flags: google-benchmark keeps the last occurrence,
    // so an explicit --benchmark_out on the command line overrides ours.
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  for (int i = 1; i < argc; ++i) args.push_back(argv[i]);
  int injected_argc = static_cast<int>(args.size());

  benchmark::Initialize(&injected_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(injected_argc, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

/// Main entry for every bench binary (see the header comment).
inline int run_figure_main(int argc, char** argv, const char* figure,
                           std::vector<FigureSeries> series) {
  struct Row {
    const FigureSeries* series;
    Args args;
  };
  struct Table {
    std::once_flag once;
    std::vector<FigureSeries> series;
    std::vector<Row> rows;
    std::vector<SimulationResult> results;
  };
  auto table = std::make_shared<Table>();
  table->series = std::move(series);
  for (const FigureSeries& s : table->series)
    for (Args& args : s.axis.points()) table->rows.push_back({&s, std::move(args)});
  const auto compute = [table] {
    std::vector<std::function<SimulationResult()>> points;
    points.reserve(table->rows.size());
    for (const Row& row : table->rows)
      points.push_back([&row] { return row.series->run(row.args); });
    table->results = core::run_parallel(std::move(points));
  };
  for (std::size_t i = 0; i < table->rows.size(); ++i) {
    const Row& row = table->rows[i];
    benchmark::internal::Benchmark* bench = benchmark::RegisterBenchmark(
        row.series->name.c_str(), [table, compute, i](benchmark::State& state) {
          std::call_once(table->once, compute);
          for (auto _ : state) {
            // The simulator is deterministic and already ran in compute();
            // the counters below are the product, not the loop timing.
          }
          const SimulationResult& result = table->results[i];
          export_counters(result, state.counters);
          const ExtraCounters& extra = table->rows[i].series->extra;
          if (extra) extra(result, state.counters);
        });
    if (!row.args.empty()) bench->ArgNames(row.series->axis.names)->Args(row.args);
    bench->Iterations(1)->Unit(benchmark::kMillisecond);
  }
  return run_with_json_baseline(argc, argv, figure);
}

}  // namespace cagvt::bench
