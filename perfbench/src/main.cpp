// The repository benchmark: runs one named workload through the library's
// public entry points (core::Simulation::run on the coroutine backend,
// exec::ThreadEngine::run on the threads backend), checks every run against
// pdes::SequentialReference, and prints one JSON result line.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--trace-dir DIR]
//
// --trace 0 times untraced runs and reports the end-to-end metrics.
// --trace 1 is the separate traced run: it times untraced, decorated
// (pdes::Model timing decorator) and traced (decorator + cfg.obs) runs, runs
// the layer drivers, writes the spans to DIR, and reports the per-layer
// metrics. See METRICS.md for every metric's definition.
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "baseline.hpp"
#include "core/config.hpp"
#include "core/simulation.hpp"
#include "drivers.hpp"
#include "exec/thread_engine.hpp"
#include "pdes/seqref.hpp"
#include "spans.hpp"
#include "timed_model.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using cagvt::core::SimulationResult;

struct Metric {
  const char* name;
  const char* unit;
};

// Must list exactly the names and units of BENCHMARK.json (run.py checks).
constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},
    {"host_committed_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
    {"efficiency", "ratio"},
    {"sim_committed_rate", "1/s"},
    {"sim_gvt_rounds_per_s", "1/s"},
};

constexpr Metric kPerLayer[] = {
    {"models.handler_calls", "count"},
    {"models.handler_self_s", "s"},
    {"models.share_of_host", "ratio"},
    {"substrate.host_ns_per_processed", "ns"},
    {"metasim.engine.call_at_ns", "ns"},
    {"metasim.engine.dispatch_ns", "ns"},
    {"metasim.engine.resume_ns", "ns"},
    {"metasim.lock_wait_s", "s"},
    {"pdes.processed", "count"},
    {"pdes.rolled_back", "count"},
    {"pdes.rollback_episodes", "count"},
    {"pdes.stragglers", "count"},
    {"pdes.antimessages", "count"},
    {"pdes.useful_ratio", "ratio"},
    {"pdes.pool_peak", "count"},
    {"pdes.pending.push_ns", "ns"},
    {"pdes.pending.pop_ns", "ns"},
    {"pdes.pending.cancel_ns", "ns"},
    {"pdes.kernel.process_ns", "ns"},
    {"pdes.kernel.rollback_ns_per_event", "ns"},
    {"pdes.kernel.fossil_ns_per_event", "ns"},
    {"pdes.seqref_committed_per_s", "1/s"},
    {"pdes.timewarp_overhead", "ratio"},
    {"core.gvt_rounds", "count"},
    {"core.sync_rounds", "count"},
    {"core.throttle_rounds", "count"},
    {"core.throttle_engagements", "count"},
    {"core.gvt_block_s", "s"},
    {"core.gvt_round_s", "s"},
    {"core.lvt_disparity", "vt"},
    {"net.regional_msgs", "count"},
    {"net.remote_msgs", "count"},
    {"net.frames", "count"},
    {"net.tree_frames", "count"},
    {"net.frames_per_committed", "ratio"},
    {"net.tree.wave_ns", "ns"},
    {"exec.fence_rounds_per_s", "1/s"},
    {"exec.sync_rounds", "count"},
    {"exec.throttle_rounds", "count"},
    {"exec.rolled_back_ratio", "ratio"},
    {"exec.mpsc.push_ns", "ns"},
    {"exec.mpsc.drain_ns_per_item", "ns"},
    {"flow.cancelbacks", "count"},
    {"flow.releases", "count"},
    {"flow.storms", "count"},
    {"flow.throttle_engagements", "count"},
    {"flow.forced_rounds", "count"},
    {"flow.peak_event_pool", "count"},
    {"obs.trace_records", "count"},
    {"obs.trace_dropped", "count"},
    {"obs.overhead_s", "s"},
};

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Mean of the middle half of `v` (all of it when it has fewer than four
/// values): robust to the few samples a busy host spoils.
double interquartile_mean(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t cut = v.size() / 4;
  double sum = 0;
  for (std::size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

/// Peak resident set of this process since the last reset_peak_rss(), from
/// VmHWM (which, unlike getrusage's ru_maxrss, does not carry over the
/// peak of the process that launched the benchmark).
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) throw std::runtime_error("cannot read /proc/self/status");
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr)
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  std::fclose(f);
  if (!(kib > 0)) throw std::runtime_error("no VmHWM in /proc/self/status");
  return kib / 1024.0;
}

/// Lower the peak resident set to the current one, so that the next
/// peak_rss_mb() describes one run (Linux >= 4.0).
void reset_peak_rss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr || std::fputs("5", f) < 0 || std::fclose(f) != 0)
    throw std::runtime_error("cannot reset the peak RSS through /proc/self/clear_refs");
}

/// Whether every run of `w` keeps one OS thread busy at a time: the
/// coroutine backend, or the threads backend with a single worker and no
/// dedicated MPI thread.
bool single_busy_thread(const Workload& w) {
  return w.coroutine() ||
         (w.cfg.nodes * w.cfg.workers_per_node() == 1 && !w.cfg.has_dedicated_mpi());
}

/// Pin the process to the CPU it runs on. On a shared host each vCPU has its
/// own neighbours; a run whose thread lands on another vCPU than its paired
/// run's compares two hosts, not two codes. Where pinning is not allowed the
/// runs stay unpinned, only noisier.
void pin_to_current_cpu() {
  const int cpu = sched_getcpu();
  cpu_set_t set;
  CPU_ZERO(&set);
  if (cpu >= 0) CPU_SET(cpu, &set);
  if (cpu < 0 || sched_setaffinity(0, sizeof set, &set) != 0)
    std::fprintf(stderr, "perfbench: cannot pin to one CPU; runs stay unpinned\n");
}

/// One set-up of a workload: LP map, model (optionally decorated) and the
/// backend object, ready for run().
struct Prepared {
  cagvt::pdes::LpMap map;
  std::unique_ptr<cagvt::pdes::Model> model;
  std::unique_ptr<TimedModel> timed;
  std::unique_ptr<cagvt::core::Simulation> sim;
  std::unique_ptr<cagvt::exec::ThreadEngine> threads;

  SimulationResult run() {
    // The threads backend's cap is real time, the coroutine one's simulated.
    return sim ? sim->run() : threads->run(/*max_wall_seconds=*/150.0);
  }
};

std::unique_ptr<Prepared> prepare(const Workload& w, bool decorate, bool obs) {
  cagvt::core::SimulationConfig cfg = w.cfg;
  cfg.obs.trace = obs;
  cfg.obs.metrics = obs;
  auto p = std::make_unique<Prepared>(Prepared{cagvt::core::Simulation::make_map(cfg), nullptr,
                                               nullptr, nullptr, nullptr});
  p->model = w.make_model(p->map);
  const cagvt::pdes::Model* model = p->model.get();
  if (decorate) {
    p->timed = std::make_unique<TimedModel>(*p->model);
    model = p->timed.get();
  }
  if (w.coroutine()) {
    p->sim = std::make_unique<cagvt::core::Simulation>(cfg, *model);
  } else {
    p->threads = std::make_unique<cagvt::exec::ThreadEngine>(cfg, *model);
  }
  return p;
}

/// Every virtual counter of a result, as raw bits. On the coroutine backend
/// two runs of the same code and seed must produce identical signatures.
std::vector<std::uint64_t> virtual_signature(const SimulationResult& r) {
  const auto& e = r.events;
  const double doubles[] = {r.wall_seconds,        r.committed_rate,     r.efficiency,
                            r.final_gvt,           r.gvt_round_seconds,  r.gvt_block_seconds,
                            r.lock_wait_seconds,   r.avg_lvt_disparity,  r.last_global_efficiency};
  std::vector<std::uint64_t> sig = {
      e.processed, e.committed, e.rolled_back, e.rollback_episodes, e.primary_rollbacks,
      e.secondary_rollbacks, e.stragglers, e.events_generated, e.antimessages_emitted,
      e.annihilated_pending, e.annihilated_early, e.local_cancellations, e.migration_reorders,
      e.cancelled_back, e.max_history, e.pool_peak, r.gvt_rounds, r.sync_rounds,
      r.gvt_throttle_rounds, r.gvt_throttle_engagements, r.regional_msgs, r.remote_msgs,
      r.net_frames, r.tree_frames, r.flow_cancelbacks, r.flow_releases, r.flow_storms,
      r.flow_throttle_engagements, r.flow_forced_rounds, r.flow_absorbed_antis,
      r.peak_event_pool, r.committed_fingerprint, r.state_hash};
  for (const double d : doubles) sig.push_back(std::bit_cast<std::uint64_t>(d));
  for (const double g : r.gvt_trace) sig.push_back(std::bit_cast<std::uint64_t>(g));
  return sig;
}

struct Oracle {
  std::uint64_t committed = 0;
  std::uint64_t fingerprint = 0;
  std::uint64_t state_hash = 0;
  double seconds = 0;
};

Oracle sequential_reference(const Workload& w) {
  const cagvt::pdes::LpMap map = cagvt::core::Simulation::make_map(w.cfg);
  const auto model = w.make_model(map);
  const auto start = Clock::now();
  cagvt::pdes::SequentialReference ref(*model, map, {.end_vt = w.cfg.end_vt, .seed = w.cfg.seed});
  ref.run();
  return {ref.committed(), ref.fingerprint(), ref.state_hash(), seconds_since(start)};
}

/// Runs attempted and failed, against the oracle and the drift reference.
class Checker {
 public:
  Checker(const Workload& w, Oracle oracle)
      : name_(w.name), coroutine_(w.coroutine()), oracle_(oracle) {}

  /// Count one run, and count it failed unless it passes every check.
  void check(const SimulationResult& r, const char* what) {
    ++attempted_;
    std::string why;
    if (!r.completed) {
      why = "run did not complete";
    } else if (r.events.committed != oracle_.committed) {
      why = "committed count differs from seqref";
    } else if (r.committed_fingerprint != oracle_.fingerprint) {
      why = "fingerprint differs from seqref";
    } else if (r.state_hash != oracle_.state_hash) {
      why = "state hash differs from seqref";
    } else if (coroutine_) {
      const auto sig = virtual_signature(r);
      if (!reference_) {
        reference_ = sig;
      } else if (sig != *reference_) {
        why = "virtual counters drifted from the first run";
      }
    }
    if (why.empty()) return;
    ++failed_;
    std::fprintf(stderr, "FAILED %s run of %s: %s\n", what, name_.c_str(), why.c_str());
  }

  const Oracle& oracle() const { return oracle_; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::string name_;
  bool coroutine_;
  Oracle oracle_;
  std::optional<std::vector<std::uint64_t>> reference_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

struct TimedRun {
  SimulationResult result;
  double run_s = 0;
  double peak_rss_mb = 0;  // set-up excluded
  std::vector<TimedModel::ThreadTotals> handlers;  // decorated runs only
};

TimedRun timed_run(const Workload& w, bool decorate, bool obs) {
  auto p = prepare(w, decorate, obs);
  TimedRun out;
  reset_peak_rss();
  const auto start = Clock::now();
  out.result = p->run();
  out.run_s = seconds_since(start);
  out.peak_rss_mb = peak_rss_mb();
  if (p->timed) out.handlers = p->timed->totals();
  return out;
}

/// Set the workload up `reps` times, appending each set-up time to `out`.
void time_setups(const Workload& w, int reps, std::vector<double>& out) {
  for (int i = 0; i < reps; ++i) {
    const auto start = Clock::now();
    const auto p = prepare(w, /*decorate=*/false, /*obs=*/false);
    out.push_back(seconds_since(start));
  }
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::map<std::string, double>& values, const Metric* table,
                  std::size_t count) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < count; ++i) {
    const double v = values.at(table[i].name);
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                table[i].name, std::isfinite(v) ? v : 0.0, table[i].unit);
  }
  std::printf("}}\n");
}

void print_metric_lines(const std::map<std::string, double>& values, const Metric* table,
                        std::size_t count) {
  for (std::size_t i = 0; i < count; ++i)
    std::printf("  %-36s %.6g %s\n", table[i].name, values.at(table[i].name), table[i].unit);
}

/// One instance of a workload with its oracle and drift reference.
struct Instance {
  Workload w;
  Checker checker;
};

/// Untraced runs: the end-to-end metrics. The warm-up pass runs every
/// instance once on the current code: it grows the heap and gives the
/// virtual metrics. Then *pairs* repeat while time allows, cycling through
/// the instances: each runs one instance on the frozen baseline and on the
/// current code, back to back. The current runs must repeat the warm-up's
/// virtual counters (coroutine backend).
int run_untraced(const std::vector<Workload>& workloads, std::uint64_t seed, double seconds) {
  const auto start = Clock::now();
  // Pinning would serialise a workload that runs threads in parallel.
  if (single_busy_thread(workloads.front())) pin_to_current_cpu();
  // Set-ups are sampled between pairs too, so their median spans the run.
  constexpr int kSetupReps = 21;
  std::vector<double> setup_s;
  time_setups(workloads.front(), kSetupReps, setup_s);
  std::vector<Instance> instances;
  for (const Workload& w : workloads) instances.push_back({w, Checker(w, sequential_reference(w))});
  std::fprintf(stderr, "set-up and seqref: %.3f s\n", seconds_since(start));
  double committed = 0, processed = 0, wall = 0, rounds = 0, host_s = 0;
  std::vector<double> peak_rss;
  // Record one current run: checks, counters and memory.
  auto take = [&](Instance& inst, const TimedRun& run, bool first) {
    const SimulationResult& r = run.result;
    inst.checker.check(r, first ? "warm-up" : "timed");
    peak_rss.push_back(run.peak_rss_mb);
    // Coroutine counters repeat exactly, so the warm-up holds them all;
    // threads-backend counters vary, so every run adds to them.
    if (first || !inst.w.coroutine()) {
      committed += static_cast<double>(r.events.committed);
      processed += static_cast<double>(r.events.processed);
      wall += r.wall_seconds;
      rounds += static_cast<double>(r.gvt_rounds);
      host_s += run.run_s;
    }
  };
  for (Instance& inst : instances) {
    const TimedRun run = timed_run(inst.w, false, false);
    take(inst, run, true);
    std::fprintf(stderr, "warm-up instance %zu: run() %.5f s\n",
                 static_cast<std::size_t>(&inst - instances.data()), run.run_s);
  }
  // Pairs cycle through the instances. Each gives the current code's speed
  // relative to the baseline's: the ratio of their committed rates.
  std::vector<double> log_speed;
  std::uint64_t baseline_runs = 0, baseline_failed = 0;
  double last_pair_s = 0;
  // Every instance once at least, so the drift check has material.
  while (log_speed.size() < instances.size() ||
         seconds_since(start) + last_pair_s <= seconds) {
    const auto pair_start = Clock::now();
    const std::size_t pair = log_speed.size();
    const int k = static_cast<int>(pair % instances.size());
    Instance& inst = instances[k];
    // Alternate the order from round to round, so that neither side of an
    // instance always runs second.
    const bool baseline_first = (pair / instances.size()) % 2 == 0;
    perfbench_baseline::Run base;
    if (baseline_first) base = perfbench_baseline::run_instance(inst.w.name, seed, k);
    const TimedRun run = timed_run(inst.w, false, false);
    if (!baseline_first) base = perfbench_baseline::run_instance(inst.w.name, seed, k);
    take(inst, run, false);
    ++baseline_runs;
    if (!base.completed) {
      ++baseline_failed;
      std::fprintf(stderr, "FAILED baseline run of %s: run did not complete\n",
                   inst.w.name.c_str());
    }
    const double current_rate = static_cast<double>(run.result.events.committed) / run.run_s;
    const double baseline_rate = static_cast<double>(base.committed) / base.run_s;
    log_speed.push_back(std::log(current_rate / baseline_rate));
    std::fprintf(stderr,
                 "pair %zu instance %d: run() %.5f s, baseline run() %.5f s, baseline %.0f "
                 "committed/s\n",
                 pair, k, run.run_s, base.run_s, baseline_rate);
    time_setups(workloads.front(), kSetupReps, setup_s);
    last_pair_s = seconds_since(pair_start);
  }
  const double speed = std::exp(interquartile_mean(log_speed));
  const double host_rate = workloads.front().reference_committed_per_s * speed;
  // On the threads backend wall_seconds is real time, so the sim_* rates
  // are host rates too: put them on host_committed_per_s's fixed scale.
  const double scale = workloads.front().coroutine() ? 1.0 : host_rate / (committed / host_s);
  std::uint64_t attempted = baseline_runs, failed = baseline_failed;
  for (const Instance& inst : instances) {
    attempted += inst.checker.attempted();
    failed += inst.checker.failed();
  }
  const std::map<std::string, double> values = {
      {"setup_s", median(setup_s)},
      {"host_committed_per_s", host_rate},
      {"peak_rss_mb", median(peak_rss)},
      {"efficiency", ratio(committed, processed)},
      {"sim_committed_rate", scale * ratio(committed, wall)},
      {"sim_gvt_rounds_per_s", scale * ratio(rounds, wall)},
  };
  std::printf("runs: warm-up of %zu instances, %zu pairs; speed vs baseline %.4f\n",
              instances.size(), log_speed.size(), speed);
  print_metric_lines(values, kEndToEnd, std::size(kEndToEnd));
  print_result(failed == 0, attempted, failed, values, kEndToEnd, std::size(kEndToEnd));
  return 0;
}

double handler_seconds(const TimedRun& run) {
  double ns = 0;
  for (const auto& t : run.handlers) ns += static_cast<double>(t.ns);
  return ns * 1e-9;
}

std::uint64_t handler_calls(const TimedRun& run) {
  std::uint64_t calls = 0;
  for (const auto& t : run.handlers) calls += t.calls;
  return calls;
}

/// Record a timed run as a span with one child span per handler thread.
void record_run(SpanLog& log, int parent, const char* name, double start_s, const TimedRun& run) {
  const int id = log.add({name, parent, 0, start_s, run.run_s, {}});
  log.arg(id, "processed", static_cast<double>(run.result.events.processed));
  for (std::size_t t = 0; t < run.handlers.size(); ++t) {
    const auto& h = run.handlers[t];
    // Handler time is a per-thread total, drawn from the run's start.
    const int hid = log.add({"models.handler", id, static_cast<int>(t) + 1, start_s,
                             static_cast<double>(h.ns) * 1e-9, {}});
    log.arg(hid, "calls", static_cast<double>(h.calls));
  }
}

/// The traced run: per-layer metrics, spans, and the self-time report.
int run_traced(const Workload& w, std::uint64_t seed, double seconds, const std::string& dir) {
  const auto start = Clock::now();
  SpanLog log(w.name + "-seed" + std::to_string(seed) + "-pid" + std::to_string(getpid()));
  const int root = log.begin("benchmark");

  int span = log.begin("setup", root);
  std::vector<double> setups;
  time_setups(w, 21, setups);
  const double setup_s = median(setups);
  log.end(span);
  log.arg(span, "median_s", setup_s);

  span = log.begin("pdes.seqref", root);
  const Oracle oracle = sequential_reference(w);
  log.end(span);
  log.arg(span, "committed", static_cast<double>(oracle.committed));

  // Budget: drivers get a fixed share; the rest repeats the
  // untraced / decorated / traced triple (at least once).
  const double driver_budget = std::clamp(0.2 * seconds, 1.0, 6.0);
  Checker checker(w, oracle);
  std::vector<TimedRun> untraced, decorated, traced;
  double last_triple_s = 0;
  while (untraced.empty() ||
         seconds_since(start) + last_triple_s + driver_budget <= seconds) {
    const auto triple_start = Clock::now();
    double t0 = log.now_s();
    untraced.push_back(timed_run(w, false, false));
    record_run(log, root, "run.untraced", t0, untraced.back());
    checker.check(untraced.back().result, "untraced");
    t0 = log.now_s();
    decorated.push_back(timed_run(w, true, false));
    record_run(log, root, "run.decorated", t0, decorated.back());
    checker.check(decorated.back().result, "decorated");
    // The threads backend rejects cfg.obs: its traced run carries only the
    // decorator, so obs.overhead_s measures the decorator there.
    t0 = log.now_s();
    traced.push_back(timed_run(w, true, w.coroutine()));
    record_run(log, root, "run.traced", t0, traced.back());
    checker.check(traced.back().result, "traced");
    last_triple_s = seconds_since(triple_start);
  }

  const SimulationResult& r = untraced.front().result;
  const auto& e = r.events;
  const double workers = static_cast<double>(w.cfg.nodes * w.cfg.workers_per_node());
  // Threads that run handlers at once: one on the cooperative substrate.
  const double handler_threads = w.coroutine() ? 1.0 : workers;
  auto median_of = [](const std::vector<TimedRun>& runs, auto&& f) {
    std::vector<double> v;
    for (const TimedRun& run : runs) v.push_back(f(run));
    return median(v);
  };
  const double untraced_s = median_of(untraced, [](const TimedRun& x) { return x.run_s; });
  const double traced_s = median_of(traced, [](const TimedRun& x) { return x.run_s; });
  const double decorated_s = median_of(decorated, [](const TimedRun& x) { return x.run_s; });
  const double handler_s = median_of(decorated, handler_seconds);
  const double host_rate = median_of(untraced, [](const TimedRun& x) {
    return static_cast<double>(x.result.events.committed) / x.run_s;
  });
  const double seqref_rate = static_cast<double>(oracle.committed) / oracle.seconds;

  DriverShapes shapes;
  shapes.engine_queue_depth = w.cfg.nodes * w.cfg.threads_per_node;
  shapes.pending_size = std::max<std::size_t>(1, e.pool_peak);
  shapes.cancel_fraction = ratio(static_cast<double>(e.antimessages_emitted),
                                 static_cast<double>(e.processed));
  shapes.kernel_lps = w.cfg.lps_per_worker;
  shapes.rollback_depth = std::max(1.0, ratio(static_cast<double>(e.rolled_back),
                                              static_cast<double>(e.rollback_episodes)));
  shapes.fossil_batch = static_cast<std::size_t>(std::clamp(
      ratio(static_cast<double>(e.committed), static_cast<double>(r.gvt_rounds) * workers), 8.0,
      1e5));
  shapes.tree_arity = cagvt::core::autotune_tree_arity(shapes.tree_ranks, w.cfg.cluster);
  shapes.mpsc_producers = std::clamp(w.cfg.workers_per_node(), 1, 3);
  shapes.sources = {
      "engine_queue_depth=" + std::to_string(shapes.engine_queue_depth) +
          " (nodes * threads_per_node)",
      "pending_size=" + std::to_string(shapes.pending_size) + " (pdes.pool_peak)",
      "cancel_fraction=" + std::to_string(shapes.cancel_fraction) +
          " (pdes.antimessages / pdes.processed)",
      "kernel_lps=" + std::to_string(shapes.kernel_lps) + " (lps_per_worker)",
      "rollback_depth=" + std::to_string(shapes.rollback_depth) +
          " (pdes.rolled_back / pdes.rollback_episodes)",
      "fossil_batch=" + std::to_string(shapes.fossil_batch) +
          " (committed / (core.gvt_rounds * workers))",
      "tree=" + std::to_string(shapes.tree_ranks) + " ranks, arity " +
          std::to_string(shapes.tree_arity) + " (autotune_tree_arity)",
      "mpsc_producers=" + std::to_string(shapes.mpsc_producers) +
          " (senders into one inbox: the node's other workers and one remote sender, at most 3)",
  };
  span = log.begin("drivers", root);
  const std::map<std::string, double> drivers = run_drivers(w, shapes, driver_budget, log, span);
  log.end(span);
  log.end(root);

  const bool threads = !w.coroutine();
  const auto& tr = traced.front().result;
  std::map<std::string, double> values = drivers;
  const double processed = static_cast<double>(decorated.front().result.events.processed);
  values.insert({
      {"models.handler_calls", static_cast<double>(handler_calls(decorated.front()))},
      {"models.handler_self_s", handler_s},
      {"models.share_of_host", ratio(handler_s, decorated_s * handler_threads)},
      {"substrate.host_ns_per_processed",
       ratio((decorated_s * handler_threads - handler_s) * 1e9, processed)},
      {"metasim.lock_wait_s", r.lock_wait_seconds},
      {"pdes.processed", static_cast<double>(e.processed)},
      {"pdes.rolled_back", static_cast<double>(e.rolled_back)},
      {"pdes.rollback_episodes", static_cast<double>(e.rollback_episodes)},
      {"pdes.stragglers", static_cast<double>(e.stragglers)},
      {"pdes.antimessages", static_cast<double>(e.antimessages_emitted)},
      {"pdes.useful_ratio", ratio(static_cast<double>(e.processed - e.rolled_back),
                                  static_cast<double>(e.processed))},
      {"pdes.pool_peak", static_cast<double>(e.pool_peak)},
      {"pdes.seqref_committed_per_s", seqref_rate},
      {"pdes.timewarp_overhead", ratio(seqref_rate, host_rate)},
      {"core.gvt_rounds", static_cast<double>(r.gvt_rounds)},
      {"core.sync_rounds", static_cast<double>(r.sync_rounds)},
      {"core.throttle_rounds", static_cast<double>(r.gvt_throttle_rounds)},
      {"core.throttle_engagements", static_cast<double>(r.gvt_throttle_engagements)},
      {"core.gvt_block_s", r.gvt_block_seconds},
      {"core.gvt_round_s", r.gvt_round_seconds},
      {"core.lvt_disparity", r.avg_lvt_disparity},
      {"net.regional_msgs", static_cast<double>(r.regional_msgs)},
      {"net.remote_msgs", static_cast<double>(r.remote_msgs)},
      {"net.frames", static_cast<double>(r.net_frames)},
      {"net.tree_frames", static_cast<double>(r.tree_frames)},
      {"net.frames_per_committed",
       ratio(static_cast<double>(r.net_frames), static_cast<double>(e.committed))},
      // exec is the threads backend; the coroutine workloads bypass it.
      {"exec.fence_rounds_per_s",
       threads ? ratio(static_cast<double>(r.gvt_rounds), untraced.front().run_s) : 0.0},
      {"exec.sync_rounds", threads ? static_cast<double>(r.sync_rounds) : 0.0},
      {"exec.throttle_rounds", threads ? static_cast<double>(r.gvt_throttle_rounds) : 0.0},
      {"exec.rolled_back_ratio",
       threads ? ratio(static_cast<double>(e.rolled_back), static_cast<double>(e.processed))
               : 0.0},
      {"flow.cancelbacks", static_cast<double>(r.flow_cancelbacks)},
      {"flow.releases", static_cast<double>(r.flow_releases)},
      {"flow.storms", static_cast<double>(r.flow_storms)},
      {"flow.throttle_engagements", static_cast<double>(r.flow_throttle_engagements)},
      {"flow.forced_rounds", static_cast<double>(r.flow_forced_rounds)},
      {"flow.peak_event_pool", static_cast<double>(r.peak_event_pool)},
      {"obs.trace_records", tr.trace ? static_cast<double>(tr.trace->records().size()) : 0.0},
      {"obs.trace_dropped", tr.trace ? static_cast<double>(tr.trace->dropped()) : 0.0},
      {"obs.overhead_s", traced_s - untraced_s},
  });

  const std::string path = dir + "/" + w.name + "-seed" + std::to_string(seed) + ".trace.json";
  const bool written = log.write_chrome_json(path);
  std::printf("trace: %s%s\n", path.c_str(), written ? "" : " (NOT WRITTEN)");
  std::printf("runs: %zu untraced, %zu decorated, %zu traced\n", untraced.size(),
              decorated.size(), traced.size());
  std::printf("driver shapes:\n");
  for (const std::string& s : shapes.sources) std::printf("  %s\n", s.c_str());
  std::printf("self time by layer (medians, seconds):\n");
  std::printf("  %-30s %.6f\n", "setup (one set-up)", setup_s);
  std::printf("  %-30s %.6f\n", "pdes.seqref", oracle.seconds);
  std::printf("  %-30s %.6f  (untraced run(): %.6f)\n", "substrate (run - handlers)",
              decorated_s * handler_threads - handler_s, untraced_s);
  std::printf("  %-30s %.6f  (%.1f%% of %s)\n", "models (handlers)", handler_s,
              100 * ratio(handler_s, decorated_s * handler_threads),
              threads ? "worker-thread seconds" : "run()");
  std::printf("  %-30s %.6f  (traced run(): %.6f)\n", "obs overhead", traced_s - untraced_s,
              traced_s);
  std::printf("  %-30s %.6f\n", "layer drivers (all)", log.span(span).dur_s);
  print_metric_lines(values, kPerLayer, std::size(kPerLayer));
  const bool correct = checker.failed() == 0 && written;
  print_result(correct, checker.attempted(), checker.failed(), values, kPerLayer,
               std::size(kPerLayer));
  return 0;
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-dir DIR]\n",
               why.c_str());
  std::exit(2);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) usage("malformed arguments");
    args[key.substr(2)] = argv[i + 1];
  }
  for (const char* required : {"workload", "seed", "seconds", "trace"})
    if (!args.contains(required)) usage(std::string("missing --") + required);
  try {
    const std::uint64_t seed = std::stoull(args["seed"]);
    const double seconds = std::stod(args["seconds"]);
    const std::string trace = args["trace"];
    if (!(seconds > 0)) usage("--seconds must be positive");
    if (trace != "0" && trace != "1") usage("--trace must be 0 or 1");
    const std::vector<Workload> instances = make_instances(args["workload"], seed);
    const Workload& w = instances.front();
    char host[256] = {};
    gethostname(host, sizeof host - 1);
    std::printf("host: %s nproc: %u\n", host, std::thread::hardware_concurrency());
    for (const Workload& inst : instances) std::printf("workload: %s\n", inst.describe().c_str());
    if (trace == "0") return run_untraced(instances, seed, seconds);
    return run_traced(w, seed, seconds, args.contains("trace-dir") ? args["trace-dir"] : ".");
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "perfbench: %s\n", ex.what());
    return 1;
  }
}
