#include "drivers.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <stdexcept>
#include <thread>

#include "exec/mpsc_queue.hpp"
#include "metasim/engine.hpp"
#include "metasim/process.hpp"
#include "net/tree_reduce.hpp"
#include "pdes/kernel.hpp"
#include "pdes/pending_set.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using cagvt::pdes::Event;

double ns_since(Clock::time_point start) {
  return std::chrono::duration<double, std::nano>(Clock::now() - start).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Call `batch` until `budget_s` has passed (at least `min_batches` times).
template <typename Batch>
void repeat_for(double budget_s, int min_batches, Batch&& batch) {
  const auto start = Clock::now();
  for (int i = 0; i < min_batches || ns_since(start) < budget_s * 1e9; ++i) batch();
}

std::uint64_t unique_uid(std::uint64_t n) { return cagvt::splitmix64(n); }

// --- metasim -----------------------------------------------------------------

/// call_at and dispatch of plain callbacks, on an engine whose queue holds
/// `depth` other entries (one continuation per simulated thread).
void engine_schedule(int depth, double budget_s, std::map<std::string, double>& out) {
  cagvt::metasim::Engine engine;
  std::uint64_t fired = 0;
  constexpr cagvt::metasim::SimTime kFar = cagvt::metasim::seconds(1e6);
  for (int i = 0; i < depth; ++i) engine.call_at(kFar + i, [&fired] { ++fired; });
  constexpr int kBatch = 1024;
  cagvt::Xoshiro256StarStar rng(depth);
  std::vector<cagvt::metasim::SimTime> offsets(kBatch);
  for (auto& o : offsets) o = 1 + static_cast<cagvt::metasim::SimTime>(rng() % kBatch);
  std::vector<double> call_ns;
  std::vector<double> dispatch_ns;
  repeat_for(budget_s, 5, [&] {
    const cagvt::metasim::SimTime t0 = engine.now();
    auto start = Clock::now();
    for (const auto o : offsets) engine.call_at(t0 + o, [&fired] { ++fired; });
    call_ns.push_back(ns_since(start) / kBatch);
    const std::uint64_t before = engine.dispatched();
    start = Clock::now();
    engine.run(t0 + kBatch);
    dispatch_ns.push_back(ns_since(start) /
                          static_cast<double>(engine.dispatched() - before));
  });
  if (fired != engine.dispatched()) throw std::logic_error("engine driver lost callbacks");
  out["metasim.engine.call_at_ns"] = median(call_ns);
  out["metasim.engine.dispatch_ns"] = median(dispatch_ns);
}

cagvt::metasim::Process spinner(cagvt::metasim::SimTime step) {
  for (;;) co_await cagvt::metasim::delay(step);
}

/// Coroutine resumes: `depth` simulated threads that each sleep and wake
/// again, the substrate's resume_at -> dispatch -> resume cycle.
void engine_resume(int depth, double budget_s, std::map<std::string, double>& out) {
  cagvt::metasim::Engine engine;
  for (int i = 0; i < depth; ++i) cagvt::metasim::spawn(engine, spinner(1 + i % 7));
  // Mean step is 4 ns, so a 4096-resume batch spans 4 * 4096 / depth ns.
  const cagvt::metasim::SimTime span = std::max<cagvt::metasim::SimTime>(1, 4 * 4096 / depth);
  std::vector<double> resume_ns;
  repeat_for(budget_s, 5, [&] {
    const std::uint64_t before = engine.dispatched();
    const auto start = Clock::now();
    engine.run(engine.now() + span);
    resume_ns.push_back(ns_since(start) / static_cast<double>(engine.dispatched() - before));
  });
  out["metasim.engine.resume_ns"] = median(resume_ns);
}

// --- pdes ----------------------------------------------------------------------

/// PendingSet hold model at the workload's pool size: push a batch, cancel
/// the workload's share of it, pop back down.
void pending_set(std::size_t size, double cancel_fraction, double budget_s,
                 std::map<std::string, double>& out) {
  cagvt::pdes::PendingSet pending;
  cagvt::Xoshiro256StarStar rng(size);
  std::uint64_t next = 0;
  double now = 0;
  auto make = [&] {
    Event e;
    e.recv_ts = now + 1e-9 + rng.next_double() * 2.0;
    e.uid = unique_uid(++next);
    e.dst_lp = 0;
    return e;
  };
  for (std::size_t i = 0; i < size; ++i) pending.push(make());
  const std::size_t batch = std::clamp<std::size_t>(size, 16, 1024);
  // At least one cancel per batch on average, so the cost is always sampled.
  const double p_cancel = std::max(cancel_fraction, 1.0 / static_cast<double>(batch));
  std::vector<Event> fresh(batch);
  std::vector<std::uint64_t> cancels;
  std::vector<double> push_ns;
  std::vector<double> pop_ns;
  double cancel_total_ns = 0;
  std::uint64_t cancel_count = 0;
  repeat_for(budget_s, 5, [&] {
    cancels.clear();
    for (auto& e : fresh) {
      e = make();
      if (rng.next_double() < p_cancel) cancels.push_back(e.uid);
    }
    auto start = Clock::now();
    for (const Event& e : fresh) pending.push(e);
    push_ns.push_back(ns_since(start) / static_cast<double>(batch));
    start = Clock::now();
    for (const std::uint64_t uid : cancels) pending.cancel(uid);
    cancel_total_ns += ns_since(start);
    cancel_count += cancels.size();
    const std::size_t pops = batch - cancels.size();
    start = Clock::now();
    for (std::size_t i = 0; i < pops; ++i)
      now = pending.pop_next(cagvt::pdes::kVtInfinity)->recv_ts;
    if (pops > 0) pop_ns.push_back(ns_since(start) / static_cast<double>(pops));
  });
  if (pending.size() != size) throw std::logic_error("pending-set driver changed its size");
  out["pdes.pending.push_ns"] = median(push_ns);
  out["pdes.pending.pop_ns"] = median(pop_ns);
  out["pdes.pending.cancel_ns"] =
      cancel_count == 0 ? 0 : cancel_total_ns / static_cast<double>(cancel_count);
}

/// One ThreadKernel owning the workload's per-worker LP block (all traffic
/// local, so the population stays constant): process a GVT round's worth of
/// events, roll one LP back with a straggler, fossil-collect.
void kernel(const Workload& workload, int lps, double depth, std::size_t fossil_batch,
            double budget_s, std::map<std::string, double>& out) {
  const cagvt::pdes::LpMap map(1, 1, lps);
  const auto model = workload.make_model(map);
  cagvt::pdes::ThreadKernel k(*model, map, 0,
                              {.end_vt = cagvt::pdes::kVtInfinity, .seed = workload.cfg.seed});
  k.init();
  const std::size_t target_depth =
      std::max<std::size_t>(1, static_cast<std::size_t>(std::lround(depth)));
  double gvt = 0;
  std::uint64_t stragglers = 0;
  std::vector<double> process_ns;
  double rollback_ns = 0;
  std::uint64_t rolled_back = 0;
  double fossil_ns = 0;
  std::uint64_t fossils = 0;
  repeat_for(budget_s, 5, [&] {
    auto start = Clock::now();
    for (std::size_t i = 0; i < fossil_batch; ++i) {
      if (!k.process_next().processed) throw std::logic_error("kernel driver ran dry");
    }
    process_ns.push_back(ns_since(start) / static_cast<double>(fossil_batch));

    // Straggler just above the fossil horizon, at the LP whose uncommitted
    // history is closest to the workload's mean rollback depth.
    cagvt::pdes::LpId victim = 0;
    std::size_t best = std::numeric_limits<std::size_t>::max();
    for (cagvt::pdes::LpId lp = 0; lp < lps; ++lp) {
      const std::size_t h = k.lp_history_size(lp);
      const std::size_t gap = h > target_depth ? h - target_depth : target_depth - h;
      if (h > 0 && gap < best) {
        best = gap;
        victim = lp;
      }
    }
    Event straggler;
    straggler.recv_ts = std::nextafter(gvt, cagvt::pdes::kVtInfinity);
    straggler.send_ts = gvt;
    straggler.uid = unique_uid(~++stragglers);
    straggler.src_lp = victim;
    straggler.dst_lp = victim;
    start = Clock::now();
    const cagvt::pdes::Outcome outcome = k.deposit(straggler);
    rollback_ns += ns_since(start);
    rolled_back += static_cast<std::uint64_t>(outcome.rolled_back);
    // Withdraw the straggler again so the event population stays constant.
    k.deposit(straggler.make_anti());

    gvt = k.local_min_ts();
    start = Clock::now();
    const std::uint64_t committed = k.fossil_collect(gvt);
    fossil_ns += ns_since(start);
    fossils += committed;
  });
  out["pdes.kernel.process_ns"] = median(process_ns);
  out["pdes.kernel.rollback_ns_per_event"] =
      rolled_back == 0 ? 0 : rollback_ns / static_cast<double>(rolled_back);
  out["pdes.kernel.fossil_ns_per_event"] =
      fossils == 0 ? 0 : fossil_ns / static_cast<double>(fossils);
}

// --- net -----------------------------------------------------------------------

/// One all-reduce wave of TreeReducer state machines over `ranks` ranks:
/// every rank contributes, frames are delivered in FIFO order until the
/// broadcast reaches every rank, and every rank takes its result.
void tree_wave(int ranks, int arity, double budget_s, std::map<std::string, double>& out) {
  const cagvt::net::TreeTopology topo{ranks, arity};
  std::vector<cagvt::net::TreeReducer> reducers;
  reducers.reserve(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) reducers.emplace_back(topo, r);
  std::uint64_t wave = 0;
  std::deque<cagvt::net::TreeMsg> frames;
  std::vector<double> wave_ns;
  repeat_for(budget_s, 5, [&] {
    ++wave;
    const auto start = Clock::now();
    for (int r = 0; r < ranks; ++r) {
      cagvt::net::TreeVal val;
      val.min_a = static_cast<double>((r * 7919 + static_cast<int>(wave)) % ranks);
      val.sum[0] = 1;
      for (const auto& m : reducers[static_cast<std::size_t>(r)].contribute(wave, val))
        frames.push_back(m);
    }
    while (!frames.empty()) {
      const cagvt::net::TreeMsg msg = frames.front();
      frames.pop_front();
      for (const auto& m : reducers[static_cast<std::size_t>(msg.to)].deliver(msg))
        frames.push_back(m);
    }
    std::int64_t total = 0;
    for (auto& reducer : reducers) total += reducer.take_result(wave).sum[0];
    wave_ns.push_back(ns_since(start));
    if (total != static_cast<std::int64_t>(ranks) * ranks)
      throw std::logic_error("tree driver reduced a wrong total");
  });
  out["net.tree.wave_ns"] = median(wave_ns);
}

// --- exec ----------------------------------------------------------------------

/// `producers` threads push into one MpscQueue while its single consumer
/// drains, as a worker inbox does on the threads backend.
void mpsc(int producers, double budget_s, std::map<std::string, double>& out) {
  constexpr std::size_t kPerProducer = 1u << 14;
  std::vector<double> push_ns;
  double drain_ns = 0;
  std::uint64_t drained = 0;
  repeat_for(budget_s, 3, [&] {
    cagvt::exec::MpscQueue<Event> queue;
    std::atomic<bool> go{false};
    std::vector<double> per_producer(static_cast<std::size_t>(producers), 0);
    std::vector<std::thread> threads;
    for (int p = 0; p < producers; ++p) {
      threads.emplace_back([&, p] {
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        Event e;
        e.src_lp = p;
        const auto start = Clock::now();
        for (std::size_t i = 0; i < kPerProducer; ++i) {
          e.uid = i;
          queue.push(e);
        }
        per_producer[static_cast<std::size_t>(p)] =
            ns_since(start) / static_cast<double>(kPerProducer);
      });
    }
    std::vector<Event> buffer;
    buffer.reserve(kPerProducer * static_cast<std::size_t>(producers));
    const std::size_t total = kPerProducer * static_cast<std::size_t>(producers);
    go.store(true, std::memory_order_release);
    while (buffer.size() < total) {
      if (queue.approx_empty()) continue;
      const auto start = Clock::now();
      drained += queue.drain(buffer);
      drain_ns += ns_since(start);
    }
    for (std::thread& t : threads) t.join();
    for (const double ns : per_producer) push_ns.push_back(ns);
  });
  out["exec.mpsc.push_ns"] = median(push_ns);
  out["exec.mpsc.drain_ns_per_item"] = drain_ns / static_cast<double>(drained);
}

}  // namespace

std::map<std::string, double> run_drivers(const Workload& workload, const DriverShapes& shapes,
                                          double budget_s, SpanLog& log, int parent) {
  std::map<std::string, double> out;
  const double slice = budget_s / 6;
  auto timed = [&](const char* name, auto&& driver) {
    const int span = log.begin(name, parent);
    driver();
    log.end(span);
  };
  timed("driver.metasim.engine.schedule",
        [&] { engine_schedule(shapes.engine_queue_depth, slice, out); });
  timed("driver.metasim.engine.resume",
        [&] { engine_resume(shapes.engine_queue_depth, slice, out); });
  timed("driver.pdes.pending",
        [&] { pending_set(shapes.pending_size, shapes.cancel_fraction, slice, out); });
  timed("driver.pdes.kernel", [&] {
    kernel(workload, shapes.kernel_lps, shapes.rollback_depth, shapes.fossil_batch, slice, out);
  });
  timed("driver.net.tree", [&] { tree_wave(shapes.tree_ranks, shapes.tree_arity, slice, out); });
  timed("driver.exec.mpsc", [&] { mpsc(shapes.mpsc_producers, slice, out); });
  return out;
}

}  // namespace perfbench
