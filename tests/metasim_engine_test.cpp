// Engine dispatch order, time monotonicity, stop/run-until semantics, and
// exact idle-poll elision.
#include "metasim/engine.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <queue>
#include <tuple>
#include <vector>

#include "metasim/process.hpp"
#include "util/rng.hpp"

namespace cagvt::metasim {
namespace {

TEST(EngineTest, DispatchesInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  engine.call_at(30, [&] { order.push_back(3); });
  engine.call_at(10, [&] { order.push_back(1); });
  engine.call_at(20, [&] { order.push_back(2); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.now(), 30);
  EXPECT_EQ(engine.dispatched(), 3u);
}

TEST(EngineTest, EqualTimesDispatchFifo) {
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) engine.call_at(5, [&order, i] { order.push_back(i); });
  engine.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EngineTest, CallbacksMayScheduleMore) {
  Engine engine;
  std::vector<SimTime> times;
  std::function<void()> reschedule = [&] {
    times.push_back(engine.now());
    if (times.size() < 5) engine.call_after(7, reschedule);
  };
  engine.call_at(0, reschedule);
  engine.run();
  ASSERT_EQ(times.size(), 5u);
  for (std::size_t i = 0; i < times.size(); ++i)
    EXPECT_EQ(times[i], static_cast<SimTime>(7 * i));
}

TEST(EngineTest, RunUntilStopsBeforeLaterEvents) {
  Engine engine;
  int ran = 0;
  engine.call_at(10, [&] { ++ran; });
  engine.call_at(100, [&] { ++ran; });
  engine.run(50);
  EXPECT_EQ(ran, 1);
  EXPECT_FALSE(engine.empty());
  engine.run();
  EXPECT_EQ(ran, 2);
  EXPECT_TRUE(engine.empty());
}

TEST(EngineTest, StopHaltsDispatch) {
  Engine engine;
  int ran = 0;
  engine.call_at(1, [&] {
    ++ran;
    engine.stop();
  });
  engine.call_at(2, [&] { ++ran; });
  engine.run();
  EXPECT_EQ(ran, 1);
  engine.run();  // resumes from where it stopped
  EXPECT_EQ(ran, 2);
}

TEST(EngineTest, CallAfterUsesCurrentTime) {
  Engine engine;
  SimTime observed = -1;
  engine.call_at(40, [&] { engine.call_after(2, [&] { observed = engine.now(); }); });
  engine.run();
  EXPECT_EQ(observed, 42);
}

TEST(EngineTest, ExceptionFromCallbackPropagates) {
  Engine engine;
  engine.call_at(1, [&] {
    engine.set_pending_exception(std::make_exception_ptr(std::runtime_error("boom")));
  });
  EXPECT_THROW(engine.run(), std::runtime_error);
}

TEST(EngineDeathTest, SchedulingInThePastAborts) {
  Engine engine;
  engine.call_at(10, [&] {});
  engine.run();
  EXPECT_DEATH(engine.call_at(5, [] {}), "simulated past");
}

// --- (when, seq) order against a reference model ----------------------------

/// Mirrors every scheduling call into a std::priority_queue keyed by
/// (when, seq), where seq counts scheduling calls exactly as the engine
/// does; each dispatched continuation checks it is the model's head.
struct OrderModel {
  struct Item {
    SimTime when;
    std::uint64_t seq;
    bool daemon;
    bool operator>(const Item& o) const { return std::tie(when, seq) > std::tie(o.when, o.seq); }
  };
  Engine engine;
  Xoshiro256StarStar rng{2024};
  std::priority_queue<Item, std::vector<Item>, std::greater<>> model;
  std::uint64_t next_seq = 0;
  std::uint64_t checked = 0;
  std::uint64_t budget = 4000;  // scheduling calls left

  /// Delay drawn from a tiny range so same-timestamp ties are common.
  SimTime draw_delay() { return static_cast<SimTime>(rng() % 4); }

  std::uint64_t expect(SimTime when, bool daemon) {
    model.push({when, next_seq, daemon});
    return next_seq++;
  }

  void dispatched(std::uint64_t seq) {
    ASSERT_FALSE(model.empty());
    EXPECT_EQ(model.top().seq, seq);
    EXPECT_EQ(model.top().when, engine.now());
    model.pop();
    ++checked;
    spawn_children();
  }

  void schedule_call(SimTime when, bool daemon) {
    const std::uint64_t seq = expect(when, daemon);
    auto fn = [this, seq] { dispatched(seq); };
    if (daemon) {
      engine.call_at_daemon(when, fn);
    } else {
      engine.call_at(when, fn);
    }
  }

  /// Every dispatch schedules 0-2 more callbacks while the budget lasts.
  void spawn_children() {
    const int children = static_cast<int>(rng() % 3);
    for (int i = 0; i < children && budget > 0; ++i, --budget)
      schedule_call(engine.now() + draw_delay(), rng() % 5 == 0);
  }
};

Process ticker(OrderModel& m, int hops) {
  for (int i = 0; i < hops; ++i) {
    const SimTime d = m.draw_delay();
    const std::uint64_t seq = m.expect(m.engine.now() + d, /*daemon=*/false);
    co_await delay(d);  // Engine::resume_at
    m.dispatched(seq);
  }
}

TEST(EngineTest, RandomMixDispatchesInWhenSeqOrder) {
  OrderModel m;
  m.schedule_call(seconds(1), /*daemon=*/true);  // outlives all real work
  for (int i = 0; i < 40; ++i) {
    switch (m.rng() % 3) {
      case 0:
        m.schedule_call(m.draw_delay(), /*daemon=*/false);
        break;
      case 1:
        m.schedule_call(m.draw_delay(), /*daemon=*/true);
        break;
      default: {
        const SimTime start = m.draw_delay();
        const std::uint64_t seq = m.expect(start, /*daemon=*/false);
        // The spawn's first resume is the model entry; the ticker checks
        // its later hops itself.
        spawn(m.engine, [](OrderModel& mm, std::uint64_t first, int hops) -> Process {
          mm.dispatched(first);
          co_await ticker(mm, hops);
        }(m, seq, 1 + static_cast<int>(m.rng() % 20)), start);
        break;
      }
    }
  }
  m.engine.run();
  EXPECT_GT(m.checked, 1000u);
  EXPECT_EQ(m.engine.dispatched(), m.checked);
  // Daemon-only exit: the run stops, undispatched, with only daemon
  // entries left.
  std::size_t left = 0;
  for (; !m.model.empty(); m.model.pop(), ++left) EXPECT_TRUE(m.model.top().daemon);
  EXPECT_GT(left, 0u);
  EXPECT_FALSE(m.engine.empty());
}

// --- poll lanes against the same model ---------------------------------------

/// A parked loop in the OrderModel mix. Its poller re-arms three times in
/// four (each re-arm is one model entry, taken with the next seq exactly
/// as the engine takes it) and otherwise wakes the loop, which parks again
/// or ends. Poll delays come from a few fixed values, 0 included, and the
/// "slow" loops stretch theirs by 3x from t = 40 on, the way a straggler
/// factor rescales the idle-poll period mid-run.
struct PollLoop final : Poller {
  OrderModel& m;
  SimTime base;
  bool slow;
  int polls_left;
  std::uint64_t seq = 0;  // model entry of the parked poll

  PollLoop(OrderModel& model, SimTime d, bool s, int polls)
      : m(model), base(d), slow(s), polls_left(polls) {}

  SimTime period() const { return slow && m.engine.now() >= 40 ? 3 * base : base; }

  /// Park at now + period(); returns the delay used.
  SimTime arm() {
    const SimTime d = period();
    seq = m.expect(m.engine.now() + d, /*daemon=*/false);
    return d;
  }

  SimTime skip() override {
    // The model check without spawn_children: skip() schedules nothing.
    EXPECT_FALSE(m.model.empty());
    EXPECT_EQ(m.model.top().seq, seq);
    EXPECT_EQ(m.model.top().when, m.engine.now());
    m.model.pop();
    ++m.checked;
    if (--polls_left <= 0 || m.rng() % 4 == 0) return kResume;
    return arm();
  }
};

Process parked_loop(PollLoop& p, int wakes) {
  for (int i = 0; i < wakes && p.polls_left > 0; ++i) {
    co_await park(p, p.arm());
    p.m.spawn_children();  // a woken loop does work: it schedules more
  }
}

TEST(EngineTest, PollLanesDispatchInWhenSeqOrder) {
  OrderModel m;
  m.budget = 3000;
  m.schedule_call(seconds(1), /*daemon=*/true);  // outlives all real work
  // Two or three distinct delays at any time (0, 2 and 3, then 0, 3 and 6).
  std::vector<std::unique_ptr<PollLoop>> loops;
  const SimTime bases[] = {0, 2, 3, 2, 3, 2};
  for (int i = 0; i < 6; ++i) {
    loops.push_back(std::make_unique<PollLoop>(m, bases[i], /*slow=*/bases[i] == 2, 400));
    const SimTime start = m.draw_delay();
    const std::uint64_t first = m.expect(start, /*daemon=*/false);
    spawn(m.engine, [](PollLoop& p, std::uint64_t seq) -> Process {
      p.m.dispatched(seq);
      co_await parked_loop(p, 60);
    }(*loops.back(), first), start);
  }
  for (int i = 0; i < 40; ++i) {
    switch (m.rng() % 3) {
      case 0:
        m.schedule_call(m.draw_delay(), /*daemon=*/false);
        break;
      case 1:
        m.schedule_call(m.draw_delay(), /*daemon=*/true);
        break;
      default: {
        const SimTime start = m.draw_delay();
        const std::uint64_t seq = m.expect(start, /*daemon=*/false);
        spawn(m.engine, [](OrderModel& mm, std::uint64_t first, int hops) -> Process {
          mm.dispatched(first);
          co_await ticker(mm, hops);
        }(m, seq, 1 + static_cast<int>(m.rng() % 20)), start);
        break;
      }
    }
  }
  m.engine.run();
  EXPECT_GT(m.engine.polls_elided(), 1000u);
  EXPECT_GT(m.engine.dispatched() - m.engine.polls_elided(), 1000u);
  EXPECT_EQ(m.engine.dispatched(), m.checked);
  std::size_t left = 0;
  for (; !m.model.empty(); m.model.pop(), ++left) EXPECT_TRUE(m.model.top().daemon);
  EXPECT_GT(left, 0u);
  EXPECT_FALSE(m.engine.empty());
  EXPECT_GT(m.engine.now(), 40);  // the slow loops' delay did change
  EXPECT_LT(m.engine.now(), seconds(1));
}

TEST(EngineTest, ParkedPollsAloneHonourRunUntilAndEmpty) {
  Engine engine;
  int polls = 0;
  bool woke = false;
  FnPoller poller([&]() -> SimTime { return ++polls < 10 ? 5 : Poller::kResume; });
  engine.call_at_daemon(7, [] {});
  spawn(engine, [](Poller& p, bool& w) -> Process {
    co_await park(p, 5);
    w = true;
  }(poller, woke));
  engine.run(12);  // the spawn at 0, polls at 5 and 10, the daemon at 7
  EXPECT_EQ(engine.now(), 10);
  EXPECT_EQ(polls, 2);
  EXPECT_EQ(engine.dispatched(), 4u);
  EXPECT_FALSE(engine.empty());  // the heap is empty, one poll is parked
  engine.run(14);                // the parked poll at 15 waits
  EXPECT_EQ(engine.now(), 10);
  EXPECT_FALSE(engine.empty());
  engine.call_at_daemon(1000, [] {});
  engine.run();  // eight more polls, the last wakes the loop; the daemon stays
  EXPECT_TRUE(woke);
  EXPECT_EQ(polls, 10);
  EXPECT_EQ(engine.now(), 50);
  EXPECT_EQ(engine.polls_elided(), 9u);
  EXPECT_FALSE(engine.empty());
  engine.call_at(60, [] {});
  engine.run();  // the daemon at 1000 still does not run
  EXPECT_EQ(engine.now(), 60);
}

// --- exact idle-poll elision ---------------------------------------------

/// A polling loop watched by two writers. The loop spins every kPoll while
/// `work` is empty, and a unit of work costs a random 1-2 poll periods (or
/// half of one). Writer "before" always sits ahead of the loop's poll in
/// seq order at a shared grid time, writer "after" behind it; both record
/// the loop's iteration count they observe, which exposes any reordering.
struct PollScenario {
  static constexpr SimTime kPoll = 10;
  static constexpr std::uint64_t kIterations = 3000;

  Engine engine;
  Xoshiro256StarStar rng{7};
  int work = 0;
  std::uint64_t iterations = 0;
  std::vector<std::tuple<SimTime, int, std::uint64_t, int>> log;

  Process loop(bool parked) {
    FnPoller poller([this]() -> SimTime {
      if (iterations >= kIterations || work > 0) return Poller::kResume;
      ++iterations;
      return kPoll;
    });
    while (iterations < kIterations) {
      bool did_work = false;
      if (work > 0) {
        --work;
        log.emplace_back(engine.now(), 0, iterations, work);
        const std::uint64_t r = rng() % 3;
        co_await delay(r == 2 ? kPoll / 2 : kPoll * static_cast<SimTime>(1 + r));
        did_work = true;
      }
      ++iterations;
      if (!did_work) {
        if (parked) {
          co_await park(poller, kPoll);
        } else {
          co_await delay(kPoll);
        }
      }
    }
  }

  Process writer(int id, int steps) {
    for (int i = 0; i < steps; ++i) {
      co_await delay(kPoll);
      if (rng() % 4 == 0) ++work;
      log.emplace_back(engine.now(), id, iterations, work);
    }
  }

  void run(bool parked) {
    spawn(engine, writer(1, 2000));  // spawned first: ahead in seq order
    spawn(engine, loop(parked));
    spawn(engine, writer(2, 2000));  // spawned last: behind in seq order
    engine.run();
  }
};

TEST(EngineTest, ElidedPollsMatchDelayLoopExactly) {
  PollScenario polled;
  PollScenario plain;
  polled.run(/*parked=*/true);
  plain.run(/*parked=*/false);
  EXPECT_GT(polled.engine.polls_elided(), 500u);
  EXPECT_EQ(plain.engine.polls_elided(), 0u);
  EXPECT_EQ(polled.log, plain.log);
  EXPECT_EQ(polled.iterations, plain.iterations);
  EXPECT_EQ(polled.engine.dispatched(), plain.engine.dispatched());
  EXPECT_EQ(polled.engine.now(), plain.engine.now());
  // Both writers observed the loop at shared grid times from both sides.
  std::uint64_t writes = 0;
  for (const auto& entry : polled.log) writes += std::get<1>(entry) != 0;
  EXPECT_EQ(writes, 4000u);
}

TEST(EngineTest, PollerResumeRunsTheLoopBody) {
  Engine engine;
  int polls = 0;
  int resumed = 0;
  FnPoller poller([&]() -> SimTime { return ++polls < 5 ? 3 : Poller::kResume; });
  spawn(engine, [](Poller& p, int& r) -> Process {
    co_await park(p, 2);
    ++r;
  }(poller, resumed));
  engine.run();
  EXPECT_EQ(resumed, 1);
  EXPECT_EQ(polls, 5);
  EXPECT_EQ(engine.now(), 2 + 4 * 3);
  EXPECT_EQ(engine.polls_elided(), 4u);
  EXPECT_EQ(engine.dispatched(), 1u + 5u);  // the spawn, then five polls
}

}  // namespace
}  // namespace cagvt::metasim
