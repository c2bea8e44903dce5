#include "net/event_loop.hpp"

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>
#include <random>
#include <tuple>
#include <utility>
#include <vector>

#include "util/assert.hpp"

namespace mahimahi::net {
namespace {

TEST(EventLoop, RunsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(30, [&] { order.push_back(3); });
  loop.schedule_at(10, [&] { order.push_back(1); });
  loop.schedule_at(20, [&] { order.push_back(2); });
  EXPECT_EQ(loop.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), 30);
}

TEST(EventLoop, SameTimeIsFifo) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    loop.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  loop.run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(EventLoop, ActionsCanScheduleMore) {
  EventLoop loop;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) {
      loop.schedule_in(10, chain);
    }
  };
  loop.schedule_at(0, chain);
  loop.run();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(loop.now(), 40);
}

TEST(EventLoop, CancelPreventsExecution) {
  EventLoop loop;
  bool ran = false;
  const auto id = loop.schedule_at(10, [&] { ran = true; });
  loop.cancel(id);
  loop.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(loop.pending_events(), 0u);
}

TEST(EventLoop, CancelUnknownOrRunIsNoOp) {
  EventLoop loop;
  const auto id = loop.schedule_at(1, [] {});
  loop.run();
  loop.cancel(id);      // already ran
  loop.cancel(999999);  // never existed
  EXPECT_EQ(loop.pending_events(), 0u);
}

TEST(EventLoop, CancelFromWithinAction) {
  EventLoop loop;
  bool second_ran = false;
  EventLoop::EventId second = 0;
  loop.schedule_at(10, [&] { loop.cancel(second); });
  second = loop.schedule_at(20, [&] { second_ran = true; });
  loop.run();
  EXPECT_FALSE(second_ran);
}

TEST(EventLoop, RunUntilStopsAtDeadline) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(10, [&] { order.push_back(1); });
  loop.schedule_at(20, [&] { order.push_back(2); });
  loop.schedule_at(30, [&] { order.push_back(3); });
  EXPECT_EQ(loop.run_until(20), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(loop.now(), 20);
  EXPECT_EQ(loop.pending_events(), 1u);
  loop.run();
  EXPECT_EQ(order.size(), 3u);
}

TEST(EventLoop, RunUntilAdvancesClockWhenIdle) {
  EventLoop loop;
  loop.run_until(1000);
  EXPECT_EQ(loop.now(), 1000);
  EXPECT_TRUE(loop.idle());
}

TEST(EventLoop, SchedulingIntoThePastThrows) {
  EventLoop loop;
  loop.schedule_at(100, [] {});
  loop.run();
  EXPECT_THROW(loop.schedule_at(50, [] {}), InternalError);
  EXPECT_THROW(loop.schedule_in(-1, [] {}), InternalError);
}

TEST(EventLoop, EventLimitGuardsRunaway) {
  EventLoop loop;
  loop.set_event_limit(100);
  std::function<void()> forever = [&] { loop.schedule_in(1, forever); };
  loop.schedule_at(0, forever);
  EXPECT_THROW(loop.run(), std::runtime_error);
}

TEST(EventLoop, PendingEventsTracksCancellations) {
  EventLoop loop;
  const auto a = loop.schedule_at(10, [] {});
  loop.schedule_at(20, [] {});
  EXPECT_EQ(loop.pending_events(), 2u);
  loop.cancel(a);
  EXPECT_EQ(loop.pending_events(), 1u);
  loop.cancel(a);  // double cancel is a no-op
  EXPECT_EQ(loop.pending_events(), 1u);
}

// --- lazy-cancellation / slot-reuse edge cases -------------------------------

TEST(EventLoop, CancelDuringDispatchOfSameTimestamp) {
  // The first event at t=10 cancels the second event at the same time —
  // the tombstone is discarded mid-dispatch without disturbing FIFO order.
  EventLoop loop;
  std::vector<int> order;
  EventLoop::EventId doomed = 0;
  loop.schedule_at(10, [&] {
    order.push_back(1);
    loop.cancel(doomed);
  });
  doomed = loop.schedule_at(10, [&] { order.push_back(2); });
  loop.schedule_at(10, [&] { order.push_back(3); });
  EXPECT_EQ(loop.run(), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventLoop, CancelOwnIdFromInsideCallbackIsNoOp) {
  EventLoop loop;
  EventLoop::EventId self = 0;
  int runs = 0;
  self = loop.schedule_at(5, [&] {
    ++runs;
    loop.cancel(self);  // already dispatching: must be a no-op
  });
  loop.schedule_at(6, [&] { ++runs; });
  EXPECT_EQ(loop.run(), 2u);
  EXPECT_EQ(runs, 2);
}

TEST(EventLoop, CancelOfAlreadyRunIdDoesNotKillSlotReuser) {
  // After an event runs, its arena slot is recycled. A stale cancel with
  // the old id must not touch whichever event now occupies the slot.
  EventLoop loop;
  const auto stale = loop.schedule_at(1, [] {});
  loop.run();
  bool second_ran = false;
  loop.schedule_at(2, [&] { second_ran = true; });  // likely reuses the slot
  loop.cancel(stale);
  EXPECT_EQ(loop.pending_events(), 1u);
  loop.run();
  EXPECT_TRUE(second_ran);
}

TEST(EventLoop, CancelOfCancelledIdDoesNotKillSlotReuser) {
  EventLoop loop;
  const auto cancelled = loop.schedule_at(10, [] {});
  loop.cancel(cancelled);
  loop.run();  // drains the tombstone, freeing the slot
  bool ran = false;
  loop.schedule_at(20, [&] { ran = true; });
  loop.cancel(cancelled);  // stale id, generation mismatch
  loop.run();
  EXPECT_TRUE(ran);
}

TEST(EventLoop, RescheduleInsideCallback) {
  // The arm/disarm pattern from inside a callback: cancel the pending
  // timer and schedule a replacement, repeatedly.
  EventLoop loop;
  int timer_fired = 0;
  int steps = 0;
  EventLoop::EventId timer = 0;
  std::function<void()> step = [&] {
    loop.cancel(timer);
    timer = loop.schedule_in(100, [&] { ++timer_fired; });
    if (++steps < 10) {
      loop.schedule_in(1, step);
    }
  };
  loop.schedule_at(0, step);
  loop.run();
  EXPECT_EQ(steps, 10);
  EXPECT_EQ(timer_fired, 1);  // only the last rearm survives
  EXPECT_EQ(loop.now(), 9 + 100);
}

TEST(EventLoop, RunUntilLandingBetweenTombstones) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(10, [&] { order.push_back(10); });
  const auto t20 = loop.schedule_at(20, [&] { order.push_back(20); });
  const auto t25 = loop.schedule_at(25, [&] { order.push_back(25); });
  loop.schedule_at(30, [&] { order.push_back(30); });
  loop.cancel(t20);
  loop.cancel(t25);
  // Deadline lands between the two tombstones: only t=10 runs, the dead
  // entries at 20/25 must not block or execute, and time advances exactly
  // to the deadline.
  EXPECT_EQ(loop.run_until(22), 1u);
  EXPECT_EQ(order, (std::vector<int>{10}));
  EXPECT_EQ(loop.now(), 22);
  EXPECT_EQ(loop.pending_events(), 1u);
  EXPECT_EQ(loop.run(), 1u);
  EXPECT_EQ(order, (std::vector<int>{10, 30}));
}

TEST(EventLoop, CallbackLargerThanInlineBufferStillRuns) {
  // Captures beyond the inline capacity take the heap-boxed fallback;
  // behaviour (ordering, cancel) is identical.
  struct Big {
    std::array<char, EventLoop::kInlineActionBytes + 64> blob{};
  };
  static_assert(!EventLoop::Action::kFitsInline<decltype([b = Big{}] { (void)b; })>);
  EventLoop loop;
  int sum = 0;
  Big big;
  big.blob[0] = 7;
  loop.schedule_at(10, [big, &sum] { sum += big.blob[0]; });
  const auto doomed = loop.schedule_at(11, [big, &sum] { sum += 100; });
  loop.cancel(doomed);
  loop.run();
  EXPECT_EQ(sum, 7);
}

TEST(EventLoop, CancelStormOnMidDispatchTeardown) {
  // The resilience layer's teardown shape: a page finishing (or a session
  // dying) cancels every armed deadline timer at once, from inside a
  // callback, while some of those timers share the current timestamp.
  // None may fire afterwards, and the arena must recycle cleanly.
  EventLoop loop;
  struct Owner {
    EventLoop& loop;
    std::vector<EventLoop::EventId> deadlines;
    int fired{0};

    void arm(Microseconds at) {
      deadlines.push_back(loop.schedule_at(at, [this] { ++fired; }));
    }
    void teardown() {
      for (const auto id : deadlines) {
        loop.cancel(id);
      }
      deadlines.clear();
    }
  };
  Owner owner{loop};
  // The "page done" event is scheduled first, so FIFO order within t=100
  // dispatches it ahead of every same-timestamp deadline: the teardown
  // happens mid-dispatch with the whole cluster still pending.
  loop.schedule_at(100, [&] { owner.teardown(); });
  for (int i = 0; i < 300; ++i) {
    owner.arm(100 + (i % 7));  // clustered timestamps, many at t=100
  }
  loop.run();
  EXPECT_EQ(owner.fired, 0);  // teardown beat every deadline to the punch
  EXPECT_TRUE(owner.deadlines.empty());

  // The storm of tombstones must not poison later use: re-arm after the
  // teardown, on recycled slots, and fire normally.
  for (int i = 0; i < 50; ++i) {
    owner.arm(loop.now() + 10);
  }
  loop.run();
  EXPECT_EQ(owner.fired, 50);
}

TEST(EventLoop, RepeatedArmTeardownCyclesStayBalanced) {
  // Retry/backoff churn: arm a deadline, cancel it on "response", arm the
  // next — thousands of times. pending_events() must return to zero and
  // no stale timer may outlive its cycle.
  EventLoop loop;
  int stale_fires = 0;
  for (int cycle = 0; cycle < 2000; ++cycle) {
    const auto deadline =
        loop.schedule_at(loop.now() + 500, [&] { ++stale_fires; });
    loop.schedule_at(loop.now() + 1, [] {});  // the "response" arrives
    loop.cancel(deadline);
    loop.run();
  }
  EXPECT_EQ(stale_fires, 0);
  EXPECT_EQ(loop.pending_events(), 0u);
}

TEST(EventLoop, HeapGrowthStressKeepsDeterministicOrder) {
  // Interleaved scheduling and cancellation across a growing heap and
  // arena: surviving events must run in exact (time, schedule-order).
  EventLoop loop;
  std::vector<std::pair<Microseconds, int>> executed;
  std::vector<EventLoop::EventId> ids;
  int seq = 0;
  for (int round = 0; round < 40; ++round) {
    for (int i = 0; i < 50; ++i) {
      const Microseconds at = (i * 37 + round * 11) % 97;  // colliding times
      const int tag = seq++;
      ids.push_back(loop.schedule_at(at, [&executed, at, tag] {
        executed.emplace_back(at, tag);
      }));
    }
    for (std::size_t i = round % 3; i < ids.size(); i += 3) {
      loop.cancel(ids[i]);  // repeated cancels of the same ids: no-ops
    }
  }
  loop.run();
  ASSERT_FALSE(executed.empty());
  for (std::size_t i = 1; i < executed.size(); ++i) {
    const bool ordered =
        executed[i - 1].first < executed[i].first ||
        (executed[i - 1].first == executed[i].first &&
         executed[i - 1].second < executed[i].second);
    ASSERT_TRUE(ordered) << "event " << i << " out of order";
  }
}

// --- same-time lane ----------------------------------------------------------

TEST(EventLoop, SameTimeLaneRunsAfterEarlierScheduledEventsAtThatTime) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(10, [&] {
    order.push_back(1);
    loop.schedule_at(10, [&] { order.push_back(3); });  // due now: the lane
    loop.schedule_in(0, [&] { order.push_back(4); });
  });
  loop.schedule_at(10, [&] { order.push_back(2); });  // scheduled earlier
  loop.schedule_at(11, [&] { order.push_back(5); });
  EXPECT_EQ(loop.run(), 5u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
  EXPECT_EQ(loop.now(), 11);
}

TEST(EventLoop, SameTimeLaneEventCanBeCancelled) {
  EventLoop loop;
  bool ran = false;
  int after = 0;
  loop.schedule_at(10, [&] {
    const auto id = loop.schedule_in(0, [&] { ran = true; });
    loop.schedule_in(0, [&] { ++after; });
    EXPECT_EQ(loop.pending_events(), 2u);
    loop.cancel(id);
    EXPECT_EQ(loop.pending_events(), 1u);
  });
  loop.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(after, 1);
  EXPECT_EQ(loop.pending_events(), 0u);
}

TEST(EventLoop, RunUntilDispatchesSameTimeLane) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(0, [&] { order.push_back(1); });  // now() is 0: the lane
  loop.schedule_at(0, [&] { order.push_back(2); });
  EXPECT_EQ(loop.run_until(0), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  loop.schedule_at(5, [&] {
    order.push_back(3);
    loop.schedule_in(0, [&] { order.push_back(4); });
  });
  EXPECT_EQ(loop.run_until(5), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_TRUE(loop.idle());
}

// --- keyed timers ------------------------------------------------------------

TEST(Timer, PendingEventsCountsAnArmedTimerOnce) {
  EventLoop loop;
  int fired = 0;
  Timer timer{loop, [&] { ++fired; }};
  EXPECT_FALSE(timer.armed());
  timer.arm_at(100);
  EXPECT_EQ(loop.pending_events(), 1u);
  timer.arm_at(200);  // later: the posted entry stays
  EXPECT_EQ(loop.pending_events(), 1u);
  timer.arm_at(50);  // earlier: the posted entry moves
  EXPECT_EQ(loop.pending_events(), 1u);
  EXPECT_TRUE(timer.armed());
  timer.disarm();
  EXPECT_FALSE(timer.armed());
  EXPECT_EQ(loop.pending_events(), 0u);
  timer.arm_in(30);
  timer.arm_in(70);
  EXPECT_EQ(loop.run(), 2u);  // the early entry re-posts, then fires
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.now(), 70);
  EXPECT_FALSE(timer.armed());
  EXPECT_EQ(loop.pending_events(), 0u);
}

TEST(Timer, DestructionDisarms) {
  EventLoop loop;
  bool fired = false;
  {
    Timer timer{loop, [&] { fired = true; }};
    timer.arm_in(10);
  }
  EXPECT_EQ(loop.pending_events(), 0u);
  loop.run();
  EXPECT_FALSE(fired);
}

// One (time, tag, pending events) entry per fire: plain events log their
// tag, timers log -1 - index.
using FireLog = std::vector<std::tuple<Microseconds, int, std::size_t>>;
constexpr int kScriptTimers = 4;

/// The reference: every re-arm cancels the pending event and schedules a
/// new one, as code did before Timer existed.
class RawTimers {
 public:
  RawTimers(EventLoop& loop, std::function<void(int)>& on_fire)
      : loop_{loop}, on_fire_{on_fire} {}
  void arm(int index, Microseconds at) {
    auto& id = ids_[static_cast<std::size_t>(index)];
    loop_.cancel(id);
    id = loop_.schedule_at(at, [this, index, &id] {
      id = 0;
      on_fire_(index);
    });
  }
  void disarm(int index) {
    auto& id = ids_[static_cast<std::size_t>(index)];
    loop_.cancel(id);
    id = 0;
  }

 private:
  EventLoop& loop_;
  std::function<void(int)>& on_fire_;
  std::array<EventLoop::EventId, kScriptTimers> ids_{};
};

class KeyedTimers {
 public:
  KeyedTimers(EventLoop& loop, std::function<void(int)>& on_fire) {
    for (int index = 0; index < kScriptTimers; ++index) {
      timers_.push_back(
          std::make_unique<Timer>(loop, [&on_fire, index] { on_fire(index); }));
    }
  }
  void arm(int index, Microseconds at) {
    timers_[static_cast<std::size_t>(index)]->arm_at(at);
  }
  void disarm(int index) {
    timers_[static_cast<std::size_t>(index)]->disarm();
  }

 private:
  std::vector<std::unique_ptr<Timer>> timers_;
};

/// A seeded random script: events and timer fires arm, re-arm and disarm
/// timers and schedule plain events, all at colliding timestamps (delays of
/// 0, 1, 2 and 5). The script's choices are drawn in dispatch order, so any
/// reordering changes the rest of the log.
template <typename Timers>
FireLog run_timer_script(std::uint64_t seed) {
  EventLoop loop;
  std::mt19937_64 rng{seed};
  FireLog log;
  int budget = 2000;
  int next_tag = 1;
  const std::array<Microseconds, 5> delays{0, 1, 1, 2, 5};
  const auto delay = [&] { return delays[rng() % delays.size()]; };
  std::function<void(int)> on_fire;
  Timers timers{loop, on_fire};
  std::function<void()> act = [&] {
    const auto ops = 1 + rng() % 4;
    for (std::uint64_t op = 0; op < ops && budget > 0; ++op, --budget) {
      const auto pick = rng() % 10;
      const auto index = static_cast<int>(rng() % kScriptTimers);
      if (pick < 5) {
        timers.arm(index, loop.now() + delay());
      } else if (pick < 7) {
        timers.disarm(index);
      } else {
        const int tag = next_tag++;
        loop.schedule_in(delay(), [&, tag] {
          log.emplace_back(loop.now(), tag, loop.pending_events());
          act();
        });
      }
    }
  };
  on_fire = [&](int index) {
    log.emplace_back(loop.now(), -1 - index, loop.pending_events());
    act();
  };
  loop.schedule_at(0, [&] { act(); });
  for (int i = 0; i < 8; ++i) {
    loop.schedule_at(i, [&] { act(); });
  }
  loop.run();
  EXPECT_EQ(loop.pending_events(), 0u);
  return log;
}

TEST(Timer, MatchesCancelAndRescheduleOnRandomScripts) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const FireLog keyed = run_timer_script<KeyedTimers>(seed);
    const FireLog raw = run_timer_script<RawTimers>(seed);
    ASSERT_GT(raw.size(), 200u) << "seed " << seed;
    ASSERT_EQ(keyed, raw) << "seed " << seed;
  }
}

}  // namespace
}  // namespace mahimahi::net
