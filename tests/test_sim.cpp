// Tests for the discrete-event engine: queue ordering, cancellation,
// run-loop control, the timer heap, and the trace recorder.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.h"
#include "sim/event_queue.h"
#include "sim/simulation.h"
#include "sim/timer_heap.h"
#include "sim/trace.h"

namespace vcmr::sim {
namespace {

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(SimTime::seconds(3), [&] { order.push_back(3); });
  q.schedule(SimTime::seconds(1), [&] { order.push_back(1); });
  q.schedule(SimTime::seconds(2), [&] { order.push_back(2); });
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(SimTime::seconds(5), [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop_and_run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool fired = false;
  const EventHandle h = q.schedule(SimTime::seconds(1), [&] { fired = true; });
  q.cancel(h);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelIsIdempotent) {
  EventQueue q;
  const EventHandle h = q.schedule(SimTime::seconds(1), [] {});
  q.cancel(h);
  q.cancel(h);               // second cancel is a no-op
  q.cancel(EventHandle{});   // inert handle is a no-op
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  const EventHandle h = q.schedule(SimTime::seconds(1), [] {});
  q.schedule(SimTime::seconds(2), [] {});
  q.cancel(h);
  EXPECT_EQ(q.next_time(), SimTime::seconds(2));
}

TEST(EventQueue, PopOnEmptyThrows) {
  EventQueue q;
  EXPECT_THROW(q.pop_and_run(), Error);
}

TEST(EventQueue, CallbackMaySchedule) {
  EventQueue q;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) {
      q.schedule(SimTime::seconds(count), chain);
    }
  };
  q.schedule(SimTime::zero(), chain);
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(count, 5);
}

TEST(Simulation, ClockAdvancesToEventTimes) {
  Simulation sim;
  std::vector<double> at;
  sim.after(SimTime::seconds(2), [&] { at.push_back(sim.now().as_seconds()); });
  sim.after(SimTime::seconds(5), [&] { at.push_back(sim.now().as_seconds()); });
  sim.run();
  EXPECT_EQ(at, (std::vector<double>{2.0, 5.0}));
  EXPECT_EQ(sim.now().as_seconds(), 5.0);
}

TEST(Simulation, RunUntilDeadlineStopsClock) {
  Simulation sim;
  bool late_fired = false;
  sim.after(SimTime::seconds(100), [&] { late_fired = true; });
  sim.run(SimTime::seconds(10));
  EXPECT_FALSE(late_fired);
  EXPECT_EQ(sim.now(), SimTime::seconds(10));
}

TEST(Simulation, RunUntilPredicate) {
  Simulation sim;
  int ticks = 0;
  std::function<void()> tick = [&] {
    ++ticks;
    sim.after(SimTime::seconds(1), tick);
  };
  sim.after(SimTime::seconds(1), tick);
  const bool hit = sim.run_until([&] { return ticks >= 7; },
                                 SimTime::seconds(100));
  EXPECT_TRUE(hit);
  EXPECT_EQ(ticks, 7);
}

TEST(Simulation, RunUntilPredicateDeadline) {
  Simulation sim;
  sim.after(SimTime::seconds(1), [] {});
  const bool hit = sim.run_until([] { return false; }, SimTime::seconds(5));
  EXPECT_FALSE(hit);
}

TEST(Simulation, CannotScheduleInPast) {
  Simulation sim;
  sim.after(SimTime::seconds(5), [] {});
  sim.run();
  EXPECT_THROW(sim.at(SimTime::seconds(1), [] {}), Error);
}

TEST(Simulation, StopHaltsRun) {
  Simulation sim;
  int fired = 0;
  sim.after(SimTime::seconds(1), [&] {
    ++fired;
    sim.stop();
  });
  sim.after(SimTime::seconds(2), [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  sim.run();  // resumes with remaining events
  EXPECT_EQ(fired, 2);
}

TEST(Simulation, EventsExecutedCounter) {
  Simulation sim;
  for (int i = 0; i < 10; ++i) sim.after(SimTime::seconds(i), [] {});
  sim.run();
  EXPECT_EQ(sim.events_executed(), 10u);
}

TEST(Simulation, RngStreamsStableAcrossInstances) {
  Simulation a(77), b(77);
  EXPECT_EQ(a.rng_stream("x").next_u64(), b.rng_stream("x").next_u64());
}

TEST(Simulation, CountsSchedulesAndPendingCancels) {
  Simulation sim;
  const EventHandle a = sim.after(SimTime::seconds(1), [] {});
  sim.after(SimTime::seconds(2), [] {});
  sim.cancel(a);
  sim.cancel(a);              // already cancelled: not counted again
  sim.cancel(EventHandle{});  // inert: not counted
  sim.run();
  EXPECT_EQ(sim.events_scheduled(), 2u);
  EXPECT_EQ(sim.events_cancelled(), 1u);
  EXPECT_EQ(sim.events_executed(), 1u);
}

// --- TimerHeap ---------------------------------------------------------------

struct Item {
  int id = 0;
  Timer timer;
};

struct TimerFixture {
  Simulation sim;
  std::vector<std::string> log;
  TimerHeap<Item, &Item::timer> heap{
      sim, [this](Item& it) { log.push_back("item" + std::to_string(it.id)); }};
  void event(SimTime at, std::string name) {
    sim.at(at, [this, name] { log.push_back(name); });
  }
};

TEST(TimerHeap, ReservedSeqSortsWhereAnEventScheduledThenWould) {
  // Same microsecond throughout: the item's deadline fires after the event
  // scheduled before set() and before the one scheduled after it.
  TimerFixture f;
  Item it{1, {}};
  const SimTime t = SimTime::seconds(1);
  f.event(t, "earlier");
  f.heap.set(it, t);
  f.event(t, "later");
  f.sim.run();
  EXPECT_EQ(f.log, (std::vector<std::string>{"earlier", "item1", "later"}));
  EXPECT_EQ(f.sim.events_executed(), 3u);
}

TEST(TimerHeap, EachDueItemIsItsOwnEventInterleavedWithOthers) {
  TimerFixture f;
  Item a{1, {}}, b{2, {}}, c{3, {}};
  const SimTime t = SimTime::seconds(1);
  f.heap.set(a, t);
  f.event(t, "x");
  f.heap.set(b, t);
  f.heap.set(c, SimTime::millis(500));
  f.sim.run();
  EXPECT_EQ(f.log, (std::vector<std::string>{"item3", "item1", "x", "item2"}));
  EXPECT_EQ(f.sim.events_executed(), 4u);
}

TEST(TimerHeap, ResetDrawsAFreshSeqAndEraseWithdraws) {
  TimerFixture f;
  Item a{1, {}}, b{2, {}};
  const SimTime t = SimTime::seconds(1);
  f.heap.set(a, t);
  f.heap.set(b, SimTime::seconds(2));
  f.event(t, "x");
  f.heap.set(a, t);  // same instant, new seq: now after "x"
  f.heap.erase(b);
  f.heap.erase(b);   // not pending: no-op
  EXPECT_FALSE(f.heap.contains(b));
  f.heap.check();
  f.sim.run();
  EXPECT_EQ(f.log, (std::vector<std::string>{"x", "item1"}));
}

TEST(TimerHeap, OneQueueEntryForManyDeadlines) {
  TimerFixture f;
  std::vector<Item> items(100);
  {
    const TimerHeap<Item, &Item::timer>::Batch batch(f.heap);
    for (int i = 0; i < 100; ++i) {
      items[static_cast<std::size_t>(i)].id = i;
      f.heap.set(items[static_cast<std::size_t>(i)],
                 SimTime::seconds(100 - i));
    }
  }
  f.heap.check();
  EXPECT_EQ(f.sim.events_scheduled(), 1u);
  f.sim.run();
  ASSERT_EQ(f.log.size(), 100u);
  EXPECT_EQ(f.log.front(), "item99");
  EXPECT_EQ(f.log.back(), "item0");
  EXPECT_EQ(f.sim.events_executed(), 100u);
  // The armed entry is re-queued after each firing, never cancelled.
  EXPECT_EQ(f.sim.events_scheduled(), 100u);
  EXPECT_EQ(f.sim.events_cancelled(), 0u);
}

TEST(TimerHeap, HandlerMayResetOtherItems) {
  TimerFixture f;
  Item a{1, {}}, b{2, {}};
  TimerHeap<Item, &Item::timer> heap(f.sim, [&](Item& it) {
    f.log.push_back("item" + std::to_string(it.id));
    if (it.id == 1) heap.set(b, f.sim.now());  // pull b forward
  });
  heap.set(a, SimTime::seconds(1));
  heap.set(b, SimTime::seconds(5));
  f.event(SimTime::seconds(1), "x");
  f.sim.run();
  EXPECT_EQ(f.log, (std::vector<std::string>{"item1", "x", "item2"}));
  EXPECT_EQ(f.sim.now(), SimTime::seconds(1));
}

TEST(TimerHeap, DestroyedWhileArmedWithdrawsItsEvent) {
  Simulation sim;
  int fired = 0;
  Item it{1, {}};
  {
    TimerHeap<Item, &Item::timer> heap(sim, [&](Item&) { ++fired; });
    heap.set(it, SimTime::seconds(1));
  }
  sim.after(SimTime::seconds(2), [] {});
  sim.run();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.events_executed(), 1u);
}

TEST(TimerHeap, RejectsPastDeadlines) {
  TimerFixture f;
  Item it{1, {}};
  f.event(SimTime::seconds(2), "x");
  f.sim.run();
  EXPECT_THROW(f.heap.set(it, SimTime::seconds(1)), Error);
}

TEST(Trace, PointsAndSpans) {
  TraceRecorder tr;
  tr.point(SimTime::seconds(1), "host1", "assign", "r0");
  const std::size_t tok = tr.begin_span(SimTime::seconds(2), "host1", "compute");
  tr.end_span(tok, SimTime::seconds(5));
  ASSERT_EQ(tr.points().size(), 1u);
  const auto spans = tr.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].begin, SimTime::seconds(2));
  EXPECT_EQ(spans[0].end, SimTime::seconds(5));
}

TEST(Trace, UnclosedSpansDropped) {
  TraceRecorder tr;
  tr.begin_span(SimTime::seconds(1), "a", "x");
  EXPECT_TRUE(tr.spans().empty());
}

TEST(Trace, EndBeforeBeginThrows) {
  TraceRecorder tr;
  const std::size_t tok = tr.begin_span(SimTime::seconds(5), "a", "x");
  EXPECT_THROW(tr.end_span(tok, SimTime::seconds(1)), Error);
}

TEST(Trace, DoubleCloseThrows) {
  TraceRecorder tr;
  const std::size_t tok = tr.begin_span(SimTime::seconds(1), "a", "x");
  tr.end_span(tok, SimTime::seconds(2));
  EXPECT_THROW(tr.end_span(tok, SimTime::seconds(3)), Error);
}

TEST(Trace, ActorsInFirstSeenOrder) {
  TraceRecorder tr;
  tr.point(SimTime::zero(), "b", "x");
  tr.point(SimTime::zero(), "a", "x");
  tr.point(SimTime::zero(), "b", "y");
  EXPECT_EQ(tr.actors(), (std::vector<std::string>{"b", "a"}));
}

TEST(Trace, PerActorFilters) {
  TraceRecorder tr;
  tr.point(SimTime::zero(), "a", "x");
  tr.point(SimTime::zero(), "b", "y");
  const std::size_t t1 = tr.begin_span(SimTime::zero(), "a", "s");
  tr.end_span(t1, SimTime::seconds(1));
  EXPECT_EQ(tr.points_for("a").size(), 1u);
  EXPECT_EQ(tr.spans_for("a").size(), 1u);
  EXPECT_EQ(tr.spans_for("b").size(), 0u);
}

TEST(Trace, GanttRendersRowsPerActor) {
  TraceRecorder tr;
  const std::size_t t = tr.begin_span(SimTime::seconds(0), "host1", "compute");
  tr.end_span(t, SimTime::seconds(10));
  tr.point(SimTime::seconds(5), "host2", "report");
  const std::string art = tr.ascii_gantt(SimTime::zero(), SimTime::seconds(10), 20);
  EXPECT_NE(art.find("host1"), std::string::npos);
  EXPECT_NE(art.find("host2"), std::string::npos);
  EXPECT_NE(art.find('C'), std::string::npos);
  EXPECT_NE(art.find('!'), std::string::npos);
}

TEST(Trace, GanttClipsSpansToWindow) {
  TraceRecorder tr;
  // Begins before the window and ends after it: every cell is covered, and
  // clamping keeps the out-of-window portions from writing out of bounds.
  const std::size_t t =
      tr.begin_span(SimTime::seconds(-5), "host1", "compute");
  tr.end_span(t, SimTime::seconds(100));
  tr.point(SimTime::seconds(999), "host1", "report");  // clamps to last cell
  const std::string art =
      tr.ascii_gantt(SimTime::zero(), SimTime::seconds(10), 10);
  const std::size_t bar = art.find("|");
  ASSERT_NE(bar, std::string::npos);
  const std::string row = art.substr(bar + 1, 10);
  EXPECT_EQ(row, "CCCCCCCCC!");  // full coverage; far point on the edge
}

TEST(Trace, GanttOmitsUnclosedSpans) {
  TraceRecorder tr;
  tr.begin_span(SimTime::seconds(1), "host1", "xyzspan");  // never closed
  const std::string art =
      tr.ascii_gantt(SimTime::zero(), SimTime::seconds(10), 10);
  // The actor row renders (first-seen), but the open span paints nothing:
  // its 'X' mark never appears and the row stays idle dots.
  EXPECT_NE(art.find("host1"), std::string::npos);
  EXPECT_EQ(art.find('X'), std::string::npos);
  EXPECT_NE(art.find("|..........|"), std::string::npos);
}

TEST(Trace, GanttRowsFollowFirstSeenActorOrder) {
  TraceRecorder tr;
  tr.point(SimTime::seconds(1), "zeta", "x");
  tr.point(SimTime::seconds(2), "alpha", "x");
  const std::string art =
      tr.ascii_gantt(SimTime::zero(), SimTime::seconds(10), 10);
  EXPECT_LT(art.find("zeta"), art.find("alpha"));
}

TEST(Trace, GanttEmptyWindowThrows) {
  TraceRecorder tr;
  EXPECT_THROW(
      tr.ascii_gantt(SimTime::seconds(5), SimTime::seconds(5), 10), Error);
}

TEST(Trace, ClearResets) {
  TraceRecorder tr;
  tr.point(SimTime::zero(), "a", "x");
  tr.clear();
  EXPECT_TRUE(tr.points().empty());
  EXPECT_TRUE(tr.actors().empty());
}

}  // namespace
}  // namespace vcmr::sim
