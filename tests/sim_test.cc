// Unit tests for the discrete-event kernel, ports/links, switching and
// routing.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "parsim/mailbox.h"
#include "queue/drop_tail.h"
#include "queue/factory.h"
#include "sim/network.h"
#include "sim/port.h"
#include "sim/simulator.h"
#include "sim/trace.h"
#include "util/units.h"

namespace dtdctcp {
namespace {

TEST(Simulator, RunsEventsInTimeOrder) {
  sim::Simulator s;
  std::vector<int> order;
  s.at(2.0, [&] { order.push_back(2); });
  s.at(1.0, [&] { order.push_back(1); });
  s.at(3.0, [&] { order.push_back(3); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.events_processed(), 3u);
  EXPECT_DOUBLE_EQ(s.now(), 3.0);
}

TEST(Simulator, EqualTimesRunInScheduleOrder) {
  sim::Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.at(1.0, [&order, i] { order.push_back(i); });
  }
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, HandlersCanScheduleMoreEvents) {
  sim::Simulator s;
  int fired = 0;
  std::function<void()> chain = [&] {
    if (++fired < 5) s.after(1.0, chain);
  };
  s.after(1.0, chain);
  s.run();
  EXPECT_EQ(fired, 5);
  EXPECT_DOUBLE_EQ(s.now(), 5.0);
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  sim::Simulator s;
  int fired = 0;
  s.at(1.0, [&] { ++fired; });
  s.at(2.0, [&] { ++fired; });
  s.at(3.0, [&] { ++fired; });
  s.run_until(2.0);
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(s.now(), 2.0);
  s.run();
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, StopHaltsTheLoop) {
  sim::Simulator s;
  int fired = 0;
  s.at(1.0, [&] {
    ++fired;
    s.stop();
  });
  s.at(2.0, [&] { ++fired; });
  s.run();
  EXPECT_EQ(fired, 1);
  s.run();  // resumes with the remaining event
  EXPECT_EQ(fired, 2);
}

// --- cancellable timers ----------------------------------------------

TEST(Simulator, CancelPreventsTimerFromFiring) {
  sim::Simulator s;
  int fired = 0;
  auto h = s.timer_at(1.0, [&] { ++fired; });
  EXPECT_TRUE(s.cancel(h));
  s.run();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(s.timers_cancelled(), 1u);
}

TEST(Simulator, CancelledTimerLeavesQueueImmediately) {
  sim::Simulator s;
  auto h = s.timer_at(1.0, [] {});
  EXPECT_EQ(s.queue_size(), 1u);
  s.cancel(h);
  EXPECT_EQ(s.queue_size(), 0u);
  EXPECT_TRUE(s.empty());
}

TEST(Simulator, FiredTimerHandleGoesStale) {
  sim::Simulator s;
  int fired = 0;
  auto h = s.timer_at(1.0, [&] { ++fired; });
  s.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(s.cancel(h));  // already fired: harmless no-op
  EXPECT_EQ(s.timers_cancelled(), 0u);
}

TEST(Simulator, DoubleCancelIsHarmless) {
  sim::Simulator s;
  auto h = s.timer_at(1.0, [] {});
  auto dup = h;  // a second copy of the same claim ticket
  EXPECT_TRUE(s.cancel(h));
  EXPECT_FALSE(s.cancel(dup));
  EXPECT_FALSE(s.cancel(h));  // the first cancel reset the handle
  EXPECT_EQ(s.timers_cancelled(), 1u);
}

TEST(Simulator, DefaultHandleCancelIsNoop) {
  sim::Simulator s;
  sim::TimerHandle h;
  EXPECT_FALSE(s.cancel(h));
  EXPECT_EQ(s.timers_cancelled(), 0u);
}

TEST(Simulator, StaleHandleDoesNotCancelRecycledSlot) {
  // A fired timer's slot is recycled for the next one. The old handle's
  // generation no longer matches, so cancelling it must not kill the
  // timer now occupying the slot.
  sim::Simulator s;
  int first = 0;
  int second = 0;
  auto h1 = s.timer_at(1.0, [&] { ++first; });
  s.run();
  auto h2 = s.timer_at(2.0, [&] { ++second; });
  EXPECT_FALSE(s.cancel(h1));
  s.run();
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 1);
  EXPECT_FALSE(s.cancel(h2));  // h2 fired too
}

TEST(Simulator, CancellingOwnTimerFromItsHandlerIsNoop) {
  sim::Simulator s;
  int fired = 0;
  sim::TimerHandle h;
  h = s.timer_at(1.0, [&] {
    ++fired;
    EXPECT_FALSE(s.cancel(h));  // already firing: generation moved on
  });
  s.run();
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, CancelMiddleTimerKeepsRemainingOrder) {
  sim::Simulator s;
  std::vector<int> order;
  auto a = s.timer_at(1.0, [&] { order.push_back(1); });
  auto b = s.timer_at(2.0, [&] { order.push_back(2); });
  auto c = s.timer_at(3.0, [&] { order.push_back(3); });
  s.cancel(b);
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
  (void)a;
  (void)c;
}

TEST(Simulator, RearmedTimersDoNotAccumulate) {
  // The RTO pattern: cancel the predecessor, arm a replacement. Dead
  // timers must leave the queue immediately, so repeated rearming holds
  // exactly one slot instead of growing the queue per rearm.
  sim::Simulator s;
  sim::TimerHandle rto;
  int fired = 0;
  for (int i = 0; i < 1000; ++i) {
    s.cancel(rto);  // stale on the first pass, live afterwards
    rto = s.timer_after(10.0 + i, [&] { ++fired; });
    EXPECT_EQ(s.queue_size(), 1u);
  }
  EXPECT_EQ(s.timers_cancelled(), 999u);
  s.run();
  EXPECT_EQ(fired, 1);
}

// --- scheduling-in-the-past policy ------------------------------------

TEST(Simulator, PastScheduleClampsToNowAndCounts) {
  sim::Simulator s;
  SimTime fired_at = -1.0;
  s.at(5.0, [&] {
    s.at(1.0, [&] { fired_at = s.now(); });  // in the past: clamped
  });
  s.run();
  EXPECT_DOUBLE_EQ(fired_at, 5.0);  // ran at now(), clock stayed monotonic
  EXPECT_DOUBLE_EQ(s.now(), 5.0);
  EXPECT_EQ(s.past_schedule_clamps(), 1u);
}

// NaN compares false against everything, so a `t < now` guard lets it
// through: the event lands wherever the heap's comparisons leave it,
// sets the clock to NaN, and goes uncounted. It must be clamped to
// now() and counted like any other past time.
class NaNSchedule : public ::testing::Test {
 protected:
  // At 1.0, schedules events at 1.1..1.5 and then `nan_schedule`; each
  // records the clock it runs at.
  std::vector<SimTime> run(const std::function<void()>& nan_schedule) {
    s.at(1.0, [&] {
      for (const SimTime t : {1.1, 1.2, 1.3, 1.4, 1.5}) s.at(t, record);
      nan_schedule();
    });
    s.run();
    return fired;
  }
  sim::Simulator s;
  std::vector<SimTime> fired;
  std::function<void()> record = [this] { fired.push_back(s.now()); };
  static constexpr SimTime kNaN = std::numeric_limits<SimTime>::quiet_NaN();
  const std::vector<SimTime> clamped = {1.0, 1.1, 1.2, 1.3, 1.4, 1.5};
};

TEST_F(NaNSchedule, AtIsClampedToNowAndCounted) {
  EXPECT_EQ(run([&] { s.at(kNaN, record); }), clamped);
  EXPECT_EQ(s.past_schedule_clamps(), 1u);
  EXPECT_EQ(s.now(), 1.5);
}

TEST_F(NaNSchedule, TimerAtIsClampedToNowAndCounted) {
  EXPECT_EQ(run([&] { s.timer_at(kNaN, record); }), clamped);
  EXPECT_EQ(s.past_schedule_clamps(), 1u);
  EXPECT_EQ(s.now(), 1.5);
}

TEST_F(NaNSchedule, RescheduleIsClampedToNowAndCounted) {
  sim::TimerHandle h = s.timer_at(2.0, record);
  EXPECT_EQ(run([&] { ASSERT_TRUE(s.reschedule(h, kNaN)); }), clamped);
  EXPECT_EQ(s.past_schedule_clamps(), 1u);
  EXPECT_EQ(s.now(), 1.5);
}

TEST(Simulator, OnTimeSchedulesAreNotCountedAsClamps) {
  sim::Simulator s;
  s.at(1.0, [&] { s.after(0.0, [] {}); });  // exactly now: legal
  s.run();
  EXPECT_EQ(s.past_schedule_clamps(), 0u);
}

// --- (time, seq) determinism through the plain-event heap --------------

TEST(Simulator, LargeBatchPopsInTimeThenScheduleOrder) {
  // A large up-front batch, all in the plain-event heap; ties on time
  // must still resolve by insertion order.
  sim::Simulator s;
  std::vector<std::pair<double, int>> expect;
  std::vector<int> order;
  for (int i = 0; i < 512; ++i) {
    const double t = static_cast<double>((512 - i) % 37);
    expect.emplace_back(t, i);
    s.at(t, [&order, i] { order.push_back(i); });
  }
  std::stable_sort(
      expect.begin(), expect.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  s.run();
  ASSERT_EQ(order.size(), expect.size());
  for (std::size_t k = 0; k < expect.size(); ++k) {
    EXPECT_EQ(order[k], expect[k].second);
  }
}

TEST(Simulator, SmallCapturesKeepOrderToo) {
  // Captures of one pointer take an arena slot like any other closure
  // and must obey the same total order.
  struct Cell {
    std::vector<int>* order;
    int id;
    void operator()() const { order->push_back(id); }
  };
  sim::Simulator s;
  std::vector<int> order;
  std::vector<Cell> cells;
  cells.reserve(256);
  std::vector<std::pair<double, int>> expect;
  for (int i = 0; i < 256; ++i) {
    const double t = static_cast<double>((997 * i) % 19);
    cells.push_back(Cell{&order, i});
    expect.emplace_back(t, i);
    s.at(t, [c = &cells[static_cast<std::size_t>(i)]] { (*c)(); });
  }
  std::stable_sort(
      expect.begin(), expect.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  s.run();
  ASSERT_EQ(order.size(), expect.size());
  for (std::size_t k = 0; k < expect.size(); ++k) {
    EXPECT_EQ(order[k], expect[k].second);
  }
}

TEST(Simulator, SchedulingDuringALargeDrainStaysInOrder) {
  // A second large batch arriving while the first is still draining
  // must interleave with what is left of it.
  sim::Simulator s;
  std::vector<SimTime> times;
  for (int i = 0; i < 100; ++i) {
    s.at(static_cast<double>(i), [&] { times.push_back(s.now()); });
  }
  s.at(10.0, [&] {
    for (int j = 0; j < 100; ++j) {
      s.at(10.5 + static_cast<double>(j), [&] { times.push_back(s.now()); });
    }
  });
  s.run();
  EXPECT_EQ(times.size(), 200u);
  EXPECT_TRUE(std::is_sorted(times.begin(), times.end()));
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.queue_size(), 0u);
}

TEST(Simulator, TimersInterleaveWithBatchedEventsInOrder) {
  // Cancellable timers live in their own heap, apart from the plain
  // events; the pop order must interleave the two by (time, seq).
  sim::Simulator s;
  std::vector<int> order;
  std::vector<std::pair<double, int>> expect;
  int id = 0;
  for (int i = 0; i < 64; ++i) {
    const double t = static_cast<double>((64 - i) % 11);
    expect.emplace_back(t, id);
    s.at(t, [&order, id] { order.push_back(id); });
    ++id;
    const double tt = static_cast<double>(i % 11);
    expect.emplace_back(tt, id);
    s.timer_at(tt, [&order, id] { order.push_back(id); });
    ++id;
  }
  std::stable_sort(
      expect.begin(), expect.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  s.run();
  ASSERT_EQ(order.size(), expect.size());
  for (std::size_t k = 0; k < expect.size(); ++k) {
    EXPECT_EQ(order[k], expect[k].second);
  }
}

TEST(Simulator, MoveTransfersQueueAndHandlesStayValid) {
  sim::Simulator a;
  int fired = 0;
  a.at(1.0, [&fired] { ++fired; });
  auto h = a.timer_at(2.0, [&fired] { ++fired; });
  sim::Simulator b(std::move(a));
  EXPECT_TRUE(b.cancel(h));  // the handle follows the moved arena
  b.run();
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(b.now(), 1.0);
}

// --- delay-lane heads -----------------------------------------------
//
// The fronts of the non-empty lanes are kept in a sorted array, apart
// from the plain heap and the timer heap. These tests drive that array
// through the public lane API and check that every event fires at its
// key in exact (time, seq) order.

// Fires events and checks that their keys strictly ascend: with every
// scheduled event firing once, that is exactly (time, seq) order.
class KeyLog {
 public:
  explicit KeyLog(sim::Simulator& s) : s_(s) {}

  /// An event through `lane` at `t`, tagged `id`.
  void lane_event(sim::Simulator::LaneId lane, SimTime t, int id) {
    const sim::Simulator::Key k = s_.reserve_key(t);
    s_.lane_at(lane, k, [this, k, id] { record(k, id); });
  }

  /// Records a lane event firing at its key `k`.
  void record(sim::Simulator::Key k, int id) {
    EXPECT_EQ(s_.now(), k.time);
    if (keyed_) {
      const bool ascends =
          last_.time < k.time ||
          (last_.time == k.time &&
           static_cast<std::int32_t>(k.seq - last_.seq) > 0);
      EXPECT_TRUE(ascends) << "event " << id << " fired out of order";
    }
    EXPECT_GE(k.time, last_.time) << "event " << id;
    last_ = k;
    keyed_ = true;
    ids.push_back(id);
  }

  /// Records an event whose key the test does not know (a plain event
  /// or a timer): only its time is checked.
  void record(int id) {
    EXPECT_GE(s_.now(), last_.time) << "event " << id;
    last_.time = s_.now();
    keyed_ = false;
    ids.push_back(id);
  }

  std::vector<int> ids;

 private:
  sim::Simulator& s_;
  sim::Simulator::Key last_{0.0, 0};
  bool keyed_ = false;  ///< whether last_.seq is the last event's
};

TEST(LaneHeads, SharedTimestampFiresInScheduleOrderAcrossQueues) {
  // One timestamp for lane heads, plain events and timers: only seq
  // decides, so events fire in the order they were scheduled whichever
  // queue holds them.
  sim::Simulator s;
  KeyLog log(s);
  const auto a = s.lane(1e-6, sim::Simulator::kNoLane);
  const auto b = s.lane(2e-6, sim::Simulator::kNoLane);
  const double t = 5e-6;
  int id = 0;
  s.timer_at(t, [&log, id] { log.record(id); });
  ++id;
  log.lane_event(b, t, id++);
  s.at(t, [&log, id] { log.record(id); });
  ++id;
  log.lane_event(a, t, id++);
  s.timer_at(t, [&log, id] { log.record(id); });
  ++id;
  log.lane_event(b, t, id++);  // behind b's head: same time, later seq
  s.at(t, [&log, id] { log.record(id); });
  ++id;
  log.lane_event(a, t, id++);
  EXPECT_EQ(s.queue_size(), 2u + 2u + 2u);  // timers, plain, lane heads
  EXPECT_EQ(s.pending_events(), 8u);
  s.run();
  EXPECT_EQ(log.ids, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_TRUE(s.empty());
}

TEST(LaneHeads, AllLanesBusyWithHeadsOvertakingEachOther) {
  // Two chains of events per lane, each event scheduling its successor
  // at now + the lane's delay: every lane holds two events, and heads
  // keep passing each other. Plain events and timers ride along. The
  // key log checks the fire order.
  sim::Simulator s;
  KeyLog log(s);
  constexpr int kLanes = static_cast<int>(sim::Simulator::kMaxLanes);
  constexpr int kChains = 2 * kLanes;
  constexpr int kHops = 40;
  std::vector<double> delay(kLanes);
  std::vector<sim::Simulator::LaneId> hint(kLanes, sim::Simulator::kNoLane);
  std::vector<int> hops(kChains, 0);
  std::function<void(int)> hop = [&](int chain) {
    if (++hops[static_cast<std::size_t>(chain)] == kHops) return;
    const auto lane = static_cast<std::size_t>(chain % kLanes);
    hint[lane] = s.lane(delay[lane], hint[lane]);
    const sim::Simulator::Key k = s.reserve_key(s.now() + delay[lane]);
    s.lane_at(hint[lane], k, [&log, &hop, k, chain] {
      log.record(k, chain);
      hop(chain);
    });
  };
  for (int i = 0; i < kLanes; ++i) {
    // Delays 1.0..4.1 us in a scrambled order, and staggered starts.
    delay[static_cast<std::size_t>(i)] = 1e-6 * (1.0 + (i * 7 % kLanes) / 10.0);
    const double start = 1e-7 * (kLanes - i);
    s.at(start, [&hop, i] { hop(i); });
    s.at(start + 0.37e-6, [&hop, i] { hop(i + kLanes); });
    if (i % 4 == 0) s.timer_at(start * 3, [&log] { log.record(-1); });
  }
  s.run_until(5e-6);
  // Every chain is under way: each lane holds two events behind one
  // head.
  EXPECT_EQ(s.lanes(), sim::Simulator::kMaxLanes);
  EXPECT_EQ(s.pending_events() - s.queue_size(),
            sim::Simulator::kMaxLanes);
  s.run();
  for (const int h : hops) EXPECT_EQ(h, kHops);
  EXPECT_EQ(std::count(log.ids.begin(), log.ids.end(), -1), kLanes / 4);
  EXPECT_EQ(log.ids.size(),
            static_cast<std::size_t>(kChains * (kHops - 1) + kLanes / 4));
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.queue_size(), 0u);
}

TEST(LaneHeads, DrainedLaneIsTakenOverWhileOtherHeadsWait) {
  // Fill the lane table, let one lane drain while the others still hold
  // events, then open a new delay: it takes over the drained lane and
  // its events interleave with the waiting heads.
  sim::Simulator s;
  KeyLog log(s);
  constexpr std::size_t kLanes = sim::Simulator::kMaxLanes;
  std::vector<sim::Simulator::LaneId> ids;
  for (std::size_t i = 0; i < kLanes; ++i) {
    ids.push_back(s.lane(1e-6 * static_cast<double>(i + 1),
                         sim::Simulator::kNoLane));
  }
  ASSERT_EQ(s.lanes(), kLanes);
  // Lane 0 holds two early events; every other lane holds three late
  // ones, in descending lane order so the head array fills out of order.
  log.lane_event(ids[0], 1.0, 0);
  log.lane_event(ids[0], 2.0, 1);
  for (std::size_t i = kLanes; i-- > 1;) {
    for (int k = 0; k < 3; ++k) {
      log.lane_event(ids[i], 10.0 + static_cast<double>(i % 5) + k,
                     100 + static_cast<int>(i));
    }
  }
  EXPECT_EQ(s.queue_size(), kLanes);
  s.run_until(5.0);
  EXPECT_EQ(log.ids, (std::vector<int>{0, 1}));
  EXPECT_EQ(s.queue_size(), kLanes - 1);  // lane 0 drained: no head
  // A new delay takes over the only empty lane; the old delay's hint no
  // longer names it.
  const auto fresh = s.lane(0.5e-6, sim::Simulator::kNoLane);
  EXPECT_EQ(fresh, ids[0]);
  EXPECT_EQ(s.lanes(), kLanes);
  // Its events land before, between and after the waiting heads.
  log.lane_event(fresh, 9.0, 2);
  log.lane_event(fresh, 11.5, 3);
  log.lane_event(fresh, 20.0, 4);
  EXPECT_EQ(s.queue_size(), kLanes);
  // Every lane is busy, so the old delay finds none.
  EXPECT_EQ(s.lane(1e-6, ids[0]), sim::Simulator::kNoLane);
  s.run();
  ASSERT_EQ(log.ids.size(), 5u + 3u * (kLanes - 1));
  EXPECT_EQ(log.ids[2], 2);
  EXPECT_EQ(log.ids.back(), 4);
  EXPECT_TRUE(s.empty());
}

TEST(LaneHeads, OnlyLaneEventsPendingAreCountedAndBoundTheHorizon) {
  sim::Simulator s;
  KeyLog log(s);
  const auto a = s.lane(1e-6, sim::Simulator::kNoLane);
  const auto b = s.lane(2e-6, sim::Simulator::kNoLane);
  EXPECT_TRUE(s.empty());
  log.lane_event(a, 3.0, 0);
  log.lane_event(a, 4.0, 1);
  log.lane_event(a, 6.0, 2);
  log.lane_event(b, 2.0, 3);
  log.lane_event(b, 5.0, 4);
  EXPECT_FALSE(s.empty());
  EXPECT_EQ(s.queue_size(), 2u);  // one per non-empty lane
  EXPECT_EQ(s.pending_events(), 5u);
  EXPECT_EQ(s.next_event_time(), 2.0);
  s.run_until(4.5);  // b's head fired, then a's first two
  EXPECT_FALSE(s.empty());
  EXPECT_EQ(s.queue_size(), 2u);
  EXPECT_EQ(s.pending_events(), 2u);
  EXPECT_EQ(s.next_event_time(), 5.0);
  s.run_until(5.5);  // b drained
  EXPECT_FALSE(s.empty());
  EXPECT_EQ(s.queue_size(), 1u);
  EXPECT_EQ(s.next_event_time(), 6.0);
  s.run();
  EXPECT_EQ(log.ids, (std::vector<int>{3, 0, 1, 4, 2}));
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.queue_size(), 0u);
  EXPECT_EQ(s.next_event_time(), std::numeric_limits<SimTime>::infinity());
}

TEST(LaneHeads, MovedSimulatorKeepsItsLaneHeads) {
  sim::Simulator a;
  std::vector<int> order;
  const auto x = a.lane(1e-6, sim::Simulator::kNoLane);
  const auto y = a.lane(2e-6, sim::Simulator::kNoLane);
  a.lane_at(x, a.reserve_key(2.0), [&order] { order.push_back(2); });
  a.lane_at(y, a.reserve_key(1.0), [&order] { order.push_back(1); });
  a.lane_at(x, a.reserve_key(3.0), [&order] { order.push_back(3); });
  a.at(2.5, [&order] { order.push_back(25); });
  sim::Simulator b(std::move(a));
  EXPECT_FALSE(b.empty());
  EXPECT_EQ(b.queue_size(), 3u);
  EXPECT_EQ(b.pending_events(), 4u);
  EXPECT_EQ(b.next_event_time(), 1.0);
  sim::Simulator c;
  c = std::move(b);
  EXPECT_EQ(c.next_event_time(), 1.0);
  c.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 25, 3}));
  EXPECT_TRUE(c.empty());
}

// --- port / link timing ---------------------------------------------

class SinkNode : public sim::Node {
 public:
  using Node::Node;
  void receive(sim::Packet pkt) override {
    packets.push_back(pkt);
    arrival_times.push_back(last_now ? *last_now : -1.0);
  }
  std::vector<sim::Packet> packets;
  std::vector<SimTime> arrival_times;
  const SimTime* last_now = nullptr;
};

TEST(Port, SerializationPlusPropagationDelay) {
  sim::Simulator s;
  SinkNode sink(0, "sink");
  SimTime arrival = -1.0;
  // 1000 bytes at 1 Mbps = 8 ms serialization; +1 ms propagation.
  sim::Port port(s, units::mbps(1), 0.001,
                 std::make_unique<queue::DropTailQueue>(0, 0));
  // Wrap the sink to capture the arrival time.
  class TimedSink : public sim::Node {
   public:
    TimedSink(sim::Simulator& sim, SimTime& t) : Node(1, "t"), sim_(sim), t_(t) {}
    void receive(sim::Packet) override { t_ = sim_.now(); }
    sim::Simulator& sim_;
    SimTime& t_;
  } timed(s, arrival);
  port.attach_peer(&timed);

  sim::Packet pkt;
  pkt.size_bytes = 1000;
  port.send(pkt);
  s.run();
  EXPECT_NEAR(arrival, 0.008 + 0.001, 1e-12);
  EXPECT_EQ(port.packets_sent(), 1u);
  EXPECT_EQ(port.bytes_sent(), 1000u);
}

TEST(Port, BackToBackPacketsSpacedBySerialization) {
  sim::Simulator s;
  std::vector<SimTime> arrivals;
  class TimedSink : public sim::Node {
   public:
    TimedSink(sim::Simulator& sim, std::vector<SimTime>& v)
        : Node(1, "t"), sim_(sim), v_(v) {}
    void receive(sim::Packet) override { v_.push_back(sim_.now()); }
    sim::Simulator& sim_;
    std::vector<SimTime>& v_;
  } timed(s, arrivals);

  sim::Port port(s, units::mbps(8), 0.0,
                 std::make_unique<queue::DropTailQueue>(0, 0));
  port.attach_peer(&timed);
  sim::Packet pkt;
  pkt.size_bytes = 1000;  // 1 ms at 8 Mbps
  port.send(pkt);
  port.send(pkt);
  port.send(pkt);
  s.run();
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_NEAR(arrivals[0], 0.001, 1e-12);
  EXPECT_NEAR(arrivals[1], 0.002, 1e-12);
  EXPECT_NEAR(arrivals[2], 0.003, 1e-12);
}

TEST(Port, QueueHoldsPacketsWhileBusy) {
  sim::Simulator s;
  int received = 0;
  class CountSink : public sim::Node {
   public:
    CountSink(int& c) : Node(1, "c"), c_(c) {}
    void receive(sim::Packet) override { ++c_; }
    int& c_;
  } sink(received);

  sim::Port port(s, units::mbps(1), 0.0,
                 std::make_unique<queue::DropTailQueue>(0, 2));
  port.attach_peer(&sink);
  sim::Packet pkt;
  pkt.size_bytes = 125;  // 1 ms each
  // First goes to the wire, next two fill the 2-packet queue, the rest drop.
  for (int i = 0; i < 5; ++i) port.send(pkt);
  EXPECT_EQ(port.disc().drops(), 2u);
  s.run();
  EXPECT_EQ(received, 3);
}

// Logs every transmission start (through the port's tracer, with the
// rate fraction in force at that instant) and every arrival at the peer.
class WireLog final : public sim::Node, public sim::TraceSink {
 public:
  struct Tx {
    std::uint64_t uid;
    SimTime at;
    std::uint16_t size;
    double frac;
  };
  WireLog(sim::Simulator& sim, const double* frac = nullptr)
      : Node(1, "wire-log"), sim_(sim), frac_(frac) {}
  void receive(sim::Packet pkt) override {
    arrivals.emplace_back(pkt.uid, sim_.now());
  }
  void packet_event(const char* event, const sim::Packet& pkt,
                    SimTime now) override {
    if (std::string(event) == "tx") {
      tx.push_back(Tx{pkt.uid, now, pkt.size_bytes,
                      frac_ == nullptr ? 1.0 : *frac_});
    }
  }
  /// Arrivals one kernel event per packet would produce: each packet at
  /// tx start + (serialization + propagation), in (time, send) order.
  std::vector<std::pair<std::uint64_t, SimTime>> expected(
      const sim::Port& port) const {
    std::vector<std::pair<std::uint64_t, SimTime>> out;
    for (const Tx& t : tx) {
      const DataRate rate = frac_ == nullptr ? port.rate_bps()
                                             : port.rate_bps() * t.frac;
      out.emplace_back(t.uid, t.at + (units::transmission_time(t.size, rate) +
                                      port.prop_delay()));
    }
    std::stable_sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
      return a.second < b.second;
    });
    return out;
  }
  std::vector<Tx> tx;
  std::vector<std::pair<std::uint64_t, SimTime>> arrivals;

 private:
  sim::Simulator& sim_;
  const double* frac_;
};

sim::Packet sized(std::uint64_t uid, std::uint16_t bytes) {
  sim::Packet pkt;
  pkt.uid = uid;
  pkt.size_bytes = bytes;
  return pkt;
}

TEST(PortWire, MixedSizesArriveInOrderAtExactTimes) {
  sim::Simulator s;
  WireLog log(s);
  sim::Port port(s, units::gbps(10), 25e-6,
                 std::make_unique<queue::DropTailQueue>(0, 0));
  port.attach_peer(&log);
  port.set_trace(&log);
  std::uint64_t uid = 0;
  // Back-to-back bursts of 40 B ACK-sized and 1500 B data packets, the
  // second burst sent while the first is still propagating.
  for (int i = 0; i < 30; ++i) port.send(sized(++uid, i % 3 == 0 ? 1500 : 40));
  s.at(4e-6, [&] {
    for (int i = 0; i < 30; ++i) port.send(sized(++uid, i % 2 ? 40 : 1500));
  });
  s.run_until(30e-6);
  // Many packets in flight, yet the kernel holds one entry per delay
  // lane and at most one release outside them. Two packet sizes give
  // two arrival delays (tx + prop) and two release delays (tx): four
  // lanes. The port has at most one release pending, which stays out of
  // its lane only when inserted behind a later key. 4 + 1 = 5.
  EXPECT_GT(port.packets_on_wire(), 10u);
  EXPECT_EQ(s.lanes(), 4u);
  EXPECT_LE(s.queue_size(), 5u);
  s.run();
  ASSERT_EQ(log.arrivals.size(), 60u);
  EXPECT_EQ(log.arrivals, log.expected(port));
  for (std::size_t i = 0; i < log.arrivals.size(); ++i) {
    EXPECT_EQ(log.arrivals[i].first, i + 1) << "FIFO order";
  }
  EXPECT_EQ(port.packets_on_wire(), 0u);
  EXPECT_EQ(s.past_schedule_clamps(), 0u);
  // The second burst joins the first's backlog (the first takes 12.64 us
  // to serialize), so all 60 packets form one busy period. Events: 60
  // arrivals, plus the burst, plus one transmitter release per packet
  // that has another queued behind it — all but the last, whose release
  // finds an empty queue and is never scheduled.
  EXPECT_EQ(s.events_processed(), 60u + 1u + 59u);
}

TEST(PortWire, ZeroLengthPacketsKeepExactOrder) {
  // A zero-byte packet serializes in no time, so rounding can put its
  // arrival an ulp before its predecessor's. The grid below contains
  // such inversions; every packet must still arrive at its own exact
  // time, in (time, seq) order, without a past-time clamp.
  int inversions = 0;
  for (int k = 1; k <= 200; ++k) {
    sim::Simulator s;
    WireLog log(s);
    sim::Port port(s, units::gbps(10), 1e-6 * k / 7.0,
                   std::make_unique<queue::DropTailQueue>(0, 0));
    port.attach_peer(&log);
    port.set_trace(&log);
    s.at(0.1 + 1e-3 * k / 3.0, [&] {
      port.send(sized(1, 1));
      port.send(sized(2, 0));
      port.send(sized(3, 0));
    });
    s.run();
    const auto want = log.expected(port);
    ASSERT_EQ(log.arrivals, want) << "k=" << k;
    EXPECT_EQ(s.past_schedule_clamps(), 0u);
    if (want.front().first != 1) ++inversions;
  }
  EXPECT_GT(inversions, 0) << "the grid no longer exercises an inversion";
}

TEST(PortWire, LinkDownStillDeliversPacketsOnTheWire) {
  sim::Simulator s;
  WireLog log(s);
  // 1000 B at 8 Mbps = 1 ms serialization; 10 ms propagation.
  sim::Port port(s, units::mbps(8), 0.010,
                 std::make_unique<queue::DropTailQueue>(0, 0));
  port.attach_peer(&log);
  port.set_trace(&log);
  for (std::uint64_t i = 1; i <= 10; ++i) port.send(sized(i, 1000));
  s.run_until(0.0035);
  // Packets 1-4 have started serializing; 5-10 wait in the queue.
  EXPECT_EQ(port.packets_on_wire(), 4u);
  EXPECT_EQ(port.drop_queued(s.now()), 6u);
  EXPECT_EQ(port.link_down_drops(), 6u);
  s.run();
  ASSERT_EQ(log.arrivals.size(), 4u);
  EXPECT_EQ(log.arrivals, log.expected(port));
  EXPECT_NEAR(log.arrivals.back().second, 0.004 + 0.010, 1e-12);
}

TEST(PortWire, RateFractionChangeMidBurstKeepsOrder) {
  sim::Simulator s;
  double frac = 1.0;
  WireLog log(s, &frac);
  sim::Port port(s, units::gbps(1), 5e-6,
                 std::make_unique<queue::DropTailQueue>(0, 0));
  port.attach_peer(&log);
  port.set_trace(&log);
  port.set_available_rate_fraction(&frac);
  for (std::uint64_t i = 1; i <= 40; ++i) {
    port.send(sized(i, i % 4 == 0 ? 40 : 1500));
  }
  // Slow the link mid-burst, then give it back in full: the first fast
  // packet after the slow stretch must not overtake its predecessor.
  s.at(60e-6, [&] { frac = 0.1; });
  s.at(200e-6, [&] { frac = 1.0; });
  s.run();
  ASSERT_EQ(log.arrivals.size(), 40u);
  EXPECT_EQ(log.arrivals, log.expected(port));
  for (std::size_t i = 0; i < log.arrivals.size(); ++i) {
    EXPECT_EQ(log.arrivals[i].first, i + 1);
  }
  EXPECT_EQ(s.past_schedule_clamps(), 0u);
}

TEST(PortWire, RewiringWithPacketsOnTheWireThrows) {
  sim::Simulator s;
  sim::Simulator other;
  WireLog log(s);
  WireLog log2(s);
  sim::Port port(s, units::mbps(8), 0.010,
                 std::make_unique<queue::DropTailQueue>(0, 0));
  port.attach_peer(&log);
  port.send(sized(1, 1000));
  ASSERT_EQ(port.packets_on_wire(), 1u);
  EXPECT_THROW(port.attach_peer(&log2), std::logic_error);
  EXPECT_THROW(port.bind_simulator(other), std::logic_error);
  EXPECT_THROW(port.set_remote(nullptr), std::logic_error);
  EXPECT_EQ(port.peer(), &log);
  EXPECT_EQ(&port.simulator(), &s);
  s.run();
  ASSERT_EQ(log.arrivals.size(), 1u);
  // Once the wire is empty, rewiring is legal again.
  EXPECT_NO_THROW(port.attach_peer(&log2));
  EXPECT_NO_THROW(port.bind_simulator(other));
  EXPECT_NO_THROW(port.set_remote(nullptr));
}

TEST(PortWire, RebindingDuringATransmissionThrows) {
  // A cross-shard port keeps no wire, but its transmitter stays busy
  // until the release, whose key belongs to the current simulator.
  sim::Simulator s;
  sim::Simulator other;
  WireLog log(s);
  parsim::Mailbox mb;
  sim::Port port(s, units::mbps(8), 0.010,
                 std::make_unique<queue::DropTailQueue>(0, 0));
  port.attach_peer(&log);
  port.set_remote(&mb);
  port.send(sized(1, 1000));  // 1 ms serialization
  ASSERT_EQ(port.packets_on_wire(), 0u);
  EXPECT_TRUE(port.busy());
  EXPECT_THROW(port.bind_simulator(other), std::logic_error);
  s.run();
  EXPECT_EQ(s.now(), 0.001);
  EXPECT_FALSE(port.busy());
  EXPECT_NO_THROW(port.bind_simulator(other));
}

// --- network / routing ------------------------------------------------

class Collector : public sim::PacketSink {
 public:
  void deliver(sim::Packet pkt) override { packets.push_back(pkt); }
  std::vector<sim::Packet> packets;
};

TEST(Network, HostToHostThroughOneSwitch) {
  sim::Network net;
  auto& sw = net.add_switch("sw");
  auto& a = net.add_host("a");
  auto& b = net.add_host("b");
  const auto q = queue::drop_tail(0, 0);
  net.attach_host(a, sw, units::gbps(1), 1e-6, q, q);
  net.attach_host(b, sw, units::gbps(1), 1e-6, q, q);
  net.build_routes();

  Collector col;
  b.bind_flow(5, &col);
  sim::Packet pkt;
  pkt.flow = 5;
  pkt.src = a.id();
  pkt.dst = b.id();
  pkt.size_bytes = 100;
  a.send(pkt);
  net.sim().run();
  ASSERT_EQ(col.packets.size(), 1u);
  EXPECT_EQ(col.packets[0].flow, 5u);
  EXPECT_EQ(sw.unrouted_drops(), 0u);
}

TEST(Network, MultiHopRoutingAcrossSwitches) {
  // a - sw1 - sw2 - sw3 - b : BFS routes must span the chain.
  sim::Network net;
  auto& sw1 = net.add_switch("sw1");
  auto& sw2 = net.add_switch("sw2");
  auto& sw3 = net.add_switch("sw3");
  auto& a = net.add_host("a");
  auto& b = net.add_host("b");
  const auto q = queue::drop_tail(0, 0);
  net.attach_host(a, sw1, units::gbps(1), 1e-6, q, q);
  net.attach_host(b, sw3, units::gbps(1), 1e-6, q, q);
  net.connect_switches(sw1, sw2, units::gbps(1), 1e-6, q, q);
  net.connect_switches(sw2, sw3, units::gbps(1), 1e-6, q, q);
  net.build_routes();

  Collector col;
  b.bind_flow(9, &col);
  sim::Packet pkt;
  pkt.flow = 9;
  pkt.src = a.id();
  pkt.dst = b.id();
  pkt.size_bytes = 100;
  a.send(pkt);
  net.sim().run();
  ASSERT_EQ(col.packets.size(), 1u);

  // And the reverse direction.
  Collector col_a;
  a.bind_flow(10, &col_a);
  sim::Packet rev;
  rev.flow = 10;
  rev.src = b.id();
  rev.dst = a.id();
  rev.size_bytes = 100;
  b.send(rev);
  net.sim().run();
  ASSERT_EQ(col_a.packets.size(), 1u);
}

TEST(Network, UnroutablePacketCountedNotCrash) {
  sim::Network net;
  auto& sw = net.add_switch("sw");
  auto& a = net.add_host("a");
  const auto q = queue::drop_tail(0, 0);
  net.attach_host(a, sw, units::gbps(1), 1e-6, q, q);
  net.build_routes();
  sim::Packet pkt;
  pkt.flow = 1;
  pkt.src = a.id();
  pkt.dst = 999;  // nobody
  pkt.size_bytes = 100;
  a.send(pkt);
  net.sim().run();
  EXPECT_EQ(sw.unrouted_drops(), 1u);
}

TEST(Network, UnboundFlowAtHostCounted) {
  sim::Network net;
  auto& sw = net.add_switch("sw");
  auto& a = net.add_host("a");
  auto& b = net.add_host("b");
  const auto q = queue::drop_tail(0, 0);
  net.attach_host(a, sw, units::gbps(1), 1e-6, q, q);
  net.attach_host(b, sw, units::gbps(1), 1e-6, q, q);
  net.build_routes();
  sim::Packet pkt;
  pkt.flow = 77;  // not bound at b
  pkt.src = a.id();
  pkt.dst = b.id();
  pkt.size_bytes = 100;
  a.send(pkt);
  net.sim().run();
  EXPECT_EQ(b.unbound_drops(), 1u);
}

TEST(Network, FlowIdsAreUnique) {
  sim::Network net;
  const auto f1 = net.new_flow();
  const auto f2 = net.new_flow();
  EXPECT_NE(f1, f2);
}

}  // namespace
}  // namespace dtdctcp
