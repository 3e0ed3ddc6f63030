// Differential test of the event kernel against a reference model.
//
// The model keeps every pending event in a flat list and pops the one
// with the smallest (time, seq) by linear scan — the determinism
// contract written as plainly as possible. A seeded random script of
// at / after / timer_at / cancel / reschedule calls (scheduled both
// from the driver and from inside handlers) runs against both, driven
// through run_until, run_window, run, stop() and next_event_time(). The
// script's own random draws happen inside handlers, so any divergence
// in fire order shows up as a mismatch at the first differing event.
//
// The script also reserves keys that are never scheduled (reserve_key
// + defer, as a Port does for a transmitter release that finds an
// empty queue). The model holds them as no-op events: they order, bound
// next_event_time() and move the clock like any event, but run nothing
// and are not counted. At every step the kernel's passed() must agree
// with whether the model has fired them.
//
// Lane events (lane_at) are events like any other to the model. The
// script schedules them at now + d from several sources that share a
// few delays, draws from more distinct delays than the kernel's lane
// cap, and inserts some reserved keys late (out of order, as a Port
// inserts a release once a packet queues behind it).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/simulator.h"

namespace dtdctcp {
namespace {

class ReferenceSim {
 public:
  struct Handle {
    static constexpr std::size_t kNone = ~std::size_t{0};
    std::size_t id = kNone;
  };

  SimTime now() const { return now_; }

  template <typename F>
  void at(SimTime t, F&& fn) {
    add(t, std::forward<F>(fn));
  }
  template <typename F>
  void after(SimTime dt, F&& fn) {
    add(now_ + dt, std::forward<F>(fn));
  }
  template <typename F>
  Handle timer_at(SimTime t, F&& fn) {
    return Handle{add(t, std::forward<F>(fn))};
  }

  bool cancel(Handle& h) {
    const std::size_t id = h.id;
    h = Handle{};
    if (id == Handle::kNone || !events_[id].live) return false;
    kill(id);
    ++cancelled_;
    return true;
  }

  // A restart is cancel + timer_at with the same callable.
  bool reschedule(Handle& h, SimTime t) {
    if (h.id == Handle::kNone || !events_[h.id].live) {
      h = Handle{};
      return false;
    }
    events_[h.id].time = clamp(t);
    events_[h.id].seq = next_seq_++;
    ++cancelled_;
    return true;
  }

  // A reserved key: an event that runs nothing and is not counted.
  Handle reserve(SimTime t) {
    const std::size_t id = add(t, [] {});
    events_[id].noop = true;
    ++live_noops_;
    return Handle{id};
  }
  // Makes a reserved key, not yet passed, an event that runs `fn`.
  template <typename F>
  void insert(const Handle& h, F&& fn) {
    Event& e = events_[h.id];
    e.fn = std::forward<F>(fn);
    e.noop = false;
    --live_noops_;
  }
  // Like the kernel, an event does not count as passed while it runs,
  // nor after it stopped the loop (until the next event runs).
  bool passed(const Handle& h) const {
    return !events_[h.id].live && h.id != running_;
  }

  void stop() { stopped_ = true; }

  void run() {
    stopped_ = false;
    while (!stopped_ && !live_.empty()) fire(earliest());
    end_loop();
  }

  void run_until(SimTime t) {
    stopped_ = false;
    while (!stopped_ && !live_.empty()) {
      const std::size_t i = earliest();
      if (events_[live_[i]].time > t) break;
      fire(i);
    }
    if (!stopped_ && now_ < t) now_ = t;
    end_loop();
  }

  void run_window(SimTime end) {
    stopped_ = false;
    while (!stopped_ && !live_.empty()) {
      const std::size_t i = earliest();
      if (events_[live_[i]].time >= end) break;
      fire(i);
    }
    end_loop();
  }

  SimTime next_event_time() const {
    if (live_.empty()) return std::numeric_limits<SimTime>::infinity();
    return events_[live_[earliest()]].time;
  }

  std::size_t pending_events() const { return live_.size() - live_noops_; }
  std::uint64_t timers_cancelled() const { return cancelled_; }
  std::uint64_t past_schedule_clamps() const { return clamps_; }
  std::uint64_t events_processed() const { return processed_; }

 private:
  struct Event {
    SimTime time;
    std::uint64_t seq;
    std::function<void()> fn;
    bool live;
    bool noop = false;
  };

  SimTime clamp(SimTime t) {
    if (t < now_) {
      ++clamps_;
      return now_;
    }
    return t;
  }

  template <typename F>
  std::size_t add(SimTime t, F&& fn) {
    events_.push_back(
        Event{clamp(t), next_seq_++, std::forward<F>(fn), true});
    live_.push_back(events_.size() - 1);
    return events_.size() - 1;
  }

  // Index into live_ of the earliest pending event (live_ non-empty).
  std::size_t earliest() const {
    std::size_t best = 0;
    for (std::size_t i = 1; i < live_.size(); ++i) {
      const Event& a = events_[live_[i]];
      const Event& b = events_[live_[best]];
      if (a.time < b.time || (a.time == b.time && a.seq < b.seq)) best = i;
    }
    return best;
  }

  void end_loop() {
    if (!stopped_) running_ = Handle::kNone;
  }

  void kill(std::size_t id) {
    events_[id].live = false;
    for (std::size_t i = 0; i < live_.size(); ++i) {
      if (live_[i] == id) {
        live_.erase(live_.begin() + static_cast<std::ptrdiff_t>(i));
        return;
      }
    }
  }

  void fire(std::size_t live_index) {
    const std::size_t id = live_[live_index];
    live_.erase(live_.begin() + static_cast<std::ptrdiff_t>(live_index));
    events_[id].live = false;
    now_ = events_[id].time;
    if (events_[id].noop) {
      --live_noops_;
      return;
    }
    ++processed_;
    running_ = id;
    std::function<void()> fn = std::move(events_[id].fn);
    fn();
  }

  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t clamps_ = 0;
  std::uint64_t processed_ = 0;
  std::size_t live_noops_ = 0;
  std::size_t running_ = Handle::kNone;  ///< running or stopping event
  bool stopped_ = false;
  std::deque<Event> events_;
  std::vector<std::size_t> live_;
};

// One observation: what happened (kind), which event or result (id), the
// clock or probed time, the kernel counters at that moment (pending
// events, timers cancelled, past clamps), which reserved keys have
// passed (one bit per channel), and the events processed.
using Record = std::tuple<int, long, SimTime, std::size_t, std::uint64_t,
                          std::uint64_t, unsigned, std::uint64_t>;

enum Kind : int {
  kFire,
  kTimerFire,
  kCancel,
  kReschedule,
  kOwnReschedule,
  kNextEvent,
  kAfterRun,
  kReserve,
  kInsert,
  kEnd,
};

template <typename Sim>
class Script {
 public:
  explicit Script(std::uint64_t seed) : state_(seed) {}

  std::vector<Record> run(int budget) {
    budget_ = budget;
    // Setup burst at time zero, plus a few timers.
    for (int i = 0; i < 40; ++i) schedule_plain();
    for (int i = 0; i < 10; ++i) new_timer();
    for (int round = 0;
         round < 400 && (sim_.pending_events() > 0 || reserved());
         ++round) {
      switch (pick(5)) {
        case 0:
          sim_.run_until(sim_.now() + window());
          break;
        case 1: {
          const SimTime next = sim_.next_event_time();
          note(kNextEvent, 0, next);
          sim_.run_window(next + window());
          break;
        }
        case 2:
          sim_.run();  // until a handler calls stop() or the queue drains
          break;
        case 3:
          note(kNextEvent, 1, sim_.next_event_time());
          break;
        default:  // reserved after the last loop returned
          reserve();
          break;
      }
      note(kAfterRun, round, sim_.now());
    }
    budget_ = 0;
    sim_.run();
    note(kEnd, static_cast<long>(sim_.events_processed()), sim_.now());
    return std::move(log_);
  }

  /// The most lanes the kernel held at any record.
  std::size_t max_lanes() const { return max_lanes_; }

 private:
  using Handle = decltype(std::declval<Sim&>().timer_at(0.0, [] {}));
  struct Timer {
    Handle h;
    SimTime due;
  };
  static constexpr bool kKernel = std::is_same_v<Sim, sim::Simulator>;
  // A reserved key's owner, like a port: it holds at most one key whose
  // event has not passed.
  struct Channel {
    bool used = false;
    bool inserted = false;  ///< the key was made an event
    SimTime d = 0.0;        ///< the delay it was reserved with
    std::uint32_t id = sim::Simulator::kNoDeferral;
    sim::Simulator::Key key{0.0, 0};
    ReferenceSim::Handle h;
  };
  static constexpr int kChannels = 4;
  // Lane sources: each memoizes its lane per delay, as a Port does.
  static constexpr int kLaneSources = 3;
  static constexpr SimTime kLaneDelays[] = {0.25, 0.5, 1.0, 1.5};
  static constexpr int kLaneDelayCount = 4;
  // The burst lane's key: a delay no other source uses.
  static constexpr SimTime kBurstDelay = -1.0;
  // A one-pointer capture, the smallest an arena slot holds.
  struct Rec {
    Script* owner;
    long id;
  };

  std::uint64_t next_random() {  // splitmix64
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  int pick(int n) { return static_cast<int>(next_random() % n); }

  // Delays on a coarse dyadic grid, so equal times are common and exact;
  // a few are negative (past schedules, which the kernel clamps).
  SimTime delay() {
    static constexpr SimTime kGrid[] = {0.0, 0.0,  0.25, 0.5,  0.5,
                                        1.0, 1.5,  2.0,  4.0,  -0.25};
    return kGrid[pick(10)];
  }
  SimTime window() { return 0.25 * pick(8); }

  void note(int kind, long id, SimTime t) {
    if constexpr (kKernel) {
      EXPECT_LE(sim_.queue_size(), sim_.pending_events());
      max_lanes_ = std::max(max_lanes_, sim_.lanes());
    }
    log_.emplace_back(kind, id, t, sim_.pending_events(),
                      sim_.timers_cancelled(), sim_.past_schedule_clamps(),
                      passed_bits(), sim_.events_processed());
  }

  bool passed(const Channel& c) const {
    if constexpr (kKernel) {
      return sim_.passed(c.key);
    } else {
      return sim_.passed(c.h);
    }
  }
  unsigned passed_bits() const {
    unsigned bits = 0;
    for (int i = 0; i < kChannels; ++i) {
      if (channels_[i].used && passed(channels_[i])) bits |= 1u << i;
    }
    return bits;
  }

  // Whether some reserved key has not passed yet.
  bool reserved() const { return passed_bits() != used_bits_; }

  // Reserves keys on channels whose previous key has passed. Outside
  // the budget: once the events drain, the rounds go on with reserved
  // keys alone, which is where they decide the horizon and the clock.
  void reserve() {
    for (int i = 0; i < kChannels; ++i) {
      Channel& c = channels_[i];
      if ((c.used && !passed(c)) || pick(2) == 0) continue;
      c.d = delay();
      const SimTime t = sim_.now() + c.d;
      if constexpr (kKernel) {
        c.key = sim_.reserve_key(t);
        sim_.defer(c.id, c.key);
      } else {
        c.h = sim_.reserve(t);
      }
      c.used = true;
      c.inserted = false;
      used_bits_ |= 1u << i;
      note(kReserve, i, t);
    }
  }

  // Makes a channel's reserved key an event, through the lane of its
  // delay: usually behind later keys there, so it falls back to the
  // heap.
  void insert_reserved() {
    Channel& c = channels_[pick(kChannels)];
    if (!c.used || c.inserted || passed(c) || !spend()) return;
    const long id = next_id_++;
    c.inserted = true;
    note(kInsert, id, c.d);
    if constexpr (kKernel) {
      sim_.lane_at(sim_.lane(c.d, sim::Simulator::kNoLane), c.key,
                   [this, id] { on_fire(id); });
    } else {
      sim_.insert(c.h, [this, id] { on_fire(id); });
    }
  }

  // An event at now + d through a lane: one of a few delays shared by
  // the sources, or one of 64 (more than the lane cap).
  void schedule_lane() {
    if (!spend()) return;
    const long id = next_id_++;
    const int src = pick(kLaneSources);
    const bool shared = pick(4) != 0;
    const int k = shared ? pick(kLaneDelayCount) : pick(64);
    const SimTime d = shared ? kLaneDelays[k] : 0.25 + k / 64.0;
    const SimTime t = sim_.now() + d;
    if constexpr (kKernel) {
      sim::Simulator::LaneId& hint =
          shared ? hints_[src][k] : wide_hints_[src];
      hint = sim_.lane(d, hint);
      sim_.lane_at(hint, sim_.reserve_key(t), [this, id] { on_fire(id); });
    } else {
      sim_.at(t, [this, id] { on_fire(id); });
    }
  }

  // A sorted burst through one lane, as parsim schedules a mailbox
  // batch: times ascend within the burst, but an earlier burst's
  // leftovers in the lane, a few keys drawn out of order, and past
  // times (clamped) make some keys order before the lane's back, so
  // they take the heap.
  void schedule_burst() {
    SimTime times[24];
    for (SimTime& t : times) t = sim_.now() + delay();
    std::sort(std::begin(times), std::end(times));
    for (SimTime& t : times) {
      if (pick(6) == 0) t = sim_.now() + delay();
    }
    for (const SimTime t : times) {
      if (!spend()) return;
      const long id = next_id_++;
      if constexpr (kKernel) {
        burst_hint_ = sim_.lane(kBurstDelay, burst_hint_);
        sim_.lane_at(burst_hint_, sim_.reserve_key(t),
                     [this, id] { on_fire(id); });
      } else {
        sim_.at(t, [this, id] { on_fire(id); });
      }
    }
  }

  bool spend() {
    if (budget_ <= 0) return false;
    --budget_;
    return true;
  }

  void schedule_plain() {
    if (!spend()) return;
    const long id = next_id_++;
    if (pick(2) == 0) {
      sim_.at(sim_.now() + delay(), [this, id] { on_fire(id); });
    } else {
      recs_.push_back(Rec{this, id});
      Rec* rec = &recs_.back();
      sim_.after(delay(), [rec] { rec->owner->on_fire(rec->id); });
    }
  }

  void new_timer() {
    if (!spend()) return;
    const std::size_t k = timers_.size();
    const SimTime due = sim_.now() + delay();
    timers_.push_back(Timer{
        sim_.timer_at(due, [this, k] { on_timer(k); }), due});
  }

  Timer& any_timer() { return timers_[pick(static_cast<int>(timers_.size()))]; }

  SimTime moved(const Timer& t) {
    switch (pick(3)) {
      case 0:
        return t.due - 0.25 * (1 + pick(4));  // earlier (may be past)
      case 1:
        return t.due + 0.25 * (1 + pick(4));  // later
      default:
        return t.due;  // equal time, fresh seq
    }
  }

  void reschedule(Timer& t, SimTime due) {
    note(kReschedule, sim_.reschedule(t.h, due) ? 1 : 0, due);
    t.due = due < sim_.now() ? sim_.now() : due;
  }

  void act() {
    for (int n = pick(4); n > 0 && budget_ > 0; --n) {
      switch (pick(14)) {
        case 0:
        case 1:
          schedule_plain();
          break;
        case 2:
          new_timer();
          break;
        case 3: {
          Timer& t = any_timer();
          note(kCancel, sim_.cancel(t.h) ? 1 : 0, sim_.now());
          break;
        }
        case 4:
        case 5: {
          Timer& t = any_timer();
          reschedule(t, moved(t));
          break;
        }
        case 6: {  // cancel right after a lazy (later) reschedule
          Timer& t = any_timer();
          reschedule(t, t.due + 1.0);
          note(kCancel, sim_.cancel(t.h) ? 1 : 0, sim_.now());
          break;
        }
        case 7:
          schedule_burst();
          break;
        case 8:
          reserve();
          break;
        case 9:
        case 10:
        case 11:
          schedule_lane();
          break;
        case 12:
          insert_reserved();
          break;
        default:
          if (pick(4) == 0) sim_.stop();
          break;
      }
    }
  }

  void on_fire(long id) {
    note(kFire, id, sim_.now());
    act();
  }

  void on_timer(std::size_t k) {
    note(kTimerFire, static_cast<long>(k), sim_.now());
    if (pick(3) == 0) {
      // The firing timer is no longer pending: rescheduling it from its
      // own handler fails and the handler arms a new one, like TCP's RTO.
      const bool ok = sim_.reschedule(timers_[k].h, sim_.now() + delay());
      note(kOwnReschedule, ok ? 1 : 0, sim_.now());
      if (!ok && spend()) {
        const SimTime due = sim_.now() + 1.0;
        timers_[k] = Timer{sim_.timer_at(due, [this, k] { on_timer(k); }), due};
      }
    }
    act();
  }

  Sim sim_;
  std::uint64_t state_;
  int budget_ = 0;
  long next_id_ = 0;
  std::vector<Timer> timers_;
  Channel channels_[kChannels];
  unsigned used_bits_ = 0;
  // Zero to start: hints lane() has not given, which it must check.
  sim::Simulator::LaneId hints_[kLaneSources][kLaneDelayCount] = {};
  sim::Simulator::LaneId wide_hints_[kLaneSources] = {};
  sim::Simulator::LaneId burst_hint_ = 0;
  std::size_t max_lanes_ = 0;
  std::deque<Rec> recs_;
  std::vector<Record> log_;
};

TEST(KernelOrder, MatchesReferenceModelOnRandomScripts) {
  std::size_t max_lanes = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(seed);
    const std::vector<Record> want = Script<ReferenceSim>(seed).run(1200);
    Script<sim::Simulator> kernel(seed);
    const std::vector<Record> got = kernel.run(1200);
    ASSERT_GT(want.size(), 1000u);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i], want[i]) << "first divergence at record " << i;
    }
    max_lanes = std::max(max_lanes, kernel.max_lanes());
  }
  // The 64 wide delays fill the lane table; it never grows past the cap.
  EXPECT_EQ(max_lanes, sim::Simulator::kMaxLanes);
}

TEST(KernelOrder, LazyRescheduleFiresAtTheNewKey) {
  sim::Simulator s;
  std::vector<int> order;
  sim::TimerHandle a = s.timer_at(1.0, [&] { order.push_back(0); });
  s.at(2.0, [&] { order.push_back(1); });
  s.at(3.0, [&] { order.push_back(2); });
  // Later: the heap keeps the stale key 1.0 until it reaches the top.
  ASSERT_TRUE(s.reschedule(a, 3.0));
  EXPECT_EQ(s.queue_size(), 3u);
  EXPECT_EQ(s.timers_cancelled(), 1u);
  // The stale top is re-keyed before it can win the horizon query.
  EXPECT_EQ(s.next_event_time(), 2.0);
  s.run();
  // Equal time: the restart took a fresh seq after the 3.0 event.
  EXPECT_EQ(order, (std::vector<int>{1, 2, 0}));
  EXPECT_EQ(s.now(), 3.0);
  EXPECT_EQ(s.events_processed(), 3u);
}

TEST(KernelOrder, EarlierRescheduleOfAStaleTimerSiftsUp) {
  sim::Simulator s;
  std::vector<int> order;
  sim::TimerHandle a = s.timer_at(1.0, [&] { order.push_back(0); });
  s.timer_at(1.5, [&] { order.push_back(1); });
  ASSERT_TRUE(s.reschedule(a, 5.0));  // lazy
  ASSERT_TRUE(s.reschedule(a, 0.5));  // earlier than the stale key
  s.run_until(0.75);
  EXPECT_EQ(order, (std::vector<int>{0}));
  EXPECT_FALSE(s.reschedule(a, 2.0));  // fired: the handle went stale
  EXPECT_EQ(a.slot, sim::TimerHandle::kInvalid);
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_EQ(s.timers_cancelled(), 2u);
}

TEST(KernelOrder, CancelAfterLazyRescheduleRemovesTheTimer) {
  sim::Simulator s;
  bool fired = false;
  sim::TimerHandle a = s.timer_at(1.0, [&] { fired = true; });
  ASSERT_TRUE(s.reschedule(a, 2.0));
  ASSERT_TRUE(s.cancel(a));
  EXPECT_EQ(s.queue_size(), 0u);
  EXPECT_TRUE(s.empty());
  s.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(s.timers_cancelled(), 2u);
}

TEST(KernelOrder, PassedFollowsTheLastRunLoop) {
  sim::Simulator s;
  std::uint32_t id[4] = {sim::Simulator::kNoDeferral, sim::Simulator::kNoDeferral,
                         sim::Simulator::kNoDeferral, sim::Simulator::kNoDeferral};
  const auto reserve = [&](int i, SimTime t) {
    const sim::Simulator::Key k = s.reserve_key(t);
    s.defer(id[i], k);
    return k;
  };
  const sim::Simulator::Key a = reserve(0, 1.0);
  EXPECT_FALSE(s.passed(a));  // no loop has run
  EXPECT_EQ(s.next_event_time(), 1.0);
  s.run_until(1.0);  // time <= 1.0
  EXPECT_TRUE(s.passed(a));
  const sim::Simulator::Key b = reserve(0, 1.0);
  EXPECT_FALSE(s.passed(b));  // reserved after the loop returned
  s.run_window(2.0);          // time < 2.0
  EXPECT_TRUE(s.passed(b));
  EXPECT_EQ(s.now(), 1.0);
  const sim::Simulator::Key c = reserve(0, 2.0);
  s.run_window(2.0);
  EXPECT_FALSE(s.passed(c));
  EXPECT_EQ(s.next_event_time(), 2.0);
  // A handler at 3.0 stops the loop: keys ordered before it have
  // passed, keys after it (same time, later seq) have not.
  const sim::Simulator::Key d = reserve(1, 3.0);
  s.at(3.0, [&] {
    EXPECT_TRUE(s.passed(d));
    reserve(2, 3.0);
    s.stop();
  });
  const sim::Simulator::Key e = reserve(3, 3.0);
  s.run_until(10.0);
  EXPECT_EQ(s.now(), 3.0);
  EXPECT_TRUE(s.passed(c));
  EXPECT_TRUE(s.passed(d));
  EXPECT_FALSE(s.passed(e));
  EXPECT_FALSE(s.empty());
  EXPECT_EQ(s.queue_size(), 0u);
  EXPECT_EQ(s.next_event_time(), 3.0);
  s.run();  // drained: every key passed, the clock at the latest
  EXPECT_TRUE(s.passed(e));
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.now(), 3.0);
  EXPECT_EQ(s.events_processed(), 1u);
  EXPECT_EQ(s.next_event_time(), std::numeric_limits<SimTime>::infinity());
}

// A stop() at 1.0 with more events pending at 1.0, then a window that
// ends at 1.0 and a run_until into the past: neither runs anything,
// and what had passed stays passed.
TEST(KernelOrder, PassedKeysStayPassedAfterAShorterLoop) {
  sim::Simulator s;
  std::uint32_t id = sim::Simulator::kNoDeferral;
  const sim::Simulator::Key k = s.reserve_key(1.0);
  s.defer(id, k);
  s.at(1.0, [&] { s.stop(); });
  s.at(1.0, [] {});
  s.run();
  EXPECT_TRUE(s.passed(k));
  EXPECT_EQ(s.next_event_time(), 1.0);
  s.run_window(1.0);
  EXPECT_TRUE(s.passed(k));
  s.run_until(0.5);
  EXPECT_TRUE(s.passed(k));
  EXPECT_EQ(s.now(), 1.0);
  EXPECT_EQ(s.events_processed(), 1u);
  // A key reserved now, at the clock, is still ahead.
  const sim::Simulator::Key later = s.reserve_key(1.0);
  EXPECT_FALSE(s.passed(later));
  s.run();
  EXPECT_TRUE(s.passed(later));
  EXPECT_EQ(s.events_processed(), 2u);
}

}  // namespace
}  // namespace dtdctcp
