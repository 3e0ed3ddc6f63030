#include "sim/simulator.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "sim/port.h"

namespace dtdctcp::sim {

void EventClosure::tx_trampoline(void* payload) {
  (*std::launder(reinterpret_cast<Port**>(payload)))->on_transmit_complete();
}

namespace {

// 4-ary heap sifts shared by the plain-event and the timer heap.
// `place(e, pos)` stores an entry at a heap position (the timer heap
// also mirrors the position into the entry's arena slot).
template <typename E, typename Less, typename Place>
void heap_sift_up(std::vector<E>& h, std::uint32_t pos, Less less,
                  Place place) {
  const E e = h[pos];
  while (pos > 0) {
    const std::uint32_t parent = (pos - 1) >> 2;
    if (!less(e, h[parent])) break;
    place(h[parent], pos);
    pos = parent;
  }
  place(e, pos);
}

template <typename E, typename Less, typename Place>
void heap_sift_down(std::vector<E>& h, std::uint32_t pos, Less less,
                    Place place) {
  const E e = h[pos];
  const auto n = static_cast<std::uint32_t>(h.size());
  for (;;) {
    const std::uint32_t first = (pos << 2) + 1;
    if (first >= n) break;
    std::uint32_t best = first;
    const std::uint32_t last = first + 4 < n ? first + 4 : n;
    for (std::uint32_t c = first + 1; c < last; ++c) {
      if (less(h[c], h[best])) best = c;
    }
    if (!less(h[best], e)) break;
    place(h[best], pos);
    pos = best;
  }
  place(e, pos);
}

}  // namespace

Simulator::~Simulator() {
  // Slots are placement-constructed into raw chunk storage; destroy the
  // ones that were ever handed out (free-listed slots hold an empty
  // closure, queued ones destroy their pending payload here).
  for (std::uint32_t id = 0; id < slot_count_; ++id) slot_ref(id).~Slot();
}

std::uint32_t Simulator::acquire_slot() {
  if (free_head_ != TimerHandle::kInvalid) {
    const std::uint32_t slot = free_head_;
    free_head_ = slot_ref(slot).pos;
    return slot;
  }
  if ((slot_count_ & kChunkMask) == 0) {
    chunks_.push_back(
        std::make_unique_for_overwrite<std::byte[]>(kChunkSize * sizeof(Slot)));
  }
  const std::uint32_t slot = slot_count_++;
  ::new (static_cast<void*>(&slot_ref(slot))) Slot();
  return slot;
}

void Simulator::release_slot(std::uint32_t slot) {
  Slot& s = slot_ref(slot);
  s.fn.reset();
  ++s.gen;  // stale handles to this slot stop matching
  s.pos = free_head_;
  free_head_ = slot;
}

// Plain events never touch the arena while sifting.
void Simulator::sift_up_plain(std::uint32_t pos) {
  heap_sift_up(heap_, pos, earlier<HeapEntry, HeapEntry>,
               [this](const HeapEntry& e, std::uint32_t p) { heap_[p] = e; });
}

void Simulator::sift_down_plain(std::uint32_t pos) {
  heap_sift_down(heap_, pos, earlier<HeapEntry, HeapEntry>,
                 [this](const HeapEntry& e, std::uint32_t p) { heap_[p] = e; });
}

void Simulator::push_plain(const HeapEntry& e) {
  heap_.push_back(e);
  sift_up_plain(static_cast<std::uint32_t>(heap_.size() - 1));
}

// Looks a delay up in the lane table. Once the table is full, a new
// delay takes over an empty lane: it has no head, and the callers'
// stale hints fail the delay check in lane().
Simulator::LaneId Simulator::find_lane(SimTime d) {
  if (std::isnan(d)) return kNoLane;  // would match no lane, ever
  LaneId spare = kNoLane;
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    if (lanes_[i].delay == d) return static_cast<LaneId>(i);
    if (spare == kNoLane && lanes_[i].q.empty()) {
      spare = static_cast<LaneId>(i);
    }
  }
  if (lanes_.size() < kMaxLanes) {
    lanes_.push_back(Lane{d, {}});
    return static_cast<LaneId>(lanes_.size() - 1);
  }
  if (spare != kNoLane) lanes_[spare].delay = d;
  return spare;
}

// The lane stays sorted: `e` joins it only behind an earlier key, and
// an empty lane gets a head with `e`'s key. Anything else is a plain
// heap entry.
void Simulator::push_keyed(LaneId lane, const HeapEntry& e) {
  if (lane < lanes_.size()) {
    util::RingBuffer<HeapEntry>& q = lanes_[lane].q;
    if (q.empty()) {
      q.push_back(e);
      insert_head(e.time, e.seq, lane);
      return;
    }
    if (earlier(q.back(), e)) {
      q.push_back(e);
      return;
    }
  }
  push_plain(e);
}

// A new head is at now + the lane's delay, so it usually belongs near
// the back: scan from there.
void Simulator::insert_head(SimTime time, std::uint32_t seq,
                            std::uint32_t lane) {
  const LaneHead h{time, seq, lane};
  heads_.push_back(h);
  std::size_t i = heads_.size() - 1;
  for (; i > 0 && earlier(h, heads_[i - 1]); --i) heads_[i] = heads_[i - 1];
  heads_[i] = h;
}

// Pops the event at the front of the earliest head's lane. The lane's
// next key slides forward from the front to its place (the events of a
// busy lane are close together, so the slide is short), or the head is
// erased when the lane is drained.
Simulator::HeapEntry Simulator::take_lane_head() {
  const std::uint32_t lane = heads_.front().lane;
  util::RingBuffer<HeapEntry>& q = lanes_[lane].q;
  const HeapEntry e = q.front();
  q.pop_front();
  if (q.empty()) {
    heads_.erase(heads_.begin());
    return e;
  }
  const LaneHead h{q.front().time, q.front().seq, lane};
  std::size_t i = 1;
  for (; i < heads_.size() && earlier(heads_[i], h); ++i) {
    heads_[i - 1] = heads_[i];
  }
  heads_[i - 1] = h;
  return e;
}

void Simulator::sift_up_timer(std::uint32_t pos) {
  heap_sift_up(timers_, pos, earlier<TimerEntry, TimerEntry>,
               [this](const TimerEntry& e, std::uint32_t p) {
                 timers_[p] = e;
                 slot_ref(e.slot & ~kStaleBit).pos = p;
               });
}

void Simulator::sift_down_timer(std::uint32_t pos) {
  heap_sift_down(timers_, pos, earlier<TimerEntry, TimerEntry>,
                 [this](const TimerEntry& e, std::uint32_t p) {
                   timers_[p] = e;
                   slot_ref(e.slot & ~kStaleBit).pos = p;
                 });
}

void Simulator::push_timer(TimerEntry e) {
  timers_.push_back(e);
  sift_up_timer(static_cast<std::uint32_t>(timers_.size() - 1));
}

void Simulator::remove_timer(std::uint32_t pos) {
  const TimerEntry back = timers_.back();
  timers_.pop_back();
  if (pos == timers_.size()) return;  // removed the tail entry
  timers_[pos] = back;
  slot_ref(back.slot & ~kStaleBit).pos = pos;
  if (pos > 0 && earlier(back, timers_[(pos - 1) >> 2])) {
    sift_up_timer(pos);
  } else {
    sift_down_timer(pos);
  }
}

// A stale top's heap key is only a lower bound: load the true key from
// its slot and sift it down until the top is fresh. The fresh top's key
// is then <= every heap key, which bounds every true key from below, so
// it is the earliest timer.
void Simulator::settle_timer_top() {
  while (timers_.front().slot & kStaleBit) {
    const std::uint32_t slot = timers_.front().slot & ~kStaleBit;
    const Slot& s = slot_ref(slot);
    timers_.front() = TimerEntry{s.due, s.due_seq, slot};
    sift_down_timer(0);
  }
}

bool Simulator::cancel(TimerHandle& h) {
  const TimerHandle old = h;
  h = TimerHandle{};
  if (!live(old)) return false;  // fired, already cancelled, or default
  const std::uint32_t pos = slot_ref(old.slot).pos;
  release_slot(old.slot);
  remove_timer(pos);
  ++cancelled_;
  return true;
}

bool Simulator::reschedule(TimerHandle& h, SimTime t) {
  if (!live(h)) {
    h = TimerHandle{};
    return false;
  }
  const TimerEntry key{clamp_time(t), next_seq_++, h.slot};
  ++cancelled_;
  Slot& s = slot_ref(h.slot);
  TimerEntry& e = timers_[s.pos];
  if (earlier(key, e)) {
    // Earlier than the entry's (lower-bound) key: move it up now.
    e = key;
    sift_up_timer(s.pos);
  } else {
    // Later (the common ACK-driven restart): the heap keeps the old key
    // until the entry reaches the top.
    s.due = key.time;
    s.due_seq = key.seq;
    e.slot = h.slot | kStaleBit;
  }
  return true;
}

// Runs one event. The entry is taken by value: in-entry payloads run
// straight out of the copy; arena payloads run *in place* — slot
// addresses are stable (chunked arena), so nothing is moved on the hot
// path.
void Simulator::fire(HeapEntry e) {
  if (e.slot == kInlineSlot) {
    now_ = e.time;
    cur_seq_ = e.seq;
    ++processed_;
    e.fn(e.payload);
    return;
  }
  fire_slot(e.time, e.seq, e.slot);
}

// For arena events the generation is bumped before the handler runs (a
// handler cancelling or rescheduling its own, already-firing timer must
// be a no-op), but the slot only joins the free list afterwards, so
// events the handler schedules cannot reuse the storage of the payload
// that is still executing.
void Simulator::fire_slot(SimTime time, std::uint32_t seq,
                          std::uint32_t slot) {
  now_ = time;
  cur_seq_ = seq;
  ++processed_;
  run_slot(slot);
}

void Simulator::run_slot(std::uint32_t slot) {
  Slot& s = slot_ref(slot);
  ++s.gen;
  s.fn.invoke();
  s.fn.reset();
  s.pos = free_head_;
  free_head_ = slot;
}

// Settles the timer heap, then names the queue whose front is the
// earliest event.
Simulator::Next Simulator::next_source() {
  Next next{Source::kNone, std::numeric_limits<SimTime>::infinity(), 0};
  const auto consider = [&next](Source src, const auto& front) {
    if (next.src == Source::kNone || earlier(front, next)) {
      next = Next{src, front.time, front.seq};
    }
  };
  if (!heap_.empty()) consider(Source::kHeap, heap_.front());
  if (!heads_.empty()) consider(Source::kLane, heads_.front());
  if (!timers_.empty()) {
    settle_timer_top();
    consider(Source::kTimer, timers_.front());
  }
  return next;
}

void Simulator::step(Source src) {
  switch (src) {
    case Source::kNone:
      return;
    case Source::kHeap: {
      const HeapEntry top = heap_.front();
      heap_.front() = heap_.back();
      heap_.pop_back();
      if (!heap_.empty()) sift_down_plain(0);
      fire(top);
      return;
    }
    case Source::kLane:
      fire(take_lane_head());
      return;
    case Source::kTimer: {
      const TimerEntry top = timers_.front();
      remove_timer(0);
      fire_slot(top.time, top.seq, top.slot);
      return;
    }
  }
}

// Leaves a run loop in which every key before `bound` passed (the
// stopping event's key after stop()), retires those deferred keys and
// fixes what passed() reports until the next loop. The keys that have
// passed are a prefix of (time, seq) order: each fired event or retired
// key is at or behind the clock, and a key reserved from here on orders
// at or after (now, next seq). So passed() tests keys against one bound,
// the lower of the two, and that bound never moves back: a loop that
// stops short of an earlier one (run_window(t) after a stop at t)
// keeps what had passed.
void Simulator::end_loop(Key bound) {
  in_loop_ = false;
  if (stopped_) bound = Key{now_, cur_seq_};
  retire_deferred(bound);
  const Key next{now_, next_seq_};
  const Key frontier = earlier(bound, next) ? bound : next;
  if (earlier(passed_, frontier)) passed_ = frontier;
}

// Forgets the deferred keys before `bound` (they have passed) and
// returns the earliest one left (+infinity if none). Each passed key
// stands for an event that would have run, so the clock moves up to
// the latest of them: now() between loops is what it would be had
// every key been scheduled.
SimTime Simulator::retire_deferred(Key bound) {
  SimTime earliest = std::numeric_limits<SimTime>::infinity();
  for (std::size_t i = 0; i < watched_.size();) {
    Deferred& d = deferred_[watched_[i]];
    if (earlier(d.key, bound)) {
      if (now_ < d.key.time) now_ = d.key.time;
      d.watched = false;
      watched_[i] = watched_.back();
      watched_.pop_back();
      continue;
    }
    earliest = std::min(earliest, d.key.time);
    ++i;
  }
  return earliest;
}

bool Simulator::empty() const {
  if (!heap_.empty() || !heads_.empty() || !timers_.empty()) return false;
  for (const std::uint32_t id : watched_) {
    if (!passed(deferred_[id].key)) return false;
  }
  return true;
}

void Simulator::run() {
  stopped_ = false;
  in_loop_ = true;
  while (!stopped_) {
    const Next next = next_source();
    if (next.src == Source::kNone) break;
    step(next.src);
  }
  end_loop(Key{std::numeric_limits<SimTime>::infinity(), next_seq_});
}

SimTime Simulator::next_event_time() {
  const SimTime queued = next_source().time;
  return std::min(queued, retire_deferred(passed_bound()));
}

void Simulator::run_window(SimTime end) {
  stopped_ = false;
  in_loop_ = true;
  while (!stopped_) {
    const Next next = next_source();
    if (next.src == Source::kNone || next.time >= end) break;
    step(next.src);
  }
  // time < end is time <= the double just below end.
  end_loop(Key{std::nextafter(end, -std::numeric_limits<SimTime>::infinity()),
               next_seq_});
}

void Simulator::run_until(SimTime t) {
  stopped_ = false;
  in_loop_ = true;
  while (!stopped_) {
    const Next next = next_source();
    if (next.src == Source::kNone || next.time > t) break;
    step(next.src);
  }
  if (!stopped_ && now_ < t) now_ = t;
  end_loop(Key{t, next_seq_});
}

}  // namespace dtdctcp::sim
