// Discrete-event simulation kernel.
//
// Events are ordered by (time, insertion-sequence): events at equal
// times run in the order they were scheduled, which keeps packet
// pipelines deterministic. Because that order is a *total* order, the
// kernel is free to organise its queue however it likes — every valid
// arrangement pops in exactly the same sequence. It exploits that
// freedom in four ways, and each run step fires the earliest of three
// queue fronts (plain heap, lane heads, timer heap):
//
//   * Cancellable timers live in their own 4-ary heap of 16-byte
//     entries, apart from the 4-ary heap of 32-byte entries that holds
//     plain events. `reschedule` moves a live timer in place; a later
//     deadline only records the new key in the timer's slot, and the
//     stale heap entry is re-keyed when it reaches the top. A timer
//     restarted on every ACK therefore costs no sift per restart.
//   * Delay lanes. A Port schedules each packet arrival at now + d and
//     each transmitter release at now + d', and d takes a handful of
//     values per simulator (one per link speed, propagation delay and
//     packet size). Floating-point addition is monotone and the clock
//     never runs back, so for one fixed d the events arrive in exact
//     (time, seq) order, from every port alike. A lane is a FIFO of
//     such events. The keys of the non-empty lanes' fronts sit in a
//     small array sorted by (time, seq), apart from the plain heap: a
//     lane that was empty inserts its head by a scan from the back,
//     and when a head fires the lane's next key slides forward to its
//     place. An event joins a lane only if it orders after the lane's
//     back; otherwise (a release inserted late, a full lane table) it
//     takes the plain heap like any event. Lanes are capped
//     (kMaxLanes), so the head array stays a few cache lines; a new
//     delay takes over an empty lane once the cap is reached. Any
//     caller with keys in ascending order can use a lane; parsim feeds
//     each shard's mailbox imports through one.
//   * A key can be reserved without scheduling anything (reserve_key).
//     A Port reserves the key of each transmitter release and inserts
//     it only if a packet queues behind the transmission; a release
//     that would find an empty queue is never scheduled, and the port
//     settles it when next touched, asking passed() whether it would
//     already have fired. Such keys still bound next_event_time(), so
//     parsim windows are unchanged. Every event that does run keeps the
//     key it always had; only events_processed() falls.
//   * Payloads live out-of-line in a chunked, recycled slot arena with
//     stable addresses (the transmitter release, one Port pointer,
//     rides in the queue entry instead), so the steady-state hot path
//     performs no heap allocation and payloads never move once placed.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/packet.h"
#include "util/ring_buffer.h"
#include "util/units.h"

namespace dtdctcp::sim {

class Port;
class Simulator;

/// Identifies a pending cancellable timer. A handle is only a claim
/// ticket: after the timer fires (or is cancelled) the handle goes stale
/// and `Simulator::cancel` on it is a harmless no-op, so holders never
/// need to track liveness themselves.
struct TimerHandle {
  static constexpr std::uint32_t kInvalid = 0xffffffffu;
  std::uint32_t slot = kInvalid;
  std::uint32_t gen = 0;
};

/// Move-only type-erased `void()` closure with fixed inline storage.
///
/// The inline capture budget is pinned to the packet hot path: delivering
/// a packet to a peer node (a `Node*` plus a `Packet` by value) must fit,
/// so per-hop events never allocate. Larger captures fall back to the
/// heap — acceptable for setup/teardown closures, never for per-packet
/// ones (hot call sites static_assert `kFitsInline`).
class EventClosure {
 public:
  static constexpr std::size_t kInlineBytes = sizeof(void*) + sizeof(Packet);

  template <typename F>
  static constexpr bool kFitsInline =
      sizeof(F) <= kInlineBytes &&
      alignof(F) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<F>;

  EventClosure() = default;

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, EventClosure> &&
                                        std::is_invocable_v<D&>>>
  EventClosure(F&& fn) {  // NOLINT(google-explicit-constructor)
    emplace(std::forward<F>(fn));
  }

  EventClosure(EventClosure&& other) noexcept { move_from(other); }
  EventClosure& operator=(EventClosure&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  EventClosure(const EventClosure&) = delete;
  EventClosure& operator=(const EventClosure&) = delete;
  ~EventClosure() { reset(); }

  /// Constructs a callable in place (the closure must be empty).
  template <typename F>
  void emplace(F&& fn) {
    using D = std::decay_t<F>;
    assert(ops_ == nullptr);
    if constexpr (kFitsInline<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(fn));
      ops_ = &InlineOps<D>::kOps;
    } else {
      D* p = new D(std::forward<F>(fn));
      std::memcpy(buf_, &p, sizeof p);
      ops_ = &HeapOps<D>::kOps;
    }
  }

  /// In-entry trampoline for the transmitter-release event (it lives
  /// here so Port can grant access with a single friend declaration).
  static void tx_trampoline(void* payload);

  void reset() {
    // Trivially-destructible inline captures register a null destroy
    // hook; skipping the indirect call keeps slot recycling cheap.
    if (ops_ != nullptr && ops_->destroy != nullptr) ops_->destroy(buf_);
    ops_ = nullptr;
  }

  explicit operator bool() const { return ops_ != nullptr; }

  /// Runs the callable (it stays constructed; callers reset() after).
  void invoke() {
    if (ops_ != nullptr) ops_->invoke(buf_);
  }

 private:
  struct Ops {
    void (*invoke)(void* buf);
    void (*relocate)(void* src, void* dst) noexcept;  // move-construct + destroy src
    void (*destroy)(void* buf) noexcept;              // null when trivial
  };

  template <typename D>
  struct InlineOps {
    static void invoke(void* buf) { (*static_cast<D*>(buf))(); }
    static void relocate(void* src, void* dst) noexcept {
      ::new (dst) D(std::move(*static_cast<D*>(src)));
      static_cast<D*>(src)->~D();
    }
    static void destroy(void* buf) noexcept { static_cast<D*>(buf)->~D(); }
    static constexpr Ops kOps = {
        &invoke, &relocate,
        std::is_trivially_destructible_v<D> ? nullptr : &destroy};
  };

  template <typename D>
  struct HeapOps {
    static D* get(void* buf) {
      D* p;
      std::memcpy(&p, buf, sizeof p);
      return p;
    }
    static void invoke(void* buf) { (*get(buf))(); }
    static void relocate(void* src, void* dst) noexcept {
      std::memcpy(dst, src, sizeof(D*));
    }
    static void destroy(void* buf) noexcept { delete get(buf); }
    static constexpr Ops kOps = {&invoke, &relocate, &destroy};
  };

  void move_from(EventClosure& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) ops_->relocate(other.buf_, buf_);
    other.ops_ = nullptr;
  }

  // Dispatch header first: for small captures the header and the capture
  // share a cache line, so firing + recycling touches one line per slot.
  const Ops* ops_ = nullptr;
  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
};

static_assert(sizeof(Packet) + sizeof(void*) <= EventClosure::kInlineBytes,
              "the port packet-delivery payload must fit inline");

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;
  Simulator(Simulator&& other) noexcept
      : now_(other.now_),
        next_seq_(other.next_seq_),
        processed_(other.processed_),
        cancelled_(other.cancelled_),
        past_clamps_(other.past_clamps_),
        cur_seq_(other.cur_seq_),
        passed_(other.passed_),
        stopped_(other.stopped_),
        in_loop_(other.in_loop_),
        heap_(std::move(other.heap_)),
        timers_(std::move(other.timers_)),
        chunks_(std::move(other.chunks_)),
        slot_count_(other.slot_count_),
        free_head_(other.free_head_),
        deferred_(std::move(other.deferred_)),
        watched_(std::move(other.watched_)),
        lanes_(std::move(other.lanes_)),
        heads_(std::move(other.heads_)) {
    // The source must not destroy the slots it no longer owns.
    other.slot_count_ = 0;
    other.free_head_ = TimerHandle::kInvalid;
  }
  Simulator& operator=(Simulator&& other) noexcept {
    if (this != &other) {
      this->~Simulator();
      ::new (static_cast<void*>(this)) Simulator(std::move(other));
    }
    return *this;
  }
  ~Simulator();

  /// Current simulation time in seconds.
  SimTime now() const { return now_; }

  /// Schedules `fn` at absolute time `t`. Scheduling in the past is a
  /// bug; the kernel clamps `t` to now() — keeping the clock monotonic
  /// in every build mode — and counts the violation (see
  /// `past_schedule_clamps`).
  template <typename F>
  void at(SimTime t, F&& fn) {
    lane_at(kNoLane, reserve_key(t), std::forward<F>(fn));
  }

  /// Schedules `fn` after a delay of `dt` seconds (dt >= 0).
  template <typename F>
  void after(SimTime dt, F&& fn) {
    at(now_ + dt, std::forward<F>(fn));
  }

  /// Like `at`/`after`, but returns a handle the caller can `cancel`.
  template <typename F>
  TimerHandle timer_at(SimTime t, F&& fn) {
    const std::uint32_t slot = acquire_slot();
    Slot& s = slot_ref(slot);
    s.fn.emplace(std::forward<F>(fn));
    push_timer(TimerEntry{clamp_time(t), next_seq_++, slot});
    return TimerHandle{slot, s.gen};
  }
  template <typename F>
  TimerHandle timer_after(SimTime dt, F&& fn) {
    return timer_at(now_ + dt, std::forward<F>(fn));
  }

  /// Cancels a pending timer: the event is removed from the queue and
  /// will not fire. Returns false (harmlessly) if the timer already
  /// fired, was already cancelled, or the handle is stale/default; the
  /// handle is reset either way.
  bool cancel(TimerHandle& h);

  /// Moves a pending timer to absolute time `t`, keeping its callable
  /// and its handle. Ordering is exactly that of cancel + timer_at: the
  /// timer takes a fresh insertion sequence number here, and the
  /// restart counts in timers_cancelled(). Returns false (and resets
  /// the handle) if the timer already fired or was cancelled; the
  /// caller then schedules a new one.
  bool reschedule(TimerHandle& h, SimTime t);

  /// An event key: fire order is (time, seq), seq compared with
  /// wraparound.
  struct Key {
    SimTime time;
    std::uint32_t seq;
  };

  /// Reserves the key that scheduling an event at `t` would take now —
  /// `t` clamped and counted as by at(), the next insertion sequence
  /// number — without scheduling anything. The owner either inserts it
  /// (lane_at, release_at) or registers it with defer() and settles it
  /// itself once passed() says it would have fired.
  Key reserve_key(SimTime t) { return Key{clamp_time(t), next_seq_++}; }

  /// Names a delay lane (see the header); kNoLane means none.
  using LaneId = std::uint16_t;
  static constexpr LaneId kNoLane = 0xffff;
  /// Lane table bound: distinct delays beyond it share the lanes that
  /// are empty, or fall back to the plain heap.
  static constexpr std::size_t kMaxLanes = 32;

  /// The lane for events scheduled at now() + `d`. `hint` is an earlier
  /// answer for the same `d` (callers memoize it; a stale or foreign
  /// hint is detected). Opens a lane on first use; returns kNoLane when
  /// the table is full and no lane is empty, or for a NaN delay.
  LaneId lane(SimTime d, LaneId hint) {
    if (hint < lanes_.size() && lanes_[hint].delay == d) return hint;
    return find_lane(d);
  }

  /// Schedules `fn` (placed in the payload arena) at reserved key `k`
  /// through `lane` (any lane id, or kNoLane): appended if `k` orders
  /// after the lane's back, so the lane stays sorted, else queued in the
  /// plain heap. Either way the event fires at `k`.
  template <typename F>
  void lane_at(LaneId lane, Key k, F&& fn) {
    const std::uint32_t slot = acquire_slot();
    slot_ref(slot).fn.emplace(std::forward<F>(fn));
    push_keyed(lane, HeapEntry{k.time, k.seq, slot, nullptr, {}});
  }

  /// Typed fast path: releases `port`'s transmitter at a reserved key,
  /// through `lane` as lane_at does. The payload is one pointer, so it
  /// rides in the queue entry itself.
  void release_at(Key k, Port* port, LaneId lane) {
    push_keyed(lane, port_entry(k.time, k.seq, &EventClosure::tx_trampoline,
                                port));
  }

  /// Lanes opened so far (at most kMaxLanes).
  std::size_t lanes() const { return lanes_.size(); }

  /// Registers a reserved key that has no queue entry, so that
  /// next_event_time() and empty() still account for it. `id` names the
  /// registrant's slot (allocated on first use from an id holding
  /// kNoDeferral); a slot holds one key, and a new key may replace it
  /// only once passed() is true of the old one or the old one has been
  /// inserted with release_at. Slots are bounded by the number of
  /// registrants, and the kernel never dereferences one.
  void defer(std::uint32_t& id, Key k) {
    if (id == kNoDeferral) {
      id = static_cast<std::uint32_t>(deferred_.size());
      deferred_.push_back(Deferred{});
    }
    Deferred& d = deferred_[id];
    d.key = k;
    if (!d.watched) {
      d.watched = true;
      watched_.push_back(id);
    }
  }
  static constexpr std::uint32_t kNoDeferral = 0xffffffffu;

  /// Whether an event at reserved key `k` would already have fired:
  ///  * inside a handler, iff `k` orders before the running event;
  ///  * after run_until(t) returned without stop(), iff k.time <= t;
  ///  * after run_window(end), iff k.time < end;
  ///  * after run() drained the queue, always;
  ///  * after stop(), iff `k` orders before the stopping event;
  /// and a key that has passed stays passed through later loops. A key
  /// reserved after the last run loop returned never counts as passed
  /// (and none does before the first loop). Outside a loop this holds
  /// for keys that were deferred or inserted, as reserve_key asks.
  bool passed(Key k) const { return earlier(k, passed_bound()); }

  /// Runs until the event queue drains or stop() is called.
  void run();

  /// Runs events with time <= t, then sets the clock to t.
  void run_until(SimTime t);

  /// Absolute time of the earliest pending event, or +infinity when the
  /// queue is empty; deferred keys (see defer) count as pending until
  /// passed. This is the horizon query of the conservative parallel
  /// executor (parsim): the global safe window is [min over shards of
  /// next_event_time(), +lookahead). Re-keys a stale timer top and
  /// forgets passed deferred keys, so it is not const.
  SimTime next_event_time();

  /// Runs events with time strictly < `end` (the half-open safe window
  /// of conservative synchronization), honouring stop(). Unlike
  /// run_until, the clock is NOT advanced to `end`: it stays at the last
  /// executed event, so a shard's past-time clamp (see clamp_time) is
  /// always judged against *local* progress, never against a global
  /// window bound the shard has not actually reached.
  void run_window(SimTime end);

  /// Stops the run loop after the current event handler returns.
  void stop() { stopped_ = true; }

  /// Events that ran. A deferred key that passes without being inserted
  /// is not an event and does not count.
  std::uint64_t events_processed() const { return processed_; }

  /// True when no event is pending, deferred keys included.
  bool empty() const;

  /// Kernel entries: plain events, live timers, and one entry per
  /// non-empty delay lane (the events queued behind a lane's head and
  /// deferred keys are not counted).
  /// Cancelled timers are removed eagerly and a rescheduled timer keeps
  /// its entry, so a flow that restarts its RTO holds exactly one.
  std::size_t queue_size() const {
    return heap_.size() + timers_.size() + heads_.size();
  }

  /// Events pending, every lane event counted (deferred keys are not).
  std::size_t pending_events() const {
    std::size_t n = queue_size();
    for (const Lane& l : lanes_) {
      if (!l.q.empty()) n += l.q.size() - 1;
    }
    return n;
  }

  std::uint64_t timers_cancelled() const { return cancelled_; }

  /// Times a caller tried to schedule before now() and was clamped.
  std::uint64_t past_schedule_clamps() const { return past_clamps_; }

 private:
  // Queue entries are 32 bytes. `seq` is the low 32 bits of the
  // insertion sequence; ties compare with wraparound subtraction, which
  // reproduces exact FIFO order as long as equal-time events coexisting
  // in the queue were scheduled within 2^31 schedules of each other
  // (real queues are orders of magnitude smaller).
  //
  // `slot` selects the payload's home: an arena slot id, or the
  // kInlineSlot sentinel meaning the payload lives *in the entry*: `fn`
  // is a plain function pointer and `payload` holds one Port pointer
  // (the transmitter release, see port_entry). Lanes hold the same
  // entries.
  struct HeapEntry {
    SimTime time;
    std::uint32_t seq;
    std::uint32_t slot;
    void (*fn)(void*);
    alignas(8) unsigned char payload[8];
  };
  static_assert(sizeof(HeapEntry) == 32);

  // Timer-heap entries are 16 bytes; the payload is always in the
  // arena, whose slot mirrors the entry's heap position (for cancel and
  // reschedule). The key is a lower bound of the timer's true key: a
  // reschedule to a later deadline stores the new key in the slot and
  // sets kStaleBit, and the entry is re-keyed from the slot when it
  // reaches the top of the timer heap (settle_timer_top).
  struct TimerEntry {
    SimTime time;
    std::uint32_t seq;
    std::uint32_t slot;  ///< arena slot id, | kStaleBit while re-keying
  };
  static_assert(sizeof(TimerEntry) == 16);

  struct Slot {
    EventClosure fn;
    std::uint32_t gen = 0;
    std::uint32_t pos = 0;  ///< timer-heap index (timers) or free-list link
    std::uint32_t due_seq = 0;  ///< a stale timer's true key: (due, due_seq)
    SimTime due = 0.0;
  };

  static constexpr std::uint32_t kStaleBit = 0x80000000u;
  /// `slot` sentinel for in-entry payloads (no arena slot; above any
  /// reachable arena id).
  static constexpr std::uint32_t kInlineSlot = 0x7fffffffu;
  // 256 slots (32 KiB) per chunk: small enough that glibc serves chunks
  // from its recycled arena instead of fresh mmap'd pages, so repeated
  // simulator construction reuses warm memory.
  static constexpr std::uint32_t kChunkShift = 8;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;
  static constexpr std::uint32_t kChunkMask = kChunkSize - 1;

  /// Which queue holds the earliest event, and its key (time +infinity
  /// when the kernel is empty); see next_source.
  enum class Source : std::uint8_t { kNone, kHeap, kLane, kTimer };
  struct Next {
    Source src;
    SimTime time;
    std::uint32_t seq;
  };

  template <typename A, typename B>
  static bool earlier(const A& a, const B& b) {
    if (a.time != b.time) return a.time < b.time;
    return static_cast<std::int32_t>(a.seq - b.seq) < 0;
  }

  Slot& slot_ref(std::uint32_t id) {
    return reinterpret_cast<Slot*>(
        chunks_[id >> kChunkShift].get())[id & kChunkMask];
  }

  SimTime clamp_time(SimTime t) {
    if (!(t >= now_)) {  // also catches NaN, which compares false
      // Scheduling in the past is a bug in the caller; rather than let
      // the clock run backwards (or abort a release-mode run), pin the
      // event to now and count the violation.
      t = now_;
      ++past_clamps_;
    }
    // Normalise -0.0 to +0.0 so now() never reads a negative zero;
    // exact for every other input.
    return t + 0.0;
  }

  /// An in-entry event whose payload is one Port pointer.
  static HeapEntry port_entry(SimTime t, std::uint32_t seq,
                              void (*fn)(void*), Port* port) {
    HeapEntry e;
    e.time = t;
    e.seq = seq;
    e.slot = kInlineSlot;
    e.fn = fn;
    ::new (static_cast<void*>(e.payload)) Port*(port);
    return e;
  }

  LaneId find_lane(SimTime d);
  void push_keyed(LaneId lane, const HeapEntry& e);
  void push_plain(const HeapEntry& e);
  void insert_head(SimTime time, std::uint32_t seq, std::uint32_t lane);
  HeapEntry take_lane_head();
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  void sift_up_plain(std::uint32_t pos);
  void sift_down_plain(std::uint32_t pos);
  void push_timer(TimerEntry e);
  void remove_timer(std::uint32_t pos);
  void sift_up_timer(std::uint32_t pos);
  void sift_down_timer(std::uint32_t pos);
  void settle_timer_top();
  bool live(const TimerHandle& h) {
    return h.slot < slot_count_ && slot_ref(h.slot).gen == h.gen;
  }
  Next next_source();
  Key passed_bound() const {
    return in_loop_ ? Key{now_, cur_seq_} : passed_;
  }
  void end_loop(Key bound);
  SimTime retire_deferred(Key bound);
  void fire(HeapEntry e);
  void fire_slot(SimTime time, std::uint32_t seq, std::uint32_t slot);
  void run_slot(std::uint32_t slot);
  void step(Source src);

  SimTime now_ = 0.0;
  std::uint32_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t past_clamps_ = 0;
  std::uint32_t cur_seq_ = 0;  ///< seq of the running (or stopping) event
  // passed() outside a run loop: the keys before `passed_` (see
  // end_loop). No key passes before the first loop.
  Key passed_{-std::numeric_limits<SimTime>::infinity(), 0};
  bool stopped_ = false;
  bool in_loop_ = false;
  std::vector<HeapEntry> heap_;     ///< plain events
  std::vector<TimerEntry> timers_;  ///< cancellable timers
  // Payload arena: fixed-size chunks of raw storage. Slots have stable
  // addresses (events run in place), growth never relocates pending
  // payloads, and a fresh chunk costs one allocation — slots are
  // constructed lazily on first use.
  std::vector<std::unique_ptr<std::byte[]>> chunks_;
  std::uint32_t slot_count_ = 0;
  std::uint32_t free_head_ = TimerHandle::kInvalid;
  // Deferred keys, one slot per registrant; `watched_` lists the slots
  // whose key may not have passed yet (each at most once).
  struct Deferred {
    Key key{0.0, 0};
    bool watched = false;
  };
  std::vector<Deferred> deferred_;
  std::vector<std::uint32_t> watched_;
  // Delay lanes, opened on first use: each queue is sorted by (time,
  // seq) and has an entry in `heads_` (its front's key) exactly while
  // non-empty. `heads_` is sorted by (time, seq), earliest first.
  struct Lane {
    SimTime delay;
    util::RingBuffer<HeapEntry> q;
  };
  struct LaneHead {
    SimTime time;
    std::uint32_t seq;
    std::uint32_t lane;
  };
  static_assert(sizeof(LaneHead) == 16);
  std::vector<Lane> lanes_;
  std::vector<LaneHead> heads_;
};

}  // namespace dtdctcp::sim
