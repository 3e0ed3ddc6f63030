// Differential test of sim::Port against a reference port.
//
// The reference schedules one transmitter-release event per packet and
// one arrival event per packet — the port model written as plainly as
// possible. sim::Port defers a release that would find an empty queue
// and settles it on its next touch, replaying the empty dequeue; its
// arrivals and releases go through the kernel's delay lanes. Both take
// the same insertion sequence numbers at the same points, so a seeded
// random script (bursts and sources scheduled from handlers,
// drop_queued, stop(), sends between run loops, run_until/run_window/run
// boundaries on a grid that makes equal times common) must produce the
// same arrivals, the same call log at the queue discipline — every enqueue,
// dequeue (including the empty ones) and bypass, with its time and
// result — and the same counters, clock, busy() and horizon. The call
// log is kept apart from the rest: a replayed empty dequeue carries
// its release time but is made later, at the port's next touch.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "queue/codel.h"
#include "queue/drop_tail.h"
#include "queue/multi_queue.h"
#include "sim/node.h"
#include "sim/port.h"
#include "sim/simulator.h"
#include "util/units.h"

namespace dtdctcp {
namespace {

// (kind, packet uid or step, time, value)
using Record = std::tuple<int, std::uint64_t, SimTime, long>;

enum Kind : int {
  kArrive,
  kEnqueue,
  kDequeue,
  kBypass,
  kSource,
  kDropQueued,
  kAfterRun,
  kNextEvent,
  kEmpty,
  kCounter,
};

// One time unit: a byte serializes in exactly kUnit at kRate, so times
// built from packet sizes and the script's delays are exact dyadic
// sums and coincide often.
constexpr SimTime kUnit = 1.0 / 1048576.0;
constexpr DataRate kRate = 8.0 * 1048576.0;
constexpr SimTime kDelay = 100 * kUnit;

// Forwards to a discipline and logs every call it receives.
class LoggedDisc final : public sim::QueueDisc {
 public:
  LoggedDisc(std::unique_ptr<sim::QueueDisc> inner, std::vector<Record>* log)
      : inner_(std::move(inner)), log_(log) {}

  std::size_t packets() const override { return inner_->packets(); }
  std::size_t bytes() const override { return inner_->bytes(); }
  sim::Counters counters() const override { return inner_->counters(); }

 protected:
  sim::EnqueueResult do_enqueue(sim::Packet& pkt, SimTime now) override {
    const sim::EnqueueResult r = inner_->enqueue(pkt, now);
    log_->emplace_back(kEnqueue, pkt.uid, now,
                       r == sim::EnqueueResult::kEnqueued ? 1 : 0);
    return r;
  }
  bool do_dequeue(sim::Packet& out, SimTime now) override {
    const bool got = inner_->dequeue(out, now);
    log_->emplace_back(kDequeue, got ? out.uid : 0, now,
                       got ? 1 + static_cast<long>(out.ce) : 0);
    return got;
  }
  void do_bypass(sim::Packet& pkt, SimTime now) override {
    inner_->on_bypass(pkt, now);
    log_->emplace_back(kBypass, pkt.uid, now, pkt.ce ? 1 : 0);
  }

 private:
  std::unique_ptr<sim::QueueDisc> inner_;
  std::vector<Record>* log_;
};

// The port as it was with one release event per packet.
class ReferencePort {
 public:
  ReferencePort(sim::Simulator& sim, DataRate rate, SimTime delay,
                std::unique_ptr<sim::QueueDisc> disc)
      : sim_(sim), rate_(rate), delay_(delay), disc_(std::move(disc)) {}

  void attach_peer(sim::Node* peer) { peer_ = peer; }
  void set_available_rate_fraction(const double* frac) { frac_ = frac; }
  bool busy() const { return busy_; }
  std::uint64_t link_down_drops() const { return link_down_drops_; }
  sim::Counters counters() const {
    sim::Counters c = disc_->counters();
    c.sent_packets = packets_sent_;
    c.sent_bytes = bytes_sent_;
    return c;
  }

  void send(sim::Packet pkt) {
    if (!busy_ && disc_->packets() == 0) {
      disc_->on_bypass(pkt, sim_.now());
      begin_transmission(pkt);
      return;
    }
    if (disc_->enqueue(pkt, sim_.now()) == sim::EnqueueResult::kEnqueued &&
        !busy_) {
      sim::Packet head;
      ASSERT_TRUE(disc_->dequeue(head, sim_.now()));
      begin_transmission(head);
    }
  }

  std::size_t drop_queued(SimTime now) {
    std::size_t n = 0;
    sim::Packet pkt;
    while (disc_->dequeue(pkt, now)) {
      ++link_down_drops_;
      ++n;
    }
    return n;
  }

 private:
  void begin_transmission(const sim::Packet& pkt) {
    busy_ = true;
    const DataRate rate = frac_ == nullptr ? rate_ : rate_ * *frac_;
    const SimTime tx = units::transmission_time(pkt.size_bytes, rate);
    ++packets_sent_;
    bytes_sent_ += pkt.size_bytes;
    sim_.at(sim_.now() + (tx + delay_),
            [peer = peer_, pkt] { peer->receive(pkt); });
    sim_.at(sim_.now() + tx, [this] { on_transmit_complete(); });
  }

  void on_transmit_complete() {
    busy_ = false;
    sim::Packet next;
    if (disc_->dequeue(next, sim_.now())) begin_transmission(next);
  }

  sim::Simulator& sim_;
  DataRate rate_;
  SimTime delay_;
  std::unique_ptr<sim::QueueDisc> disc_;
  sim::Node* peer_ = nullptr;
  const double* frac_ = nullptr;
  bool busy_ = false;
  std::uint64_t packets_sent_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t link_down_drops_ = 0;
};

class Sink final : public sim::Node {
 public:
  Sink(const sim::Simulator& sim, std::vector<Record>* log)
      : sim::Node(1, "sink"), sim_(sim), log_(log) {}
  void receive(sim::Packet pkt) override {
    log_->emplace_back(kArrive, pkt.uid, sim_.now(), pkt.ce ? 1 : 0);
  }

 private:
  const sim::Simulator& sim_;
  std::vector<Record>* log_;
};

enum class Disc { kDropTail, kCodel, kWrr };

std::unique_ptr<sim::QueueDisc> make_disc(Disc d, std::vector<Record>* log) {
  std::unique_ptr<sim::QueueDisc> inner;
  switch (d) {
    case Disc::kDropTail:
      inner = std::make_unique<queue::DropTailQueue>(0, 12);
      break;
    case Disc::kCodel:
      inner = std::make_unique<queue::CodelQueue>(
          0, 40, queue::CodelConfig{2000 * kUnit, 6000 * kUnit});
      break;
    case Disc::kWrr: {
      std::vector<std::unique_ptr<sim::QueueDisc>> kids;
      kids.push_back(std::make_unique<queue::DropTailQueue>(0, 8));
      kids.push_back(std::make_unique<queue::DropTailQueue>(0, 8));
      inner = std::make_unique<queue::MultiQueueDisc>(
          std::move(kids), queue::SchedPolicy::kWrr,
          std::vector<std::uint32_t>{3, 1});
      break;
    }
  }
  return std::make_unique<LoggedDisc>(std::move(inner), log);
}

struct Outcome {
  std::vector<Record> log;
  std::vector<Record> disc_log;
  std::uint64_t events = 0;
  std::size_t max_entries = 0;  ///< most kernel entries after a step
  std::size_t lanes = 0;        ///< lanes opened
  std::uint64_t deferred = 0;   ///< releases never scheduled (run_both)
};

// The links a script drives: how many ports (all into one sink, with
// equal rate and delay, so their arrivals share lanes), their
// propagation delay, and whether a hybrid rate gauge changes before
// every send (so every transmission has its own delays).
struct Links {
  int ports = 1;
  SimTime delay = kDelay;
  bool gauge = false;
};

template <typename P>
class Script {
 public:
  Script(std::uint64_t seed, Disc disc, Links links = {})
      : state_(seed), links_(links) {
    // One call log per port: a port replays a deferred release's empty
    // dequeue at its own next touch, which other ports' calls may
    // precede.
    disc_logs_.resize(static_cast<std::size_t>(links.ports));
    for (auto& disc_log : disc_logs_) {
      ports_.push_back(std::make_unique<P>(sim_, kRate, links.delay,
                                           make_disc(disc, &disc_log)));
      ports_.back()->attach_peer(&sink_);
      if (links.gauge) ports_.back()->set_available_rate_fraction(&frac_);
    }
  }

  Outcome run(int budget) {
    budget_ = budget;
    for (int i = 0; i < 2; ++i) source_after(delay());
    for (int step = 0; step < 300; ++step) {
      switch (pick(7)) {
        case 0:
          sim_.run_until(sim_.now() + window());
          break;
        case 1: {
          const SimTime next = sim_.next_event_time();
          log_.emplace_back(kNextEvent, step, next, 0);
          sim_.run_window(next + window());
          break;
        }
        case 2:
          sim_.run();  // until a handler calls stop() or the queue drains
          break;
        case 3:  // sends between loops, at the clock the loop left
          burst();
          break;
        case 4:
          log_.emplace_back(kEmpty, step, sim_.now(), sim_.empty() ? 1 : 0);
          break;
        case 5:
          if (pick(4) == 0) {
            log_.emplace_back(kDropQueued, step, sim_.now(),
                              static_cast<long>(drop_queued()));
          }
          break;
        default:
          log_.emplace_back(kNextEvent, step, sim_.next_event_time(), 1);
          break;
      }
      log_.emplace_back(kAfterRun, step, sim_.now(), busy_bits());
      if constexpr (std::is_same_v<P, sim::Port>) {
        max_entries_ = std::max(max_entries_, sim_.queue_size());
        EXPECT_LE(sim_.lanes(), sim::Simulator::kMaxLanes);
      }
    }
    budget_ = 0;
    sim_.run();
    // A last touch settles the final release, so its empty dequeue is
    // in the call log too.
    const SimTime end = sim_.now();
    for (auto& port : ports_) {
      log_.emplace_back(kDropQueued, 0, end,
                        static_cast<long>(port->drop_queued(end)));
      const sim::Counters c = port->counters();
      for (const std::uint64_t v :
           {c.offered, c.enqueued, c.dequeued, c.bypassed, c.dropped,
            c.marked, c.sent_packets, c.sent_bytes, port->link_down_drops()}) {
        log_.emplace_back(kCounter, v, end, 0);
      }
    }
    std::vector<Record> disc_log;
    for (const auto& l : disc_logs_) {
      disc_log.insert(disc_log.end(), l.begin(), l.end());
    }
    return Outcome{std::move(log_), std::move(disc_log),
                   sim_.events_processed(), max_entries_, sim_.lanes()};
  }

 private:
  std::uint64_t next_random() {  // splitmix64
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  int pick(int n) { return static_cast<int>(next_random() % n); }

  // Delays built from the packet sizes, so sources often land exactly
  // on a transmitter release or an arrival.
  SimTime delay() {
    static constexpr int kGrid[] = {0,    0,    40,   100,  140,  1500,
                                    1540, 3000, 6000, 12000, 24000};
    return kGrid[pick(11)] * kUnit;
  }
  SimTime window() { return 750 * pick(6) * kUnit; }

  sim::Packet packet() {
    static constexpr std::uint16_t kSizes[] = {0, 40, 40, 1500, 1500, 1500};
    sim::Packet pkt;
    pkt.uid = ++uid_;
    const int s = pick(7);
    pkt.size_bytes =
        s < 6 ? kSizes[s] : static_cast<std::uint16_t>(1 + pick(1500));
    pkt.ect = pick(2) == 0;
    pkt.prio = static_cast<std::uint8_t>(pick(2));
    return pkt;
  }

  // One draw picks the port, so a single-port script draws nothing.
  P& any_port() {
    return *ports_[links_.ports == 1 ? 0 : pick(links_.ports)];
  }

  long busy_bits() const {
    long bits = 0;
    for (std::size_t i = 0; i < ports_.size(); ++i) {
      if (ports_[i]->busy()) bits |= 1L << i;
    }
    return bits;
  }

  std::size_t drop_queued() { return any_port().drop_queued(sim_.now()); }

  void burst() {
    for (int n = 1 + pick(2); n > 0 && budget_ > 0; --n) {
      --budget_;
      P& port = any_port();
      sim::Packet pkt = packet();
      // A fluid background's share moves between any two sends; dyadic
      // fractions in [1/2, 1), drawn only when the gauge is on.
      if (links_.gauge) frac_ = 0.5 + pick(512) / 1024.0;
      port.send(pkt);
    }
  }

  void source_after(SimTime dt) {
    if (budget_ <= 0) return;
    const long id = next_source_++;
    ++sources_;
    sim_.after(dt, [this, id] { on_source(id); });
  }

  void on_source(long id) {
    log_.emplace_back(kSource, static_cast<std::uint64_t>(id), sim_.now(),
                      busy_bits());
    switch (pick(40)) {
      case 0:
        log_.emplace_back(kDropQueued, static_cast<std::uint64_t>(id),
                          sim_.now(), static_cast<long>(drop_queued()));
        break;
      case 1:
      case 2:
        sim_.stop();
        break;
      default:
        burst();
        break;
    }
    // A successor, sometimes two: between two and four sources run.
    --sources_;
    source_after(delay());
    if (sources_ < 4 && pick(8) == 0) source_after(delay());
  }

  sim::Simulator sim_;
  std::vector<Record> log_;
  std::vector<std::vector<Record>> disc_logs_;
  Sink sink_{sim_, &log_};
  std::uint64_t state_;
  Links links_;
  double frac_ = 1.0;
  std::vector<std::unique_ptr<P>> ports_;
  std::size_t max_entries_ = 0;
  int budget_ = 0;
  long next_source_ = 0;
  int sources_ = 0;
  std::uint64_t uid_ = 0;
};

// Runs the script against both ports and diffs them record by record;
// `got` receives the sim::Port outcome.
void run_both(Disc disc, std::uint64_t seed, const Links& links,
              Outcome& got) {
  const Outcome want = Script<ReferencePort>(seed, disc, links).run(1500);
  got = Script<sim::Port>(seed, disc, links).run(1500);
  ASSERT_GT(want.log.size(), 1000u);
  ASSERT_GT(want.disc_log.size(), 1000u);
  for (std::size_t i = 0; i < want.log.size() && i < got.log.size(); ++i) {
    ASSERT_EQ(got.log[i], want.log[i]) << "first divergence at record " << i;
  }
  ASSERT_EQ(got.log.size(), want.log.size());
  for (std::size_t i = 0;
       i < want.disc_log.size() && i < got.disc_log.size(); ++i) {
    ASSERT_EQ(got.disc_log[i], want.disc_log[i])
        << "first divergent disc call at " << i;
  }
  ASSERT_EQ(got.disc_log.size(), want.disc_log.size());
  // Only releases that found an empty queue are missing.
  ASSERT_LE(got.events, want.events);
  got.deferred = want.events - got.events;
}

void expect_same(Disc disc) {
  std::uint64_t deferred = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    SCOPED_TRACE(seed);
    Outcome got;
    run_both(disc, seed, Links{}, got);
    if (::testing::Test::HasFatalFailure()) return;
    deferred += got.deferred;
  }
  EXPECT_GT(deferred, 1000u) << "the script no longer defers releases";
}

TEST(PortDifferential, DropTailMatchesReferencePort) {
  expect_same(Disc::kDropTail);
}

TEST(PortDifferential, CodelMatchesReferencePort) {
  expect_same(Disc::kCodel);
}

TEST(PortDifferential, WrrMultiQueueMatchesReferencePort) {
  expect_same(Disc::kWrr);
}

// Several ports with one rate and delay put their arrivals into one
// lane per packet size: the kernel holds one entry for many packets.
TEST(PortDifferential, FanInPortsShareLanes) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE(seed);
    Outcome got;
    run_both(Disc::kDropTail, seed, Links{4, kDelay, false}, got);
    if (::testing::Test::HasFatalFailure()) return;
  }
  sim::Simulator s;
  std::vector<Record> log;
  Sink sink(s, &log);
  std::vector<std::unique_ptr<sim::Port>> ports;
  for (int i = 0; i < 4; ++i) {
    ports.push_back(std::make_unique<sim::Port>(
        s, kRate, kDelay, std::make_unique<queue::DropTailQueue>(0, 0)));
    ports.back()->attach_peer(&sink);
    sim::Packet pkt;
    pkt.uid = static_cast<std::uint64_t>(i) + 1;
    pkt.size_bytes = 1500;
    ports.back()->send(pkt);
  }
  // Four packets in flight on four ports; their releases are deferred
  // (nothing queued behind them), so one lane head is the only entry.
  EXPECT_EQ(s.queue_size(), 1u);
  EXPECT_EQ(s.pending_events(), 4u);
  EXPECT_EQ(s.lanes(), 2u);  // the arrival delay and the release delay
  s.run();
  ASSERT_EQ(log.size(), 4u);
  for (std::size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(log[i], Record(kArrive, i + 1, 1600 * kUnit, 0));
  }
}

// A hybrid gauge that moves before every send gives every transmission
// its own delays. Lanes fill up to the cap, long links keep them busy,
// and the rest of the events take the heap; the order is unchanged.
TEST(PortDifferential, PerPacketGaugeFallsBackWithBoundedLanes) {
  std::size_t max_entries = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(seed);
    Outcome got;
    run_both(Disc::kCodel, seed, Links{4, 200000 * kUnit, true}, got);
    if (::testing::Test::HasFatalFailure()) return;
    EXPECT_EQ(got.lanes, sim::Simulator::kMaxLanes);
    max_entries = std::max(max_entries, got.max_entries);
  }
  // More entries than full lanes, the (at most four) pending sources
  // and one release per port can hold: arrivals fell back to the heap.
  EXPECT_GT(max_entries, sim::Simulator::kMaxLanes + 4 + 4);
}

// Lane events scheduled before the simulator is moved (constructed,
// then assigned) fire in the same order afterwards, interleaved with
// the traffic of a port built on the moved-to simulator.
template <typename P>
std::pair<std::vector<Record>, std::vector<Record>> moved_run() {
  constexpr bool kLanes = std::is_same_v<P, sim::Port>;
  constexpr SimTime kDelays[] = {40 * kUnit, 1500 * kUnit, 1540 * kUnit};
  std::vector<Record> log;
  std::vector<Record> disc_log;
  std::function<void(int)> send;
  sim::Simulator first;
  sim::Simulator::LaneId hint[3] = {sim::Simulator::kNoLane,
                                    sim::Simulator::kNoLane,
                                    sim::Simulator::kNoLane};
  for (int i = 0; i < 60; ++i) {
    const int k = i % 3;
    const SimTime t = (i / 3) * 500 * kUnit + kDelays[k];
    auto fire = [&send, i] { send(i); };
    if constexpr (kLanes) {
      hint[k] = first.lane(kDelays[k], hint[k]);
      first.lane_at(hint[k], first.reserve_key(t), fire);
    } else {
      first.at(t, fire);
    }
  }
  sim::Simulator second(std::move(first));
  sim::Simulator sim;
  sim = std::move(second);
  if constexpr (kLanes) {
    EXPECT_EQ(sim.lanes(), 3u);
    EXPECT_EQ(sim.queue_size(), 3u);
    EXPECT_EQ(sim.pending_events(), 60u);
  }
  Sink sink(sim, &log);
  P port(sim, kRate, kDelay, make_disc(Disc::kDropTail, &disc_log));
  port.attach_peer(&sink);
  send = [&](int i) {
    log.emplace_back(kSource, static_cast<std::uint64_t>(i), sim.now(),
                     port.busy() ? 1 : 0);
    sim::Packet pkt;
    pkt.uid = static_cast<std::uint64_t>(i) + 1;
    pkt.size_bytes = i % 2 == 0 ? 1500 : 40;
    port.send(pkt);
  };
  sim.run();
  // A last touch settles the final release (its empty dequeue).
  port.drop_queued(sim.now());
  log.emplace_back(kCounter, sim.events_processed(), sim.now(), 0);
  return {std::move(log), std::move(disc_log)};
}

TEST(PortDifferential, MovedSimulatorKeepsItsLanes) {
  const auto want = moved_run<ReferencePort>();
  const auto got = moved_run<sim::Port>();
  ASSERT_GT(want.first.size(), 80u);
  // The deferred releases aside (the last record holds the event
  // count), both runs agree record by record.
  ASSERT_EQ(got.first.size(), want.first.size());
  for (std::size_t i = 0; i + 1 < want.first.size(); ++i) {
    ASSERT_EQ(got.first[i], want.first[i]) << "first divergence at " << i;
  }
  EXPECT_EQ(got.second, want.second);
  EXPECT_LE(std::get<1>(got.first.back()), std::get<1>(want.first.back()));
}

// A deferred release has no queue entry, yet it is the earliest pending
// event: it bounds the horizon until a window passes it, and the clock
// reaches it as if it had run.
TEST(PortDifferential, DeferredReleaseBoundsTheHorizon) {
  sim::Simulator s;
  std::vector<Record> log;
  Sink sink(s, &log);
  sim::Port port(s, kRate, kDelay,
                 std::make_unique<queue::DropTailQueue>(0, 0));
  port.attach_peer(&sink);
  sim::Packet pkt;
  pkt.uid = 1;
  pkt.size_bytes = 1000;
  port.send(pkt);
  const SimTime tx = 1000 * kUnit;
  EXPECT_EQ(s.queue_size(), 1u);  // only the arrival's lane head
  EXPECT_EQ(s.next_event_time(), tx);
  EXPECT_FALSE(s.empty());
  EXPECT_TRUE(port.busy());
  s.run_window(tx);  // [., tx) excludes the release
  EXPECT_EQ(s.next_event_time(), tx);
  EXPECT_TRUE(port.busy());
  EXPECT_EQ(s.now(), 0.0);
  s.run_window(tx + kUnit);
  EXPECT_EQ(s.now(), tx);
  EXPECT_FALSE(port.busy());
  EXPECT_EQ(s.next_event_time(), tx + kDelay);
  EXPECT_EQ(s.events_processed(), 0u);
  s.run();
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.events_processed(), 1u);  // the arrival
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(std::get<2>(log[0]), tx + kDelay);
}

}  // namespace
}  // namespace dtdctcp
