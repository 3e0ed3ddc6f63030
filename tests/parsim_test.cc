// Tests for the conservative-parallel executor (src/parsim): simulator
// window stepping, partitioning, mailbox determinism, byte-identity
// pins (one shard == serial; fixed shard count == run-to-run), the
// cross-shard conservation ledger, and the dumbbell parsim path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "core/dumbbell.h"
#include "core/marking_config.h"
#include "parsim/fabric.h"
#include "parsim/partition.h"
#include "parsim/shard_runner.h"
#include "parsim/sharded_network.h"
#include "queue/factory.h"
#include "sim/leaf_spine.h"
#include "stats/metrics.h"
#include "tcp/connection.h"
#include "util/units.h"

namespace dtdctcp::parsim {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// ---- Simulator window stepping (satellite: horizon + clamp semantics) ----

TEST(SimWindow, NextEventTimeEmptyIsInfinity) {
  sim::Simulator s;
  EXPECT_EQ(s.next_event_time(), kInf);
  s.at(3.0, [] {});
  s.at(1.5, [] {});
  EXPECT_DOUBLE_EQ(s.next_event_time(), 1.5);
}

TEST(SimWindow, RunWindowExecutesStrictlyBelowEnd) {
  sim::Simulator s;
  std::vector<double> fired;
  for (const double t : {1.0, 2.0, 3.0}) {
    s.at(t, [&fired, &s] { fired.push_back(s.now()); });
  }
  s.run_window(3.0);  // strict <: the event at exactly 3.0 must stay
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0}));
  EXPECT_DOUBLE_EQ(s.next_event_time(), 3.0);
  // The clock stays at the last executed event, not the window end —
  // past-time clamping remains a shard-local judgement.
  EXPECT_DOUBLE_EQ(s.now(), 2.0);
}

TEST(SimWindow, IdleShardImportIsNotClamped) {
  // An idle shard's clock never moved, so a mailbox import timestamped
  // well ahead must schedule at its true time with no past-clamp.
  sim::Simulator s;
  EXPECT_EQ(s.past_schedule_clamps(), 0u);
  double fired_at = -1.0;
  s.at(5.0, [&] { fired_at = s.now(); });
  s.run_window(10.0);
  EXPECT_DOUBLE_EQ(fired_at, 5.0);
  EXPECT_EQ(s.past_schedule_clamps(), 0u);
}

TEST(SimWindow, RunWindowHonoursFutureInsertions) {
  // Events scheduled from inside a window handler still run if they
  // land inside the window, and hold if they land past it.
  sim::Simulator s;
  std::vector<double> fired;
  s.at(1.0, [&] {
    fired.push_back(s.now());
    s.at(1.5, [&] { fired.push_back(s.now()); });
    s.at(7.0, [&] { fired.push_back(s.now()); });
  });
  s.run_window(2.0);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 1.5}));
  EXPECT_DOUBLE_EQ(s.next_event_time(), 7.0);
}

// ---- Partitioning ---------------------------------------------------------

TEST(Partition, SingleCoversAllNodes) {
  Partition p = Partition::single(5);
  EXPECT_EQ(p.shards, 1u);
  ASSERT_EQ(p.shard_of.size(), 5u);
  for (sim::NodeId i = 0; i < 5; ++i) EXPECT_EQ(p.of(i), 0u);
}

TEST(Partition, LeafSpineKeepsRacksWhole) {
  sim::LeafSpineConfig cfg;
  cfg.spines = 2;
  cfg.leaves = 4;
  cfg.hosts_per_leaf = 3;
  sim::LeafSpine fabric =
      sim::build_leaf_spine(cfg, queue::drop_tail(0, 100));
  const Partition p = leaf_spine_partition(fabric, cfg, 2);
  EXPECT_EQ(p.shards, 2u);
  // A leaf and every host below it share a shard (the leaf<->host links
  // are never cut, keeping the lookahead at the fabric-link delay).
  for (std::size_t l = 0; l < cfg.leaves; ++l) {
    const std::uint32_t leaf_shard = p.of(fabric.leaves[l]->id());
    EXPECT_EQ(leaf_shard, l % 2);
    for (std::size_t h = 0; h < cfg.hosts_per_leaf; ++h) {
      EXPECT_EQ(p.of(fabric.host(l, h, cfg.hosts_per_leaf).id()), leaf_shard);
    }
  }
  // Spines round-robin across shards.
  EXPECT_EQ(p.of(fabric.spines[0]->id()), 0u);
  EXPECT_EQ(p.of(fabric.spines[1]->id()), 1u);
}

TEST(Partition, ShardCountClampedToLeaves) {
  sim::LeafSpineConfig cfg;
  cfg.spines = 1;
  cfg.leaves = 2;
  cfg.hosts_per_leaf = 1;
  sim::LeafSpine fabric =
      sim::build_leaf_spine(cfg, queue::drop_tail(0, 100));
  EXPECT_EQ(leaf_spine_partition(fabric, cfg, 16).shards, 2u);
}

TEST(ShardedNet, RejectsBadPartitions) {
  sim::LeafSpineConfig cfg;
  cfg.spines = 1;
  cfg.leaves = 2;
  cfg.hosts_per_leaf = 1;
  sim::LeafSpine fabric =
      sim::build_leaf_spine(cfg, queue::drop_tail(0, 100));
  Partition wrong_size;
  wrong_size.shards = 1;
  wrong_size.shard_of.assign(2, 0);  // fabric has 5 nodes
  EXPECT_THROW(ShardedNetwork(*fabric.net, wrong_size),
               std::invalid_argument);
  Partition out_of_range = Partition::single(fabric.net->nodes().size());
  out_of_range.shard_of[0] = 7;  // >= shards
  EXPECT_THROW(ShardedNetwork(*fabric.net, out_of_range),
               std::invalid_argument);
}

TEST(ShardedNet, RejectsZeroDelayCutLink) {
  sim::LeafSpineConfig cfg;
  cfg.spines = 1;
  cfg.leaves = 2;
  cfg.hosts_per_leaf = 1;
  cfg.fabric_link_delay = 0.0;  // cutting this collapses the lookahead
  sim::LeafSpine fabric =
      sim::build_leaf_spine(cfg, queue::drop_tail(0, 100));
  EXPECT_THROW(ShardedNetwork(*fabric.net,
                              leaf_spine_partition(fabric, cfg, 2)),
               std::invalid_argument);
}

TEST(ShardedNet, LookaheadIsMinCutDelayAndSingleShardIsInfinite) {
  sim::LeafSpineConfig cfg;
  cfg.spines = 2;
  cfg.leaves = 2;
  cfg.hosts_per_leaf = 2;
  cfg.fabric_link_delay = 4e-6;
  {
    sim::LeafSpine fabric =
        sim::build_leaf_spine(cfg, queue::drop_tail(0, 100));
    ShardedNetwork two(*fabric.net, leaf_spine_partition(fabric, cfg, 2));
    EXPECT_DOUBLE_EQ(two.lookahead(), 4e-6);
    EXPECT_GT(two.cross_links(), 0u);
  }
  {
    sim::LeafSpine fabric =
        sim::build_leaf_spine(cfg, queue::drop_tail(0, 100));
    ShardedNetwork one(*fabric.net,
                       Partition::single(fabric.net->nodes().size()));
    EXPECT_EQ(one.lookahead(), kInf);
    EXPECT_EQ(one.cross_links(), 0u);
  }
}

// ---- Stress preset (satellite: config scale-up) ---------------------------

TEST(LeafSpineStress, PresetShapeAndLimits) {
  const sim::LeafSpineConfig cfg = sim::LeafSpineConfig::stress();
  EXPECT_EQ(cfg.total_hosts(), 256u);
  sim::LeafSpine fabric =
      sim::build_leaf_spine(cfg, queue::drop_tail(0, 100));
  EXPECT_EQ(fabric.hosts.size(), 256u);
  EXPECT_EQ(fabric.leaves.size(), 8u);
  EXPECT_EQ(fabric.spines.size(), 4u);

  sim::LeafSpineConfig bad = cfg;
  bad.leaves = 0;
  EXPECT_THROW(sim::build_leaf_spine(bad, queue::drop_tail(0, 100)),
               std::invalid_argument);
  bad.leaves = sim::LeafSpineConfig::kMaxLeaves + 1;
  EXPECT_THROW(sim::build_leaf_spine(bad, queue::drop_tail(0, 100)),
               std::invalid_argument);
}

// ---- Fabric determinism pins ---------------------------------------------

FabricConfig small_fabric(std::size_t shards) {
  FabricConfig fc;
  fc.fabric.spines = 2;
  fc.fabric.leaves = 4;
  fc.fabric.hosts_per_leaf = 4;
  fc.shards = shards;
  fc.segments_per_flow = 60;
  fc.seed = 42;
  return fc;
}

TEST(FabricDeterminism, OneShardByteIdenticalToSerial) {
  const FabricResult serial = run_fabric(small_fabric(0));
  const FabricResult one = run_fabric(small_fabric(1));
  EXPECT_EQ(serial.digest, one.digest);
  EXPECT_EQ(serial.events, one.events);
  EXPECT_EQ(serial.marks, one.marks);
  EXPECT_EQ(serial.drops, one.drops);
  EXPECT_EQ(serial.fabric_packets, one.fabric_packets);
  EXPECT_EQ(serial.completed, serial.flows);
  EXPECT_EQ(one.completed, one.flows);
}

TEST(FabricDeterminism, FixedShardCountIsRunToRunIdentical) {
  const FabricResult a = run_fabric(small_fabric(3));
  const FabricResult b = run_fabric(small_fabric(3));
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.marks, b.marks);
  EXPECT_TRUE(a.ledger_ok);
  EXPECT_TRUE(b.ledger_ok);
}

TEST(FabricDeterminism, SimultaneousStartsTieBreakDeterministically) {
  // start_spread = 0: every flow starts at exactly t = 0, maximizing
  // same-timestamp cross-shard arrivals — the mailbox drain rule
  // (time, src shard, seq) must keep the outcome bit-stable.
  FabricConfig fc = small_fabric(2);
  fc.start_spread = 0.0;
  const FabricResult a = run_fabric(fc);
  const FabricResult b = run_fabric(fc);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.completed, a.flows);
}

TEST(FabricDeterminism, MultiShardCompletesWithClosedLedger) {
  FabricConfig fc = small_fabric(4);
  fc.check = ShardRunnerOptions::Check::kForce;
  fc.check_cfg.abort_on_violation = false;
  const FabricResult r = run_fabric(fc);
  EXPECT_EQ(r.completed, r.flows);
  EXPECT_TRUE(r.ledger_ok);
  EXPECT_EQ(r.check_violations, 0u);
  EXPECT_EQ(r.telemetry.shards, 4u);
  EXPECT_GT(r.telemetry.rounds, 0u);
  ASSERT_EQ(r.telemetry.shard.size(), 4u);
  std::uint64_t shard_events = 0;
  std::uint64_t drained = 0;
  std::uint64_t exported = 0;
  for (const ShardStats& s : r.telemetry.shard) {
    shard_events += s.events;
    drained += s.drained;
    exported += s.exported;
    EXPECT_GT(s.windows, 0u);
  }
  EXPECT_EQ(shard_events, r.events);
  EXPECT_GT(exported, 0u);     // traffic actually crossed shards
  EXPECT_EQ(drained, exported);  // every export was imported
}

// ---- ShardRunner metrics export (satellite: telemetry) --------------------

TEST(ShardRunnerMetrics, ExportsLoadCounters) {
  sim::LeafSpineConfig cfg;
  cfg.spines = 2;
  cfg.leaves = 2;
  cfg.hosts_per_leaf = 2;
  sim::LeafSpine fabric =
      sim::build_leaf_spine(cfg, queue::ecn_threshold(
                                     0, 100, 20.0,
                                     queue::ThresholdUnit::kPackets));
  ShardedNetwork sharded(*fabric.net, leaf_spine_partition(fabric, cfg, 2));
  ShardRunner runner(sharded);

  std::vector<std::unique_ptr<tcp::Connection>> conns;
  tcp::TcpConfig tcp;
  const std::size_t n = fabric.hosts.size();
  for (std::size_t i = 0; i < n; ++i) {
    sim::Host& src = *fabric.hosts[i];
    sim::Host& dst = *fabric.hosts[(i + cfg.hosts_per_leaf) % n];
    conns.push_back(std::make_unique<tcp::Connection>(
        *fabric.net, sharded.sim_for(src.id()), sharded.sim_for(dst.id()),
        src, dst, tcp, 20));
    conns.back()->start_at(0.0);
  }
  runner.run();
  EXPECT_TRUE(runner.finalize());

  stats::MetricsRegistry reg;
  runner.export_metrics(reg);
  EXPECT_EQ(reg.gauge("parsim.shards").value(), 2.0);
  EXPECT_GT(reg.counter("parsim.rounds").value(), 0u);
  EXPECT_GT(reg.counter("parsim.shard0.events").value(), 0u);
  EXPECT_GT(reg.counter("parsim.shard1.events").value(), 0u);
  const std::uint64_t pushed0 =
      reg.counter("parsim.shard0.mailbox_pushed").value();
  const std::uint64_t pushed1 =
      reg.counter("parsim.shard1.mailbox_pushed").value();
  const std::uint64_t drained0 =
      reg.counter("parsim.shard0.mailbox_drained").value();
  const std::uint64_t drained1 =
      reg.counter("parsim.shard1.mailbox_drained").value();
  EXPECT_GT(pushed0 + pushed1, 0u);
  EXPECT_EQ(pushed0 + pushed1, drained0 + drained1);
}

TEST(ShardRunnerMetrics, RunUntilAdvancesEveryShardClockExactly) {
  sim::LeafSpineConfig cfg;
  cfg.spines = 1;
  cfg.leaves = 2;
  cfg.hosts_per_leaf = 1;
  sim::LeafSpine fabric =
      sim::build_leaf_spine(cfg, queue::drop_tail(0, 100));
  ShardedNetwork sharded(*fabric.net, leaf_spine_partition(fabric, cfg, 2));
  ShardRunner runner(sharded);
  runner.run_until(0.25);
  EXPECT_DOUBLE_EQ(sharded.shard_sim(0).now(), 0.25);
  EXPECT_DOUBLE_EQ(sharded.shard_sim(1).now(), 0.25);
  // Idle shards must reach the target by clock assignment, not clamped
  // event replay.
  EXPECT_EQ(sharded.shard_sim(0).past_schedule_clamps(), 0u);
  EXPECT_EQ(sharded.shard_sim(1).past_schedule_clamps(), 0u);
}

// ---- Mailbox drain order --------------------------------------------------

// Records the order and time at which imported packets reach it; the
// packet's seq field carries the test's entry id.
class ArrivalLog : public sim::Node {
 public:
  explicit ArrivalLog(sim::Simulator& sim) : Node(9999, "log"), sim_(sim) {}
  void receive(sim::Packet pkt) override {
    ids.push_back(pkt.seq);
    times.push_back(sim_.now());
  }
  std::vector<std::int64_t> ids;
  std::vector<SimTime> times;

 private:
  sim::Simulator& sim_;
};

TEST(MailboxDrain, FiresInTimeSrcShardMailboxSeqOrder) {
  // Three racks, one per shard: the spine sits in shard 0, so shards 1
  // and 2 both feed shard 0. Entries are pushed straight into their
  // mailboxes and land on a recording node in shard 0.
  sim::LeafSpineConfig cfg;
  cfg.spines = 1;
  cfg.leaves = 3;
  cfg.hosts_per_leaf = 1;
  cfg.fabric_link_delay = 1e-6;
  sim::LeafSpine fabric =
      sim::build_leaf_spine(cfg, queue::drop_tail(0, 100));
  ShardedNetwork sharded(*fabric.net, leaf_spine_partition(fabric, cfg, 3));
  ASSERT_EQ(sharded.shards(), 3u);
  Mailbox* from1 = sharded.mailbox(1, 0);
  Mailbox* from2 = sharded.mailbox(2, 0);
  ASSERT_NE(from1, nullptr);
  ASSERT_NE(from2, nullptr);
  sim::Simulator& dst = sharded.shard_sim(0);
  ArrivalLog log(dst);
  ShardRunnerOptions opts;
  opts.check = ShardRunnerOptions::Check::kOff;  // packets come from nowhere
  ShardRunner runner(sharded, opts);

  struct Sent {
    std::int64_t id;
    SimTime due;  ///< arrival time clamped to the shard clock at the drain
    int batch;
    int src;
    std::size_t mailbox_seq;
  };
  std::vector<Sent> sent;
  std::size_t pushed[3] = {};
  const auto push = [&](int batch, int src, SimTime when, SimTime clock) {
    sim::Packet pkt;
    pkt.seq = static_cast<std::int64_t>(sent.size());
    (src == 1 ? from1 : from2)->push(when, &log, pkt);
    sent.push_back(Sent{pkt.seq, when < clock ? clock : when, batch, src,
                        pushed[src]++});
  };

  // Batch A, drained with the shard clock at 10 us: each source pushes
  // out of time order with many equal times, both sources share times,
  // and one entry from shard 2 lies in the shard's past. It ties, once
  // clamped, with shard 1's entries at exactly 10 us, which must fire
  // first.
  const SimTime t1 = 10e-6;
  runner.run_until(t1);
  ASSERT_EQ(dst.now(), t1);
  const SimTime a_times[] = {14e-6, 12e-6, 30e-6, 10e-6, 16e-6, 40e-6};
  for (int i = 0; i < 40; ++i) {
    push(0, 1, a_times[(7 * i) % 6], t1);
    push(0, 2, a_times[(5 * i + 1) % 6], t1);
    if (i == 20) push(0, 2, 9e-6, t1);
  }
  // Runs the batch up to 15 us: the entries at 16, 30 and 40 us are
  // left in the shard.
  const SimTime t2 = 15e-6;
  runner.run_until(t2);
  ASSERT_EQ(dst.now(), t2);

  // Batch B overlaps those leftovers: its entries order before them in
  // time, or tie with them (the leftovers, drained first, fire first).
  const SimTime b_times[] = {30e-6, 16e-6, 20e-6, 15e-6, 30e-6};
  for (int i = 0; i < 12; ++i) {
    push(1, 2, b_times[i % 5], t2);
    push(1, 1, b_times[(3 * i + 2) % 5], t2);
  }
  runner.run();
  EXPECT_TRUE(runner.finalize());

  std::vector<Sent> want = sent;
  std::sort(want.begin(), want.end(), [](const Sent& a, const Sent& b) {
    return std::tie(a.due, a.batch, a.src, a.mailbox_seq) <
           std::tie(b.due, b.batch, b.src, b.mailbox_seq);
  });
  ASSERT_EQ(log.ids.size(), want.size());
  for (std::size_t k = 0; k < want.size(); ++k) {
    ASSERT_EQ(log.ids[k], want[k].id) << "first divergence at arrival " << k;
    ASSERT_EQ(log.times[k], want[k].due) << "arrival " << k;
  }
  EXPECT_EQ(dst.past_schedule_clamps(), 1u);
}

// ---- Dumbbell through the parsim path (fig10/fig11 scenarios) -------------

core::DumbbellConfig paper_dumbbell(bool hysteresis) {
  core::DumbbellConfig dc;
  dc.flows = 5;
  dc.rtt = units::microseconds(100);
  dc.marking = hysteresis ? core::MarkingConfig::dt_dctcp(40.0, 50.0)
                          : core::MarkingConfig::dctcp(40.0);
  dc.warmup = 0.05;
  dc.measure = 0.1;
  dc.trace_queue = true;
  dc.seed = 9;
  return dc;
}

void expect_bit_equal(const core::DumbbellResult& a,
                      const core::DumbbellResult& b) {
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.marks, b.marks);
  EXPECT_EQ(a.drops, b.drops);
  EXPECT_EQ(a.timeouts, b.timeouts);
  EXPECT_EQ(a.packets, b.packets);
  // Bit-exact, not approximate: the single-shard window protocol must
  // reduce to the very same run_until calls as the serial loop.
  EXPECT_EQ(a.queue_mean, b.queue_mean);
  EXPECT_EQ(a.queue_stddev, b.queue_stddev);
  EXPECT_EQ(a.queue_max, b.queue_max);
  EXPECT_EQ(a.alpha_mean, b.alpha_mean);
  EXPECT_EQ(a.goodput_bps, b.goodput_bps);
  ASSERT_EQ(a.queue_trace.size(), b.queue_trace.size());
  for (std::size_t i = 0; i < a.queue_trace.size(); ++i) {
    EXPECT_EQ(a.queue_trace.samples()[i].time, b.queue_trace.samples()[i].time);
    EXPECT_EQ(a.queue_trace.samples()[i].value,
              b.queue_trace.samples()[i].value);
  }
}

TEST(DumbbellParsim, OneShardBitEqualToSerialDctcp) {
  core::DumbbellConfig serial = paper_dumbbell(false);
  core::DumbbellConfig one = serial;
  one.shards = 1;
  expect_bit_equal(core::run_dumbbell(serial), core::run_dumbbell(one));
}

TEST(DumbbellParsim, OneShardBitEqualToSerialDtDctcp) {
  core::DumbbellConfig serial = paper_dumbbell(true);
  core::DumbbellConfig one = serial;
  one.shards = 1;
  expect_bit_equal(core::run_dumbbell(serial), core::run_dumbbell(one));
}

TEST(DumbbellParsim, MultiShardRejected) {
  core::DumbbellConfig dc = paper_dumbbell(false);
  dc.shards = 2;
  EXPECT_THROW(core::run_dumbbell(dc), std::invalid_argument);
}

}  // namespace
}  // namespace dtdctcp::parsim
