#include "workloads.h"

#include <bit>
#include <chrono>
#include <ctime>
#include <functional>
#include <memory>
#include <stdexcept>

#include "parsim/partition.h"
#include "parsim/shard_runner.h"
#include "queue/factory.h"
#include "sim/leaf_spine.h"
#include "sim/queue_monitor.h"
#include "stats/percentile.h"
#include "stats/streaming.h"
#include "tcp/connection.h"
#include "util/rng.h"
#include "workload/long_lived.h"

namespace perfbench {

namespace core = dtdctcp::core;
namespace parsim = dtdctcp::parsim;
namespace queue = dtdctcp::queue;
namespace tcp = dtdctcp::tcp;
namespace units = dtdctcp::units;
namespace workload = dtdctcp::workload;

namespace {

/// FNV-1a over 64-bit words; doubles hash by bit pattern, so equal
/// digests mean equal results at full precision.
struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  void mix(double v) { mix(std::bit_cast<std::uint64_t>(v)); }
};

/// Fabric jobs (one seed each) per round.
constexpr std::size_t kFabricSeeds = 16;

std::uint64_t job_seed(std::uint64_t seed, std::uint64_t job) {
  // splitmix64: distinct, well-spread seeds per (run seed, job).
  std::uint64_t x = seed * 0x9e3779b97f4a7c15ULL + job + 1;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// CPU time of every thread of this process, those that have exited
/// included. The kernel leaves out time the hypervisor stole.
double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

std::uint64_t digest(const core::DumbbellResult& r) {
  Fnv f;
  for (double v : {r.queue_mean, r.queue_stddev, r.queue_min, r.queue_max,
                   r.alpha_mean, r.utilization, r.goodput_bps}) {
    f.mix(v);
  }
  for (std::uint64_t v : {r.marks, r.drops, r.timeouts, r.events, r.packets}) {
    f.mix(v);
  }
  return f.h;
}

std::uint64_t digest(const core::IncastExperimentResult& r) {
  Fnv f;
  for (double v : {r.goodput_mean_bps, r.completion_mean_s, r.completion_p99_s,
                   r.completion_max_s, r.completion_min_s}) {
    f.mix(v);
  }
  for (std::uint64_t v : {r.timeouts, r.drops, r.marks,
                          static_cast<std::uint64_t>(r.queries)}) {
    f.mix(v);
  }
  return f.h;
}

std::uint64_t digest(const parsim::FabricResult& r) {
  Fnv f;
  for (std::uint64_t v :
       {r.events, r.fabric_packets, r.marks, r.drops, r.flows, r.completed,
        r.link_down_drops, r.digest, static_cast<std::uint64_t>(r.ledger_ok),
        r.check_violations,
        static_cast<std::uint64_t>(r.telemetry.shards), r.telemetry.rounds}) {
    f.mix(v);
  }
  for (double v : {r.sum_fct, r.max_fct, r.p99_fct}) f.mix(v);
  for (const parsim::ShardStats& s : r.telemetry.shard) {
    for (std::uint64_t v :
         {s.events, s.windows, s.drained, s.exported, s.mailbox_peak}) {
      f.mix(v);
    }
  }
  return f.h;
}

void add_sender(Outcome& out, const tcp::TcpSender& s) {
  out.segments_sent += s.segments_sent();
  out.retransmits += s.retransmissions();
}

// --- dumbbell: a copy of core::run_dumbbell (serial path) -------------

core::DumbbellResult rebuilt_dumbbell(const core::DumbbellConfig& cfg,
                                      Instrument& ins, Outcome& out) {
  sim::Network net;
  const SimTime leg = cfg.rtt / 4.0;
  sim::Switch& sw = net.add_switch("sw0");
  sim::Host& sink = net.add_host("sink");

  const auto edge_queue = ins.wrap(queue::drop_tail(0, 0));
  const sim::QueueFactory bneck_queue = ins.wrap(cfg.marking.queue_factory(
      cfg.switch_buffer_bytes, cfg.switch_buffer_packets));
  const std::size_t bneck_port = net.attach_host(
      sink, sw, cfg.bottleneck_bps, leg, edge_queue, bneck_queue);

  std::vector<sim::Host*> senders;
  senders.reserve(cfg.flows);
  for (std::size_t i = 0; i < cfg.flows; ++i) {
    sim::Host& h = net.add_host("sender" + std::to_string(i));
    net.attach_host(h, sw, cfg.edge_bps, leg, edge_queue, edge_queue);
    senders.push_back(&h);
  }
  net.build_routes();

  sim::QueueDisc& disc = Instrument::inner(sw.port(bneck_port).disc());
  sim::QueueMonitor monitor;
  monitor.attach(disc, cfg.trace_queue);
  ins.observe(disc, &monitor);

  workload::LongLivedGroup group(net, senders, sink, cfg.tcp,
                                 cfg.start_spread, cfg.seed);
  for (std::size_t i = 0; i < group.size(); ++i) {
    tcp::Connection& c = group.conn(i);
    ins.wrap_flow(*senders[i], c.flow(), &c.sender());
    ins.wrap_flow(sink, c.flow(), &c.receiver());
  }
  ins.proxy_nodes(net);

  core::DumbbellResult result;
  const SimTime alpha_every =
      cfg.alpha_sample_every > 0.0 ? cfg.alpha_sample_every : cfg.rtt;
  dtdctcp::stats::Streaming alpha_stats;
  std::function<void()> sample_alpha = [&] {
    const double a = group.mean_alpha();
    alpha_stats.add(a);
    result.alpha_trace.add(net.sim().now(), a);
    net.sim().after(alpha_every, sample_alpha);
  };

  ins.advance(net.sim(), cfg.warmup);
  monitor.reset_stats(cfg.warmup);
  auto sink_bytes = [&] {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < group.size(); ++i) {
      total += group.conn(i).receiver().bytes_received();
    }
    return total;
  };
  const std::uint64_t sink_bytes_at_warmup = sink_bytes();
  net.sim().after(0.0, sample_alpha);

  const SimTime end = cfg.warmup + cfg.measure;
  ins.advance(net.sim(), end);
  monitor.finish(end);

  result.queue_mean = monitor.packets().mean();
  result.queue_stddev = monitor.packets().stddev();
  result.queue_min = monitor.packets().min();
  result.queue_max = monitor.packets().max();
  result.alpha_mean = alpha_stats.mean();
  result.marks = disc.marks();
  result.drops = disc.drops();
  result.timeouts = group.total_timeouts();
  result.events = net.sim().events_processed();
  result.packets = sw.port(bneck_port).packets_sent();
  const double delivered =
      static_cast<double>(sink_bytes() - sink_bytes_at_warmup);
  result.goodput_bps = delivered * 8.0 / cfg.measure;
  result.utilization = result.goodput_bps / cfg.bottleneck_bps;

  out.timers_cancelled = net.sim().timers_cancelled();
  out.past_clamps = net.sim().past_schedule_clamps();
  out.switches = sw.counters();
  for (std::size_t i = 0; i < group.size(); ++i) {
    add_sender(out, group.conn(i).sender());
  }
  return result;
}

// --- incast: copies of core::build_testbed, workload::IncastRunner
// (persistent connections) and core::run_incast ------------------------

class IncastLoop {
 public:
  IncastLoop(sim::Network& net, std::vector<sim::Host*> workers,
             sim::Host& aggregator, const core::IncastExperimentConfig& cfg,
             Instrument& ins, Outcome& out)
      : net_(net), workers_(std::move(workers)), aggregator_(aggregator),
        cfg_(cfg), ins_(ins), out_(out), rng_(cfg.seed) {}

  void start() { launch_query(/*first=*/true); }

  dtdctcp::stats::PercentileTracker& completion_times() { return completions_; }
  double mean_goodput_bps() const {
    if (goodputs_.empty()) return 0.0;
    double sum = 0.0;
    for (double g : goodputs_) sum += g;
    return sum / static_cast<double>(goodputs_.size());
  }
  std::size_t queries_completed() const { return completed_; }
  std::uint64_t total_timeouts() const { return timeouts_; }
  SimTime last_completion() const { return next_query_start_; }

 private:
  void launch_query(bool first) {
    pending_ = workers_.size();
    query_start_ = next_query_start_;
    const auto segs = static_cast<std::int64_t>(
        (cfg_.bytes_per_worker + cfg_.tcp.mss_bytes - 1) / cfg_.tcp.mss_bytes);
    if (first) {
      for (sim::Host* w : workers_) {
        auto conn = std::make_unique<tcp::Connection>(net_, *w, aggregator_,
                                                      cfg_.tcp, segs);
        conn->set_on_complete([this](SimTime t) { on_flow_done(t); });
        conn->start_at(query_start_ + jitter());
        ins_.wrap_flow(*w, conn->flow(), &conn->sender());
        ins_.wrap_flow(aggregator_, conn->flow(), &conn->receiver());
        conns_.push_back(std::move(conn));
      }
    } else {
      for (auto& conn : conns_) conn->extend(segs);
    }
    timeouts_at_query_start_ = current_timeouts();
  }

  SimTime jitter() {
    return cfg_.request_jitter > 0.0 ? rng_.uniform(0.0, cfg_.request_jitter)
                                     : 0.0;
  }

  std::uint64_t current_timeouts() const {
    std::uint64_t total = 0;
    for (const auto& c : conns_) total += c->sender().timeouts();
    return total;
  }

  void on_flow_done(SimTime t) {
    if (--pending_ > 0) return;
    const double fct = t - query_start_;
    completions_.add(fct);
    const double bytes = static_cast<double>(cfg_.bytes_per_worker) *
                         static_cast<double>(workers_.size());
    goodputs_.push_back(bytes * 8.0 / fct);
    timeouts_ += current_timeouts() - timeouts_at_query_start_;
    ++completed_;
    net_.sim().after(0.0, [this, t] {
      next_query_start_ = t;
      if (completed_ < cfg_.repetitions) {
        launch_query(/*first=*/false);
      } else {
        for (const auto& c : conns_) add_sender(out_, c->sender());
        conns_.clear();
      }
    });
  }

  sim::Network& net_;
  std::vector<sim::Host*> workers_;
  sim::Host& aggregator_;
  const core::IncastExperimentConfig& cfg_;
  Instrument& ins_;
  Outcome& out_;
  dtdctcp::Rng rng_;

  std::vector<std::unique_ptr<tcp::Connection>> conns_;
  std::size_t pending_ = 0;
  SimTime query_start_ = 0.0;
  SimTime next_query_start_ = 0.0;
  std::size_t completed_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t timeouts_at_query_start_ = 0;
  dtdctcp::stats::PercentileTracker completions_;
  std::vector<double> goodputs_;
};

core::IncastExperimentResult rebuilt_incast(
    const core::IncastExperimentConfig& cfg, Instrument& ins, Outcome& out) {
  const core::TestbedConfig& tb = cfg.testbed;
  sim::Network net;
  sim::Switch& sw1 = net.add_switch("sw1");
  const auto plain = ins.wrap(queue::drop_tail(tb.edge_buffer_bytes, 0));
  const auto host_nic = ins.wrap(queue::drop_tail(0, 0));
  sim::Host& agg = net.add_host("aggregator");
  const std::size_t bneck_port = net.attach_host(
      agg, sw1, tb.link_bps, tb.host_link_delay, host_nic,
      ins.wrap(tb.marking.queue_factory(tb.bottleneck_buffer_bytes, 0)));
  std::vector<sim::Switch*> switches = {&sw1};
  for (int i = 0; i < 3; ++i) {
    switches.push_back(&net.add_switch("sw" + std::to_string(i + 2)));
    net.connect_switches(sw1, *switches.back(), tb.link_bps,
                         tb.trunk_link_delay, plain, plain);
  }
  std::vector<sim::Host*> workers;
  for (std::size_t w = 0; w < cfg.flows; ++w) {
    sim::Host& h = net.add_host("worker" + std::to_string(w));
    net.attach_host(h, *switches[1 + w % 3], tb.link_bps, tb.host_link_delay,
                    host_nic, plain);
    workers.push_back(&h);
  }
  net.build_routes();

  IncastLoop loop(net, workers, agg, cfg, ins, out);
  loop.start();
  ins.proxy_nodes(net);
  ins.drain(net.sim());

  core::IncastExperimentResult result;
  result.queries = loop.queries_completed();
  result.goodput_mean_bps = loop.mean_goodput_bps();
  auto& ct = loop.completion_times();
  result.completion_mean_s = ct.mean();
  result.completion_p99_s = ct.p99();
  result.completion_max_s = ct.max();
  result.completion_min_s = ct.min();
  result.timeouts = loop.total_timeouts();
  sim::QueueDisc& bneck = Instrument::inner(sw1.port(bneck_port).disc());
  result.drops = bneck.drops();
  result.marks = bneck.marks();

  out.sim_s = loop.last_completion();
  out.events = net.sim().events_processed();
  out.timers_cancelled = net.sim().timers_cancelled();
  out.past_clamps = net.sim().past_schedule_clamps();
  for (sim::Switch* sw : switches) {
    out.switches += sw->counters();
    for (std::size_t p = 0; p < sw->port_count(); ++p) {
      out.pkts += sw->port(p).packets_sent();
    }
  }
  return result;
}

// --- fabric: a copy of parsim::run_fabric (leaf-spine, sharded) -------

parsim::FabricResult rebuilt_fabric(const parsim::FabricConfig& cfg,
                                    Instrument& ins, Outcome& out) {
  parsim::FabricResult res;
  const sim::QueueFactory switch_queue = ins.wrap(queue::ecn_threshold(
      0, cfg.buffer_packets, cfg.mark_threshold_packets,
      queue::ThresholdUnit::kPackets));
  sim::LeafSpine ls = sim::build_leaf_spine(cfg.fabric, switch_queue);
  sim::Network& net = *ls.net;

  parsim::ShardedNetwork sharded(
      net, parsim::leaf_spine_partition(ls, cfg.fabric, cfg.shards));
  parsim::ShardRunnerOptions opts;
  opts.check = cfg.check;
  opts.check_cfg = cfg.check_cfg;
  parsim::ShardRunner runner(sharded, opts);
  ins.proxy_nodes(net, &sharded);

  const std::size_t n = ls.hosts.size();
  const std::size_t group = cfg.fabric.hosts_per_leaf;
  dtdctcp::Rng rng(cfg.seed);
  std::vector<std::unique_ptr<tcp::Connection>> conns;
  conns.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    sim::Host& src = *ls.hosts[i];
    sim::Host& dst = *ls.hosts[(i + group) % n];
    auto conn = std::make_unique<tcp::Connection>(
        net, sharded.sim_for(src.id()), sharded.sim_for(dst.id()), src, dst,
        cfg.tcp, cfg.segments_per_flow);
    conn->start_at(cfg.start_spread > 0.0 ? rng.uniform(0.0, cfg.start_spread)
                                          : 0.0);
    ins.wrap_flow(src, conn->flow(), &conn->sender());
    ins.wrap_flow(dst, conn->flow(), &conn->receiver());
    conns.push_back(std::move(conn));
  }
  res.flows = n;

  const auto t0 = std::chrono::steady_clock::now();
  runner.run();
  res.ledger_ok = runner.finalize();
  res.telemetry = runner.telemetry();
  for (const auto& c : runner.checkers()) {
    if (c != nullptr) res.check_violations += c->violation_count();
  }
  for (std::size_t s = 0; s < sharded.shards(); ++s) {
    sim::Simulator& ss = sharded.shard_sim(s);
    res.events += ss.events_processed();
    out.timers_cancelled += ss.timers_cancelled();
    out.past_clamps += ss.past_schedule_clamps();
    if (ss.now() > out.sim_s) out.sim_s = ss.now();
  }
  res.wall_seconds = seconds_since(t0);

  // The flow and switch fingerprint of parsim::run_fabric, folded in
  // the same order so the two digests are comparable.
  Fnv d;
  dtdctcp::stats::PercentileTracker fct_tracker;
  for (const auto& conn : conns) {
    const tcp::TcpSender& snd = conn->sender();
    if (snd.completed()) {
      ++res.completed;
      const double fct = snd.completion_time() - snd.start_time();
      res.sum_fct += fct;
      if (fct > res.max_fct) res.max_fct = fct;
      fct_tracker.add(fct);
    }
    d.mix(static_cast<std::uint64_t>(conn->flow()));
    d.mix(snd.completion_time());
    d.mix(static_cast<std::uint64_t>(snd.retransmissions()));
    d.mix(static_cast<std::uint64_t>(snd.timeouts()));
    d.mix(snd.alpha());
    d.mix(static_cast<std::uint64_t>(conn->receiver().bytes_received()));
    add_sender(out, snd);
    out.timeouts += snd.timeouts();
  }
  res.p99_fct = fct_tracker.p99();
  auto fold_switch = [&](sim::Switch* sw) {
    const sim::Counters c = sw->counters();
    for (std::uint64_t v :
         {c.offered, c.enqueued, c.dequeued, c.bypassed, c.dropped, c.marked,
          c.sent_packets, c.sent_bytes, c.unrouted_dropped,
          c.unbound_dropped}) {
      d.mix(v);
    }
    out.switches += c;
    res.marks += c.marked;
    res.drops += c.dropped + c.unrouted_dropped;
    for (std::size_t p = 0; p < sw->port_count(); ++p) {
      res.fabric_packets += sw->port(p).packets_sent();
      res.link_down_drops += sw->port(p).link_down_drops();
    }
  };
  for (sim::Switch* sw : ls.leaves) fold_switch(sw);
  for (sim::Switch* sw : ls.spines) fold_switch(sw);
  res.digest = d.h;
  return res;
}

}  // namespace

bool parse_workload(const std::string& name, Workload& out) {
  if (name == "dumbbell_longlived") {
    out = Workload::kDumbbell;
  } else if (name == "incast_query") {
    out = Workload::kIncast;
  } else if (name == "fabric_sharded") {
    out = Workload::kFabric;
  } else {
    return false;
  }
  return true;
}

std::vector<Job> make_jobs(Workload w, std::uint64_t seed, bool tiny) {
  std::vector<Job> jobs;
  switch (w) {
    case Workload::kDumbbell: {
      // Paper §VI-A: 10 Gbps, 100 us RTT, 100-packet buffer, long-lived
      // flows. Two N give the kernel two heap depths; the two rules
      // exercise both marking state machines.
      for (const std::size_t n : {std::size_t{10}, std::size_t{100}}) {
        for (const bool dt : {false, true}) {
          Job j;
          j.kind = w;
          j.name = std::string(dt ? "dt30_50_N" : "dctcp40_N") +
                   std::to_string(n);
          core::DumbbellConfig& c = j.dumbbell;
          c.flows = n;
          c.bottleneck_bps = units::gbps(10);
          c.edge_bps = units::gbps(10);
          c.rtt = units::microseconds(100);
          c.switch_buffer_packets = 100;
          c.marking = dt ? core::MarkingConfig::dt_dctcp(30.0, 50.0)
                         : core::MarkingConfig::dctcp(40.0);
          c.warmup = tiny ? 0.002 : 0.05;
          c.measure = tiny ? 0.008 : 0.15;
          c.seed = job_seed(seed, jobs.size());
          jobs.push_back(std::move(j));
        }
      }
      break;
    }
    case Workload::kIncast: {
      // Paper Fig. 14 testbed: 40 synchronized workers, 64 KB each, over
      // persistent connections, 200 ms min-RTO; DCTCP and DT-DCTCP.
      for (const bool dt : {false, true}) {
        Job j;
        j.kind = w;
        j.name = dt ? "W40_dt28K_34K" : "W40_dctcp32K";
        core::IncastExperimentConfig& c = j.incast;
        c.flows = 40;
        c.bytes_per_worker = 64 * 1024;
        c.repetitions = tiny ? 3 : 150;
        c.tcp.mode = tcp::CcMode::kDctcp;
        c.tcp.min_rto = 0.2;
        c.tcp.init_rto = 0.2;
        c.testbed.marking =
            dt ? core::MarkingConfig::dt_dctcp(28 * 1024, 34 * 1024,
                                               queue::ThresholdUnit::kBytes)
               : core::MarkingConfig::dctcp(32 * 1024,
                                            queue::ThresholdUnit::kBytes);
        c.seed = job_seed(seed, jobs.size());
        jobs.push_back(std::move(j));
      }
      break;
    }
    case Workload::kFabric: {
      // 256-host leaf-spine, cross-rack permutation of finite DCTCP
      // flows, on a fixed shard count. Datacenter 2 ms RTO, as in
      // ext_fabric_fct: with the 200 ms paper-era RTO one loss stretches
      // a job's simulated time 50-fold and the metrics measure timeout
      // luck. Sixteen seeds per round average out per-seed differences
      // in the drain tail (its simulated length and parsim round count
      // vary 20-30% between seeds): the round's simulated time varies 2%
      // between run seeds, against 4% with eight 1000-segment jobs.
      for (std::size_t k = 0; k < kFabricSeeds; ++k) {
        Job j;
        j.kind = w;
        j.name = "stress_shards" + std::to_string(kFabricShards) + "_job" +
                 std::to_string(k);
        parsim::FabricConfig& c = j.fabric;
        c.fabric = sim::LeafSpineConfig::stress();
        c.shards = kFabricShards;
        c.tcp.min_rto = 2e-3;
        c.tcp.init_rto = 2e-3;
        c.segments_per_flow = tiny ? 20 : 500;
        c.seed = job_seed(seed, k);
        jobs.push_back(std::move(j));
      }
      break;
    }
  }
  return jobs;
}

Outcome run_harness(const Job& job) {
  Outcome out;
  const double cpu0 = process_cpu_seconds();
  const auto t0 = std::chrono::steady_clock::now();
  switch (job.kind) {
    case Workload::kDumbbell: {
      const core::DumbbellResult r = core::run_dumbbell(job.dumbbell);
      out.wall_s = seconds_since(t0);
      out.digest = digest(r);
      out.pkts = r.packets;
      out.events = r.events;
      // Long-lived flows: each one counts once its window has run.
      out.flows = out.flows_done = job.dumbbell.flows;
      out.sim_s = job.dumbbell.warmup + job.dumbbell.measure;
      out.timeouts = r.timeouts;
      break;
    }
    case Workload::kIncast: {
      const core::IncastExperimentResult r = core::run_incast(job.incast);
      out.wall_s = seconds_since(t0);
      out.digest = digest(r);
      // One flow per worker response.
      out.flows = job.incast.flows * job.incast.repetitions;
      out.flows_done = job.incast.flows * r.queries;
      out.timeouts = r.timeouts;
      break;
    }
    case Workload::kFabric: {
      const parsim::FabricResult r = parsim::run_fabric(job.fabric);
      out.wall_s = seconds_since(t0);
      out.setup_s = out.wall_s - r.wall_seconds;
      out.digest = digest(r);
      out.pkts = r.fabric_packets;
      out.events = r.events;
      out.flows = r.flows;
      out.flows_done = r.completed;
      out.ledger_ok = r.ledger_ok;
      out.check_violations = r.check_violations;
      out.telemetry = r.telemetry;
      break;
    }
  }
  out.cpu_s = process_cpu_seconds() - cpu0;
  return out;
}

double run_setup(const Job& job) {
  const auto t0 = std::chrono::steady_clock::now();
  switch (job.kind) {
    case Workload::kDumbbell: {
      core::DumbbellConfig c = job.dumbbell;
      c.warmup = 0.0;
      c.measure = 0.0;
      core::run_dumbbell(c);
      break;
    }
    case Workload::kIncast: {
      core::IncastExperimentConfig c = job.incast;
      c.bytes_per_worker = 1;
      c.repetitions = 1;
      core::run_incast(c);
      break;
    }
    case Workload::kFabric:
      throw std::logic_error(
          "fabric set-up is measured inside each job (call minus run time)");
  }
  return seconds_since(t0);
}

Outcome run_rebuilt(const Job& job, Instrument& ins) {
  Outcome out;
  const auto t0 = std::chrono::steady_clock::now();
  switch (job.kind) {
    case Workload::kDumbbell: {
      const core::DumbbellResult r = rebuilt_dumbbell(job.dumbbell, ins, out);
      out.wall_s = seconds_since(t0);
      out.digest = digest(r);
      out.pkts = r.packets;
      out.events = r.events;
      out.flows = out.flows_done = job.dumbbell.flows;
      out.sim_s = job.dumbbell.warmup + job.dumbbell.measure;
      out.timeouts = r.timeouts;
      break;
    }
    case Workload::kIncast: {
      const core::IncastExperimentResult r =
          rebuilt_incast(job.incast, ins, out);
      out.wall_s = seconds_since(t0);
      out.digest = digest(r);
      out.flows = job.incast.flows * job.incast.repetitions;
      out.flows_done = job.incast.flows * r.queries;
      out.timeouts = r.timeouts;
      break;
    }
    case Workload::kFabric: {
      const parsim::FabricResult r = rebuilt_fabric(job.fabric, ins, out);
      out.wall_s = seconds_since(t0);
      out.setup_s = out.wall_s - r.wall_seconds;
      out.digest = digest(r);
      out.pkts = r.fabric_packets;
      out.events = r.events;
      out.flows = r.flows;
      out.flows_done = r.completed;
      out.ledger_ok = r.ledger_ok;
      out.check_violations = r.check_violations;
      out.telemetry = r.telemetry;
      break;
    }
  }
  return out;
}

}  // namespace perfbench
