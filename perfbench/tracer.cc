#include "tracer.h"

#include <atomic>
#include <cstdio>
#include <deque>
#include <mutex>
#include <unordered_map>

namespace perfbench {

namespace {

/// Simulated length of one timed slice of a serial run.
constexpr SimTime kSlice = 1e-3;
/// Spans kept in memory (and written out) per run; past it only the
/// per-layer totals grow.
constexpr std::int64_t kRecordBudget = 100000;
/// A parsim node proxy samples its shard's queue every this many packets.
constexpr std::uint64_t kPendingSampleEvery = 64;

struct Tracer {
  std::mutex mu;
  std::deque<ThreadTrace> threads;  ///< stable addresses; guarded by mu
  std::atomic<std::uint32_t> job{0};
  std::atomic<std::int64_t> records_left{kRecordBudget};
};

Tracer& tracer() {
  static Tracer t;
  return t;
}

bool take_record() {
  std::atomic<std::int64_t>& left = tracer().records_left;
  return left.load(std::memory_order_relaxed) > 0 &&
         left.fetch_sub(1, std::memory_order_relaxed) > 0;
}

class TimedDisc final : public sim::QueueDisc {
 public:
  explicit TimedDisc(std::unique_ptr<sim::QueueDisc> inner)
      : inner_(std::move(inner)) {}

  sim::QueueDisc& inner() { return *inner_; }
  std::size_t packets() const override { return inner_->packets(); }
  std::size_t bytes() const override { return inner_->bytes(); }
  sim::Counters counters() const override { return inner_->counters(); }

 protected:
  sim::EnqueueResult do_enqueue(sim::Packet& pkt, SimTime now) override {
    Span s(Layer::kEnqueue);
    return inner_->enqueue(pkt, now);
  }
  bool do_dequeue(sim::Packet& out, SimTime now) override {
    Span s(Layer::kDequeue);
    return inner_->dequeue(out, now);
  }
  void do_bypass(sim::Packet& pkt, SimTime now) override {
    Span s(Layer::kBypass);
    inner_->on_bypass(pkt, now);
  }

 private:
  std::unique_ptr<sim::QueueDisc> inner_;
};

class TimedObserver final : public sim::QueueObserver {
 public:
  explicit TimedObserver(sim::QueueObserver* inner) : inner_(inner) {}
  void on_queue_change(SimTime now, std::size_t pkts,
                       std::size_t bytes) override {
    Span s(Layer::kMonitor);
    inner_->on_queue_change(now, pkts, bytes);
  }

 private:
  sim::QueueObserver* inner_;
};

class TimedSink final : public sim::PacketSink {
 public:
  explicit TimedSink(sim::PacketSink* inner) : inner_(inner) {}
  void deliver(sim::Packet pkt) override {
    Span s(Layer::kDeliver);
    inner_->deliver(std::move(pkt));
  }

 private:
  sim::PacketSink* inner_;
};

/// Stands in for a node as its ports' peer; keeps the node's id so
/// routing and partitioning see the same topology.
class TimedNode final : public sim::Node {
 public:
  TimedNode(sim::Node* inner, const sim::Simulator* shard_sim)
      : sim::Node(inner->id(), inner->name()),
        inner_(inner),
        shard_sim_(shard_sim) {}

  void receive(sim::Packet pkt) override {
    if (shard_sim_ != nullptr && ++arrivals_ % kPendingSampleEvery == 0) {
      ThreadTrace& t = local_trace();
      t.pending_sum += static_cast<double>(shard_sim_->queue_size());
      ++t.pending_samples;
    }
    Span s(Layer::kNodeReceive);
    inner_->receive(std::move(pkt));
  }

 private:
  sim::Node* inner_;
  const sim::Simulator* shard_sim_;
  std::uint64_t arrivals_ = 0;
};

void sample_pending(const sim::Simulator& sim) {
  ThreadTrace& t = local_trace();
  t.pending_sum += static_cast<double>(sim.queue_size());
  ++t.pending_samples;
}

}  // namespace

const char* layer_name(Layer l) {
  static constexpr std::array<const char*, kLayers> kNames = {
      "slice", "node.receive", "queue.enqueue", "queue.dequeue",
      "queue.bypass", "tcp.deliver", "stats.monitor"};
  return kNames[static_cast<std::size_t>(l)];
}

ThreadTrace& local_trace() {
  thread_local ThreadTrace* t = nullptr;
  if (t == nullptr) {
    Tracer& tr = tracer();
    std::lock_guard<std::mutex> lk(tr.mu);
    t = &tr.threads.emplace_back();
  }
  return *t;
}

void set_trace_job(std::uint32_t job) {
  tracer().job.store(job, std::memory_order_relaxed);
}

TraceTotals trace_totals() {
  Tracer& tr = tracer();
  std::lock_guard<std::mutex> lk(tr.mu);
  TraceTotals out;
  for (const ThreadTrace& t : tr.threads) {
    for (std::size_t l = 0; l < kLayers; ++l) {
      out.layers[l].self_ns += t.totals[l].self_ns;
      out.layers[l].calls += t.totals[l].calls;
      out.spans += t.totals[l].calls;
    }
    out.outer_ns += t.outer_ns;
    out.pending_sum += t.pending_sum;
    out.pending_samples += t.pending_samples;
  }
  return out;
}

std::size_t write_spans(const std::string& path) {
  Tracer& tr = tracer();
  std::lock_guard<std::mutex> lk(tr.mu);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return 0;
  std::fprintf(f, "thread,span,parent,job,name,start_ns,end_ns\n");
  std::size_t n = 0;
  std::size_t thread = 0;
  for (const ThreadTrace& t : tr.threads) {
    for (std::size_t i = 0; i < t.records.size(); ++i) {
      const SpanRecord& r = t.records[i];
      std::fprintf(f, "%zu,%zu,%d,%u,%s,%lld,%lld\n", thread, i, r.parent,
                   r.job, layer_name(r.layer),
                   static_cast<long long>(r.start_ns),
                   static_cast<long long>(r.end_ns));
      ++n;
    }
    ++thread;
  }
  std::fclose(f);
  return n;
}

Span::Span(Layer layer) : t_(&local_trace()) {
  ThreadTrace::Frame& f = t_->stack[static_cast<std::size_t>(t_->depth)];
  f.layer = layer;
  f.child = 0;
  f.record = -1;
  if (take_record()) {
    f.record = static_cast<std::int32_t>(t_->records.size());
    const std::int32_t parent =
        t_->depth > 0 ? t_->stack[static_cast<std::size_t>(t_->depth - 1)]
                            .record
                      : -1;
    t_->records.push_back(
        SpanRecord{tracer().job.load(std::memory_order_relaxed), parent,
                   layer, 0, 0});
  }
  ++t_->depth;
  f.start = now_ns();
}

Span::~Span() {
  const std::int64_t end = now_ns();
  --t_->depth;
  const ThreadTrace::Frame& f = t_->stack[static_cast<std::size_t>(t_->depth)];
  const std::int64_t dur = end - f.start;
  LayerTotal& total = t_->totals[static_cast<std::size_t>(f.layer)];
  total.self_ns += dur - f.child;
  ++total.calls;
  if (t_->depth > 0) {
    ThreadTrace::Frame& parent =
        t_->stack[static_cast<std::size_t>(t_->depth - 1)];
    parent.child += dur;
    if (parent.layer == Layer::kSlice) t_->outer_ns += dur;
  } else if (f.layer != Layer::kSlice) {
    t_->outer_ns += dur;
  }
  if (f.record >= 0) {
    SpanRecord& r = t_->records[static_cast<std::size_t>(f.record)];
    r.start_ns = f.start;
    r.end_ns = end;
  }
}

Instrument::Instrument(bool on) : on_(on) {}
Instrument::~Instrument() = default;

sim::QueueFactory Instrument::wrap(sim::QueueFactory factory) const {
  if (!on_) return factory;
  return [factory = std::move(factory)]() -> std::unique_ptr<sim::QueueDisc> {
    return std::make_unique<TimedDisc>(factory());
  };
}

sim::QueueDisc& Instrument::inner(sim::QueueDisc& disc) {
  auto* timed = dynamic_cast<TimedDisc*>(&disc);
  return timed != nullptr ? timed->inner() : disc;
}

void Instrument::proxy_nodes(sim::Network& net,
                             dtdctcp::parsim::ShardedNetwork* sharded) {
  if (!on_) return;
  std::unordered_map<sim::Node*, sim::Node*> proxy;
  auto reattach = [&](sim::Port& port) {
    sim::Node*& p = proxy[port.peer()];
    if (p == nullptr) {
      const sim::Simulator* shard_sim =
          sharded != nullptr ? &sharded->sim_for(port.peer()->id()) : nullptr;
      nodes_.push_back(std::make_unique<TimedNode>(port.peer(), shard_sim));
      p = nodes_.back().get();
    }
    port.attach_peer(p);
  };
  for (const auto& node : net.nodes()) {
    if (auto* host = dynamic_cast<sim::Host*>(node.get())) {
      if (host->has_uplink()) reattach(host->uplink());
    } else if (auto* sw = dynamic_cast<sim::Switch*>(node.get())) {
      for (std::size_t p = 0; p < sw->port_count(); ++p) reattach(sw->port(p));
    }
  }
}

void Instrument::wrap_flow(sim::Host& host, sim::FlowId flow,
                           sim::PacketSink* sink) {
  if (!on_) return;
  sinks_.push_back(std::make_unique<TimedSink>(sink));
  host.bind_flow(flow, sinks_.back().get());
}

void Instrument::observe(sim::QueueDisc& disc, sim::QueueObserver* observer) {
  if (!on_) {
    disc.set_observer(observer);
    return;
  }
  observers_.push_back(std::make_unique<TimedObserver>(observer));
  disc.set_observer(observers_.back().get());
}

void Instrument::advance(sim::Simulator& sim, SimTime t) const {
  if (!on_) {
    sim.run_until(t);
    return;
  }
  // run_until in pieces runs the same events in the same order: each
  // piece runs everything at or before its end, and nothing the bench
  // does between pieces schedules events.
  do {
    const SimTime next = sim.now() + kSlice < t ? sim.now() + kSlice : t;
    {
      Span s(Layer::kSlice);
      sim.run_until(next);
    }
    sample_pending(sim);
  } while (sim.now() < t);
}

void Instrument::drain(sim::Simulator& sim) const {
  if (!on_) {
    sim.run();
    return;
  }
  while (!sim.empty()) {
    {
      Span s(Layer::kSlice);
      sim.run_until(sim.now() + kSlice);
    }
    sample_pending(sim);
  }
}

}  // namespace perfbench
