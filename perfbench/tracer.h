// Bench-owned span tracer and the timing wrappers it installs at the
// simulator's public virtual boundaries.
//
// A span records its layer, start, end, parent span and job. Per-layer
// self time (span duration minus the time its child spans cover) is
// accumulated per thread as spans close; the first spans of a run are
// also kept in memory and written out when the run ends. Spans nest on
// one thread only: a parsim shard's worker thread opens its own
// top-level spans, which is why every thread owns its own ThreadTrace.
//
// The wrappers only time and forward: they schedule no events and touch
// no simulation state, so a traced job must reproduce the untraced
// job's counters and digest exactly (the benchmark checks this).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "parsim/sharded_network.h"
#include "sim/host.h"
#include "sim/network.h"
#include "sim/queue_disc.h"
#include "sim/simulator.h"

namespace perfbench {

using dtdctcp::SimTime;
namespace sim = dtdctcp::sim;

enum class Layer : std::uint8_t {
  kSlice,        ///< one Simulator::run_until slice driven by the bench
  kNodeReceive,  ///< sim::Node::receive (switch forwarding, host demux)
  kEnqueue,      ///< sim::QueueDisc::enqueue
  kDequeue,      ///< sim::QueueDisc::dequeue
  kBypass,       ///< sim::QueueDisc::on_bypass
  kDeliver,      ///< sim::PacketSink::deliver (TCP sender / receiver)
  kMonitor,      ///< sim::QueueObserver::on_queue_change
  kCount,
};
constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::kCount);
const char* layer_name(Layer l);

struct LayerTotal {
  std::int64_t self_ns = 0;
  std::uint64_t calls = 0;
};

struct SpanRecord {
  std::uint32_t job;
  std::int32_t parent;  ///< index in the same thread's records, or -1
  Layer layer;
  std::int64_t start_ns;
  std::int64_t end_ns;
};

/// Everything one thread traced. Owned by the Tracer, so the totals of
/// a parsim worker survive the thread itself.
struct ThreadTrace {
  struct Frame {
    std::int64_t start;
    std::int64_t child;  ///< time covered by closed child spans
    std::int32_t record;
    Layer layer;
  };
  std::array<LayerTotal, kLayers> totals{};
  /// Time inside wrapped boundaries entered directly from the event
  /// loop (spans whose parent is a slice, or that have no parent).
  std::int64_t outer_ns = 0;
  double pending_sum = 0.0;  ///< Simulator::queue_size() samples
  std::uint64_t pending_samples = 0;
  /// Open spans. Nesting is bounded by the layer chain (slice, node,
  /// sink, queue, monitor, re-entered at most a few times per packet).
  std::array<Frame, 64> stack{};
  int depth = 0;
  std::vector<SpanRecord> records;
};

/// Sum over every thread's trace.
struct TraceTotals {
  std::array<LayerTotal, kLayers> layers{};
  std::int64_t outer_ns = 0;
  double pending_sum = 0.0;
  std::uint64_t pending_samples = 0;
  std::uint64_t spans = 0;
};

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// This thread's trace, registered with the tracer on first use.
ThreadTrace& local_trace();
/// Job id stamped on spans opened from now on.
void set_trace_job(std::uint32_t job);
/// Sums every thread's totals (call with no traced job running).
TraceTotals trace_totals();
/// Writes the recorded spans as CSV; returns the number written.
std::size_t write_spans(const std::string& path);

/// RAII span: opens on construction, closes (and attributes self time)
/// on destruction.
class Span {
 public:
  explicit Span(Layer layer);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  ThreadTrace* t_;
};

/// Per-job owner of the timing wrappers. With `on == false` every
/// method is the identity, so the same rebuilt workload code serves as
/// the plain (untimed) reference run and as the traced run.
class Instrument {
 public:
  explicit Instrument(bool on);
  ~Instrument();
  Instrument(const Instrument&) = delete;
  Instrument& operator=(const Instrument&) = delete;

  /// Wraps every discipline the factory builds in a timing QueueDisc.
  sim::QueueFactory wrap(sim::QueueFactory factory) const;
  /// The discipline a wrapper forwards to (`disc` itself when unwrapped).
  static sim::QueueDisc& inner(sim::QueueDisc& disc);

  /// Re-attaches every port's peer to a timing proxy of that node. With
  /// `sharded`, each proxy also samples its shard's pending events.
  void proxy_nodes(sim::Network& net,
                   dtdctcp::parsim::ShardedNetwork* sharded = nullptr);
  /// Re-binds `flow` on `host` to a timing proxy of `sink`.
  void wrap_flow(sim::Host& host, sim::FlowId flow, sim::PacketSink* sink);
  /// Subscribes `observer` to `disc`'s occupancy changes, timed.
  void observe(sim::QueueDisc& disc, sim::QueueObserver* observer);

  /// Simulator::run_until(t), in timed slices that sample queue_size().
  void advance(sim::Simulator& sim, SimTime t) const;
  /// Simulator::run(), in timed slices, until the queue drains.
  void drain(sim::Simulator& sim) const;

 private:
  bool on_;
  std::vector<std::unique_ptr<sim::Node>> nodes_;
  std::vector<std::unique_ptr<sim::PacketSink>> sinks_;
  std::vector<std::unique_ptr<sim::QueueObserver>> observers_;
};

}  // namespace perfbench
