// Egress port: queue discipline + transmitter + point-to-point link.
//
// Model: a packet offered to a port is transmitted immediately when the
// transmitter is idle and the queue empty (the discipline still gets to
// observe/mark it via on_bypass); otherwise it is offered to the queue
// discipline, which may drop or ECN-mark it. Serialization takes
// size*8/rate seconds; the packet then propagates for `delay` seconds and
// is delivered to the peer node. The pipe holds arbitrarily many packets
// in flight, like a real wire.
//
// The kernel delivers each packet at its own key — tx start + (tx +
// prop), with the insertion sequence number taken when the packet
// starts serializing — through its delay lanes (see simulator.h): the
// arrival joins the lane of delay tx + prop, the transmitter release
// the lane of delay tx. The port memoizes both lane ids for the packet
// sizes it sends last, and counts its packets in flight itself.
//
// Releasing the transmitter when a transmission ends is an event only
// when a packet is queued behind it. The port reserves the release's
// key (now + tx, next seq) where the event would be scheduled, inserts
// it at once if the queue holds packets, and otherwise defers it: the
// kernel keeps the key for its horizon (next_event_time) but queues
// nothing. A packet queued behind a deferred release inserts it with its
// reserved key (into its lane when it still orders last there, else
// into the heap). Otherwise the port settles the release on its next
// touch (send, drop_queued) once Simulator::passed says it would have
// fired: it frees the transmitter and replays the empty dequeue at the
// release time, because an empty dequeue is not always a no-op (CoDel
// resets its above-target clock, WRR refills the current class's
// credit). Disc calls only come from the port, so the discipline sees
// the same calls, with the same times, in the same order as if every
// release were an event.
#pragma once

#include <cstdint>
#include <memory>

#include "sim/counters.h"
#include "sim/node.h"
#include "sim/packet.h"
#include "sim/queue_disc.h"
#include "sim/simulator.h"
#include "util/units.h"

namespace dtdctcp::parsim {
class Mailbox;
}  // namespace dtdctcp::parsim

namespace dtdctcp::sim {

class Port {
 public:
  Port(Simulator& sim, DataRate rate_bps, SimTime prop_delay,
       std::unique_ptr<QueueDisc> disc)
      : sim_(&sim), rate_bps_(rate_bps), prop_delay_(prop_delay),
        disc_(std::move(disc)) {}
  // Kernel events (transmitter release, arrival) hold the port's
  // address.
  Port(const Port&) = delete;
  Port& operator=(const Port&) = delete;

  /// Sets the node packets are delivered to after propagation. Throws
  /// std::logic_error while packets are on the wire, as do
  /// bind_simulator and set_remote: their arrivals are scheduled on the
  /// current simulator and deliver to the current peer.
  void attach_peer(Node* peer);

  Node* peer() const { return peer_; }

  /// Rebinds the port to another event queue. Used by the parsim
  /// partitioner, which builds the topology against the network's serial
  /// simulator and then moves each port onto its owning shard's
  /// simulator. Only legal before any traffic has run (throws while
  /// packets are on the wire or a transmission is unfinished).
  void bind_simulator(Simulator& sim);
  Simulator& simulator() { return *sim_; }

  /// Marks this port's link as crossing a shard boundary: transmitted
  /// packets are pushed into `mb` (timestamped with their arrival time
  /// at the peer) instead of being scheduled locally. nullptr restores
  /// direct local delivery.
  void set_remote(parsim::Mailbox* mb);
  parsim::Mailbox* remote() const { return remote_; }

  /// Offers a packet for transmission (drops silently if the discipline
  /// rejects it).
  void send(Packet pkt);

  /// Discards every queued packet — the link went down ("interface
  /// disabled" semantics: the backlog is lost, while packets already
  /// serialized onto the wire still deliver). Each packet is dequeued
  /// through the discipline, so marking/occupancy/shared-pool accounting
  /// run exactly as for a transmission, and is then dropped instead of
  /// serialized (counted in `link_down_drops`, reported to the checker
  /// via the packet_lost hook so the conservation ledger closes).
  /// Returns the number of packets discarded.
  std::size_t drop_queued(SimTime now);

  /// Packets lost to drop_queued() (link-failure backlog discards).
  std::uint64_t link_down_drops() const { return link_down_drops_; }

  /// Attaches a per-packet tracer for transmission events ("tx").
  void set_trace(TraceSink* sink) { trace_ = sink; }

  /// Hybrid fluid coupling: scales the effective serialization rate by
  /// `*frac` (a live gauge in (0, 1] owned by a hybrid::FluidBackground
  /// aggregate), modelling the link capacity the fluid background
  /// claims. nullptr (the default) or a gauge reading exactly 1.0
  /// leaves transmission timing bit-identical (rate * 1.0 == rate).
  void set_available_rate_fraction(const double* frac) { avail_frac_ = frac; }
  const double* available_rate_fraction() const { return avail_frac_; }

  QueueDisc& disc() { return *disc_; }
  const QueueDisc& disc() const { return *disc_; }
  DataRate rate_bps() const { return rate_bps_; }
  SimTime prop_delay() const { return prop_delay_; }
  /// Whether a transmission is in progress (its release has not fired).
  bool busy() const {
    return busy_ && !(release_deferred_ && sim_->passed(release_));
  }
  /// Packets serialized onto the local wire that have not yet arrived.
  std::size_t packets_on_wire() const { return in_flight_; }

  std::uint64_t packets_sent() const { return packets_sent_; }
  std::uint64_t bytes_sent() const { return bytes_sent_; }

  /// Queue-side totals from the discipline plus this port's link-side
  /// transmission totals.
  Counters counters() const {
    Counters c = disc_->counters();
    c.sent_packets = packets_sent_;
    c.sent_bytes = bytes_sent_;
    return c;
  }

 private:
  /// The kernel's typed tx-complete event re-enters here.
  friend class EventClosure;

  /// The kernel lanes last used for one packet size.
  struct LaneMemo {
    std::uint16_t size = 0;
    Simulator::LaneId arrival = Simulator::kNoLane;
    Simulator::LaneId release = Simulator::kNoLane;
  };

  void begin_transmission(Packet pkt);
  LaneMemo& lanes_for(std::uint16_t size);
  void settle_release();
  void on_transmit_complete();
  void require_idle_wire(const char* what) const;

  Simulator* sim_;
  DataRate rate_bps_;
  SimTime prop_delay_;
  std::unique_ptr<QueueDisc> disc_;
  parsim::Mailbox* remote_ = nullptr;
  Node* peer_ = nullptr;
  TraceSink* trace_ = nullptr;
  const double* avail_frac_ = nullptr;
  LaneMemo memo_[2];  ///< most recently used first
  Simulator::LaneId release_lane_ = Simulator::kNoLane;  ///< for release_
  bool busy_ = false;            ///< transmitter held until the release
  bool release_deferred_ = false;  ///< release_ reserved, not queued
  Simulator::Key release_{0.0, 0};
  std::uint32_t deferral_id_ = Simulator::kNoDeferral;
  std::uint32_t in_flight_ = 0;  ///< local arrivals not yet delivered
  std::uint64_t packets_sent_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t link_down_drops_ = 0;
};

}  // namespace dtdctcp::sim
