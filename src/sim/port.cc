#include "sim/port.h"

#include <cassert>
#include <stdexcept>
#include <string>
#include <utility>

#include "check/hook.h"
#include "parsim/mailbox.h"

namespace dtdctcp::sim {

void Port::require_idle_wire(const char* what) const {
  if (in_flight_ != 0) {
    throw std::logic_error(std::string("Port::") + what +
                           " while packets are on the wire");
  }
}

void Port::attach_peer(Node* peer) {
  require_idle_wire("attach_peer");
  peer_ = peer;
}

void Port::bind_simulator(Simulator& sim) {
  require_idle_wire("bind_simulator");
  if (busy()) {
    throw std::logic_error(
        "Port::bind_simulator while a transmission is unfinished");
  }
  settle_release();
  sim_ = &sim;
  // The deferral slot and the lane ids belong to the old simulator.
  deferral_id_ = Simulator::kNoDeferral;
  memo_[0] = memo_[1] = LaneMemo{};
  release_lane_ = Simulator::kNoLane;
}

void Port::set_remote(parsim::Mailbox* mb) {
  require_idle_wire("set_remote");
  remote_ = mb;
}

// A deferred release that has passed runs now, at its own time: free the
// transmitter and replay the empty dequeue it would have made.
void Port::settle_release() {
  if (!release_deferred_ || !sim_->passed(release_)) return;
  release_deferred_ = false;
  busy_ = false;
  Packet none;
  const bool got = disc_->dequeue(none, release_.time);
  assert(!got && "a packet queued behind a deferred release");
  (void)got;
}

void Port::send(Packet pkt) {
  assert(peer_ != nullptr && "port not wired to a peer");
  settle_release();
  if (!busy_ && disc_->packets() == 0) {
    disc_->on_bypass(pkt, sim_->now());
    begin_transmission(std::move(pkt));
    return;
  }
  if (disc_->enqueue(pkt, sim_->now()) != EnqueueResult::kEnqueued) return;
  if (!busy_) {
    // Transmitter idle but queue was non-empty (can happen transiently
    // when a drop callback re-enters send); drain in FIFO order.
    Packet head;
    const bool got = disc_->dequeue(head, sim_->now());
    assert(got);
    (void)got;
    begin_transmission(std::move(head));
  } else if (release_deferred_) {
    // The release now has a packet to hand over: it becomes the event
    // it would always have been, at its reserved key.
    release_deferred_ = false;
    sim_->release_at(release_, this, release_lane_);
  }
}

std::size_t Port::drop_queued(SimTime now) {
  settle_release();
  std::size_t n = 0;
  Packet pkt;
  while (disc_->dequeue(pkt, now)) {
    if (trace_ != nullptr) trace_->packet_event("loss", pkt, now);
    DTDCTCP_CHECK_HOOK(packet_lost(this, pkt));
    ++link_down_drops_;
    ++n;
  }
  return n;
}

Port::LaneMemo& Port::lanes_for(std::uint16_t size) {
  if (memo_[0].size != size) {
    const LaneMemo other = memo_[1].size == size ? memo_[1] : LaneMemo{size};
    memo_[1] = memo_[0];
    memo_[0] = other;
  }
  return memo_[0];
}

void Port::begin_transmission(Packet pkt) {
  busy_ = true;
  if (trace_ != nullptr) trace_->packet_event("tx", pkt, sim_->now());
  // With a fluid background sharing the link, foreground packets only
  // get the residual capacity (exactly rate_bps_ when the gauge is 1.0,
  // so a zero-share aggregate changes no timestamps).
  const DataRate rate =
      avail_frac_ == nullptr ? rate_bps_ : rate_bps_ * *avail_frac_;
  const SimTime tx = units::transmission_time(pkt.size_bytes, rate);
  ++packets_sent_;
  bytes_sent_ += pkt.size_bytes;
  LaneMemo& lanes = lanes_for(pkt.size_bytes);
  // The arrival and the transmitter release are separate events, each
  // in the lane of its delay; neither allocates (the arrival's capture
  // fits the inline closure of a recycled arena slot).
  //
  // A cross-shard link hands the arrival to the peer shard's mailbox
  // instead: the arrival timestamp is computed here (same arithmetic as
  // the local path, so shard placement cannot change timing) and the
  // consuming shard schedules it after the next window barrier. The
  // transmitter-release event is always local.
  if (remote_ == nullptr) {
    const SimTime d = tx + prop_delay_;
    lanes.arrival = sim_->lane(d, lanes.arrival);
    ++in_flight_;
    auto arrive = [this, pkt]() mutable {
      --in_flight_;
      peer_->receive(std::move(pkt));
    };
    static_assert(EventClosure::kFitsInline<decltype(arrive)>);
    sim_->lane_at(lanes.arrival, sim_->reserve_key(sim_->now() + d),
                  std::move(arrive));
  } else {
    DTDCTCP_CHECK_HOOK(packet_exported(this, pkt));
    remote_->push(sim_->now() + tx + prop_delay_, peer_, std::move(pkt));
  }
  lanes.release = sim_->lane(tx, lanes.release);
  release_lane_ = lanes.release;
  release_ = sim_->reserve_key(sim_->now() + tx);
  if (disc_->packets() > 0) {
    sim_->release_at(release_, this, release_lane_);
  } else {
    release_deferred_ = true;
    sim_->defer(deferral_id_, release_);
  }
}

void Port::on_transmit_complete() {
  busy_ = false;
  Packet next;
  if (disc_->dequeue(next, sim_->now())) {
    begin_transmission(std::move(next));
  }
}

}  // namespace dtdctcp::sim
