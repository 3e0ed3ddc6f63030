// Cross-shard packet mailbox for the conservative parallel executor.
//
// One Mailbox per ordered shard pair (src -> dst). The producing shard
// pushes packets during its safe window; the consuming shard drains the
// whole buffer at the next window barrier. The synchronous time-window
// protocol (see shard_runner.h) means exactly one thread touches a
// mailbox at any moment — the producer between barriers, the consumer
// after the publish barrier — so a plain vector with no atomics is both
// correct and TSan-clean: the barrier's release/acquire edge publishes
// every push before the drain reads it.
//
// Entries keep push (FIFO) order. The drain concatenates the batches of
// all source shards in ascending order, stably sorts the result by
// arrival time (clamped to the shard's clock, as the kernel clamps),
// and schedules it in that order through one kernel lane, so an
// arrival's position in the destination simulator's total order is
// (arrival time, source shard, mailbox sequence) — the deterministic
// tie-break for same-timestamp packets from different shards.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/packet.h"
#include "util/units.h"

namespace dtdctcp::sim {
class Node;
}  // namespace dtdctcp::sim

namespace dtdctcp::parsim {

class Mailbox {
 public:
  struct Entry {
    SimTime when;      ///< absolute arrival time at the peer
    sim::Node* peer;   ///< destination node (lives in the consuming shard)
    sim::Packet pkt;
  };

  /// Producer side: called by the exporting Port during its safe window.
  void push(SimTime when, sim::Node* peer, sim::Packet pkt) {
    entries_.push_back(Entry{when, peer, pkt});
    ++pushed_;
  }

  /// Consumer side: the batch published at the last barrier, in push
  /// order. The consumer must call clear() once every entry has been
  /// scheduled into its simulator.
  std::vector<Entry>& entries() { return entries_; }

  void clear() {
    drained_ += entries_.size();
    entries_.clear();
  }

  bool empty() const { return entries_.empty(); }
  std::size_t size() const { return entries_.size(); }

  /// Lifetime totals for the conservation ledger: every packet ever
  /// pushed must eventually be drained, and at end of run the buffer
  /// must be empty.
  std::uint64_t pushed() const { return pushed_; }
  std::uint64_t drained() const { return drained_; }

 private:
  std::vector<Entry> entries_;
  std::uint64_t pushed_ = 0;
  std::uint64_t drained_ = 0;
};

}  // namespace dtdctcp::parsim
