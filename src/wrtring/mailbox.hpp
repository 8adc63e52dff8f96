// Inter-shard mail: double-buffered frame queues flushed at epoch barriers.
//
// Federation shards never touch each other's engines (the shard-confinement
// contract, DESIGN.md §11/§12).  All cross-shard traffic travels as
// value-type FederationFrames through one Mailbox per ordered shard pair
// (src, dst).  During an epoch the producing shard appends to the write
// buffer and the consuming shard drains the read buffer — two distinct
// vectors, so the two threads never share a byte.  At the epoch barrier,
// after every worker has joined, the coordinator flips the buffers
// serially.  The thread join is the synchronization point: there is no
// lock and no atomic in this file, and none is needed, because no buffer
// is ever written and read inside the same barrier interval.
//
// Frames are plain values on purpose: the lint rule `cross-shard-handle`
// rejects pointer/reference members in *Frame types under wrtring/, which
// is what keeps a mailbox from ever smuggling an Engine* across shards.
#pragma once

#include <cstdint>
#include <vector>

#include "util/types.hpp"

namespace wrt::wrtring {

/// One packet crossing a ring boundary, snapshotted at the source ring's
/// gateway.  Value type only, and packet identity only: the destination
/// shard rebuilds the traffic::Packet from it and from the flow's record
/// in the crossing table, which says where the packet re-enters.
struct FederationFrame {
  FlowId flow = kInvalidFlow;
  TrafficClass cls = TrafficClass::kBestEffort;
  Tick created = 0;            ///< original packet creation time
  Tick deadline = kNeverTick;  ///< absolute, carried across the crossing
  std::uint64_t sequence = 0;
};

/// Double-buffered SPSC frame queue for one ordered shard pair.
class Mailbox {
 public:
  /// Producer side (owning shard's worker thread, during an epoch).
  void post(const FederationFrame& frame) { write_.push_back(frame); }

  /// Consumer side (destination shard's worker thread, during an epoch):
  /// frames the producer posted in the *previous* epoch.
  [[nodiscard]] const std::vector<FederationFrame>& inbound() const noexcept {
    return read_;
  }

  /// Epoch barrier only (single-threaded): publishes this epoch's posts as
  /// next epoch's inbound and recycles the drained buffer.
  void flip() {
    read_.swap(write_);
    write_.clear();
  }

 private:
  std::vector<FederationFrame> write_;
  std::vector<FederationFrame> read_;
};

}  // namespace wrt::wrtring
