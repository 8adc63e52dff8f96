// One federation shard: a worker-thread-confined bundle of rings plus the
// Diffserv backbone segment that terminates crossings at those rings.
//
// A FederationShard owns everything its worker thread writes during an
// epoch — the ring engines (each WRT_SHARD_CONFINED per DESIGN.md §11),
// their private topologies, the backbone segment and the delay
// accounting.  It routes crossings by the coordinator's crossing table,
// the one record of where each crossing stream leaves and re-enters the
// fabric: FederationEngine::init writes it before any epoch starts a
// thread, and during epochs every shard only reads it.  The only data
// that leaves the shard is a value-type FederationFrame posted into a
// Mailbox owned by the coordinator (drained by the destination shard next
// epoch), and the only data that enters is the read half of those
// mailboxes.  Everything here is therefore single-threaded by
// construction; the epoch barrier in FederationEngine::run_epochs is the
// sole synchronization point.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "diffserv/diffserv.hpp"
#include "phy/topology.hpp"
#include "util/thread_safety.hpp"
#include "util/types.hpp"
#include "wrtring/engine.hpp"
#include "wrtring/mailbox.hpp"

namespace wrt::wrtring {

/// Crossing-stream flow ids live above every local flow id so the two
/// spaces cannot collide (local ids are dense from 0).  Entry i of the
/// crossing table is flow kCrossingFlowBase + i.
constexpr FlowId kCrossingFlowBase = FlowId{1} << 30;

/// Every station is the gateway candidate; by convention node 0 bridges
/// its ring to the backbone (it exists in every ring and never churns in
/// a federation run).
constexpr NodeId kGatewayNode = 0;

/// One brokered crossing stream: the routing record of the crossing table
/// (written by FederationEngine::init, read-only during epochs).
struct CrossingFlow {
  FlowId flow = kInvalidFlow;
  std::uint32_t src_ring = 0;
  std::uint32_t dst_ring = 0;
  NodeId src_station = kInvalidNode;
  NodeId dst_station = kInvalidNode;
  bool admitted = false;  ///< RealTime if true, demoted to best-effort else
};

/// Integer crossing counters; summed across shards after the epoch loop
/// (exact — workers have joined) and folded into the federation digest.
struct ShardCounters {
  std::uint64_t crossings_posted = 0;    ///< frames handed to a mailbox
  std::uint64_t crossings_received = 0;  ///< frames drained into the backbone
  std::uint64_t crossings_injected = 0;  ///< frames injected into a dst ring
  std::uint64_t crossings_delivered = 0; ///< final in-ring deliveries seen
  std::uint64_t crossing_drops = 0;      ///< injection refused (queue full)
};

/// Shard-confined: every method below (other than the serial wiring
/// helpers used by FederationEngine::init before workers exist) must be
/// called from the shard's owning worker thread.
class WRT_SHARD_CONFINED FederationShard {
 public:
  /// `crossings` is the coordinator's crossing table; it must outlive the
  /// shard and is only read during epochs.
  FederationShard(std::uint32_t index, std::uint32_t shard_count,
                  const std::vector<CrossingFlow>& crossings,
                  std::size_t backbone_hops, double backbone_service_rate,
                  std::size_t backbone_queue_capacity,
                  double backbone_premium_capacity);

  // -- serial wiring (FederationEngine::init, before any worker starts) --

  /// Transfers ownership of one ring (topology + engine) to the shard and
  /// installs the gateway delivery tap.  Returns the ring's slot index
  /// within this shard.
  std::size_t add_ring(std::uint32_t ring_index,
                       std::unique_ptr<phy::Topology> topology,
                       std::unique_ptr<Engine> engine);

  /// Wires the shard's mailbox views: `inbound[p]` carries frames from
  /// shard p to this shard, `outbound[d]` carries frames from this shard
  /// to shard d.  Pointers are owned by the coordinator.
  void set_mailboxes(std::vector<Mailbox*> inbound,
                     std::vector<Mailbox*> outbound);

  // -- epoch execution (worker thread) -----------------------------------

  /// Runs one epoch: (1) injects last epoch's backbone egress into its
  /// destination rings, (2) drains inbound mailboxes (producer-shard
  /// order) into the backbone, (3) steps the backbone epoch_slots slots,
  /// buffering egress for next epoch, (4) steps every ring engine
  /// epoch_slots slots (gateway taps post outbound frames).  Touches only
  /// shard-owned state plus the mailbox halves assigned to this shard and
  /// the read-only crossing table.
  void run_epoch(std::int64_t epoch_slots);

  // -- accounting (serial, after workers have joined) --------------------

  [[nodiscard]] std::uint32_t index() const noexcept { return index_; }
  [[nodiscard]] std::size_t ring_count() const noexcept {
    return rings_.size();
  }
  [[nodiscard]] Engine& ring_engine(std::size_t slot) {
    return *rings_.at(slot).engine;
  }
  [[nodiscard]] const Engine& ring_engine(std::size_t slot) const {
    return *rings_.at(slot).engine;
  }
  [[nodiscard]] diffserv::BackboneSegment& backbone() noexcept {
    return backbone_;
  }
  [[nodiscard]] const diffserv::BackboneSegment& backbone() const noexcept {
    return backbone_;
  }
  [[nodiscard]] const ShardCounters& counters() const noexcept {
    return counters_;
  }
  /// End-to-end crossing delays (packet creation in the source ring to
  /// final delivery in the destination ring), integer ticks, in
  /// deterministic observation order.
  [[nodiscard]] const std::vector<Tick>& rt_crossing_delay_ticks()
      const noexcept {
    return rt_delay_ticks_;
  }
  [[nodiscard]] const std::vector<Tick>& be_crossing_delay_ticks()
      const noexcept {
    return be_delay_ticks_;
  }
  /// Thread-CPU nanoseconds this shard spent inside run_epoch, total and
  /// for the most recent epoch.  CLOCK_THREAD_CPUTIME_ID, so preemption
  /// by sibling workers on an undersized host does not inflate it.
  [[nodiscard]] std::int64_t busy_ns_total() const noexcept {
    return busy_ns_total_;
  }
  [[nodiscard]] std::int64_t last_epoch_busy_ns() const noexcept {
    return last_epoch_busy_ns_;
  }
  /// Crossing frames parked inside the shard (backbone queues + egress
  /// awaiting injection), for conservation accounting.
  [[nodiscard]] std::size_t in_flight() const noexcept {
    return backbone_.queue_depth() + pending_.size();
  }

 private:
  struct RingSlot {
    std::uint32_t ring_index = 0;
    std::unique_ptr<phy::Topology> topology;
    std::unique_ptr<Engine> engine;
  };

  /// The crossing table's record of `flow`, or nullptr for a local flow.
  [[nodiscard]] const CrossingFlow* crossing(FlowId flow) const noexcept;

  /// Delivery-tap body: posts gateway-delivered crossing packets to the
  /// destination shard's mailbox; records end-to-end delay on final
  /// delivery of an inbound crossing.
  void on_delivery(std::size_t slot, const traffic::Packet& packet,
                   NodeId at, Tick now);

  std::uint32_t index_;
  std::uint32_t shard_count_;
  const std::vector<CrossingFlow>& crossings_;
  std::vector<RingSlot> rings_;
  diffserv::BackboneSegment backbone_;
  std::vector<Mailbox*> inbound_mail_;   ///< [p] = shard p -> this shard
  std::vector<Mailbox*> outbound_mail_;  ///< [d] = this shard -> shard d
  /// Backbone egress buffered for injection at the next epoch boundary.
  std::vector<traffic::Packet> pending_;
  ShardCounters counters_;
  std::vector<Tick> rt_delay_ticks_;
  std::vector<Tick> be_delay_ticks_;
  std::int64_t busy_ns_total_ = 0;
  std::int64_t last_epoch_busy_ns_ = 0;
};

}  // namespace wrt::wrtring
