#include "wrtring/shard.hpp"

#include <cassert>
#include <ctime>
#include <utility>

namespace wrt::wrtring {

namespace {

/// CPU time consumed by the calling thread, in nanoseconds.  Used for the
/// per-shard busy accounting: unlike a wall clock it is not inflated when
/// sibling workers preempt this one on a host with fewer cores than
/// shards, so Σ_epochs max_shard(busy) is the run's critical path — the
/// wall time an adequately-cored host would see.
[[nodiscard]] std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

}  // namespace

FederationShard::FederationShard(std::uint32_t index,
                                 std::uint32_t shard_count,
                                 const std::vector<CrossingFlow>& crossings,
                                 std::size_t backbone_hops,
                                 double backbone_service_rate,
                                 std::size_t backbone_queue_capacity,
                                 double backbone_premium_capacity)
    : index_(index),
      shard_count_(shard_count),
      crossings_(crossings),
      backbone_(backbone_hops, backbone_service_rate,
                backbone_queue_capacity, backbone_premium_capacity) {}

std::size_t FederationShard::add_ring(std::uint32_t ring_index,
                                      std::unique_ptr<phy::Topology> topology,
                                      std::unique_ptr<Engine> engine) {
  const std::size_t slot = rings_.size();
  engine->set_delivery_tap(
      [this, slot](const traffic::Packet& packet, NodeId at, Tick now) {
        on_delivery(slot, packet, at, now);
      });
  rings_.push_back(
      RingSlot{ring_index, std::move(topology), std::move(engine)});
  return slot;
}

void FederationShard::set_mailboxes(std::vector<Mailbox*> inbound,
                                    std::vector<Mailbox*> outbound) {
  assert(inbound.size() == shard_count_);
  assert(outbound.size() == shard_count_);
  inbound_mail_ = std::move(inbound);
  outbound_mail_ = std::move(outbound);
}

const CrossingFlow* FederationShard::crossing(FlowId flow) const noexcept {
  // Local flow ids sit below kCrossingFlowBase and wrap to a huge index.
  const FlowId entry = flow - kCrossingFlowBase;
  return entry < crossings_.size() ? &crossings_[entry] : nullptr;
}

void FederationShard::on_delivery(std::size_t slot,
                                  const traffic::Packet& packet, NodeId at,
                                  Tick now) {
  const CrossingFlow* route = crossing(packet.flow);
  if (route == nullptr) return;
  const std::uint32_t ring = rings_[slot].ring_index;
  if (at == kGatewayNode && ring == route->src_ring) {
    FederationFrame frame;
    frame.flow = packet.flow;
    frame.cls = packet.cls;
    frame.created = packet.created;
    frame.deadline = packet.deadline;
    frame.sequence = packet.sequence;
    outbound_mail_[route->dst_ring % shard_count_]->post(frame);
    ++counters_.crossings_posted;
  } else if (at == route->dst_station && ring == route->dst_ring) {
    ++counters_.crossings_delivered;
    DelayCounts& delays =
        packet.cls == TrafficClass::kRealTime ? rt_delays_ : be_delays_;
    ++delays[now - packet.created];
  }
}

void FederationShard::run_epoch(std::int64_t epoch_slots) {
  const std::int64_t t0 = thread_cpu_ns();

  // (1) Backbone egress buffered at the end of the previous epoch enters
  // its destination ring now, at the epoch boundary — the deterministic
  // injection point regardless of worker interleaving.
  for (const traffic::Packet& packet : pending_) {
    const CrossingFlow* route = crossing(packet.flow);
    assert(route != nullptr);  // the backbone carries only drained frames
    if (rings_[route->dst_ring / shard_count_].engine->inject_packet(packet)) {
      ++counters_.crossings_injected;
    } else {
      ++counters_.crossing_drops;  // dst gateway queue full
    }
  }
  pending_.clear();

  // (2) Frames posted by every shard last epoch, drained in producer-shard
  // order (fixed, so the backbone arrival order is thread-count
  // independent).  Only the delivery tap posts, and only for flows in the
  // crossing table; the packet re-enters its destination ring at G1.
  for (std::uint32_t producer = 0; producer < shard_count_; ++producer) {
    for (const FederationFrame& frame : inbound_mail_[producer]->inbound()) {
      const CrossingFlow* route = crossing(frame.flow);
      assert(route != nullptr);
      traffic::Packet packet;
      packet.flow = frame.flow;
      packet.cls = frame.cls;
      packet.src = kGatewayNode;
      packet.dst = route->dst_station;
      packet.created = frame.created;
      packet.deadline = frame.deadline;
      packet.sequence = frame.sequence;
      backbone_.inject(packet);
      ++counters_.crossings_received;
    }
  }

  // (3) The backbone serves one slot per ring slot; whatever exits the
  // last hop this epoch waits for the next epoch boundary to enter its
  // destination ring (step 1 above).
  for (std::int64_t s = 0; s < epoch_slots; ++s) backbone_.step(pending_);

  // (4) Every ring advances epoch_slots slots; gateway deliveries observed
  // by the taps post outbound frames into this shard's mailboxes.
  for (RingSlot& ring : rings_) ring.engine->run_slots(epoch_slots);

  const std::int64_t elapsed = thread_cpu_ns() - t0;
  last_epoch_busy_ns_ = elapsed;
  busy_ns_total_ += elapsed;
}

}  // namespace wrt::wrtring
