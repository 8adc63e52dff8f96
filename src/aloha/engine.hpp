// Slotted-Aloha contention MAC — the saturation-regime baseline
// (after Politis & Hilas, "Throughput and Delay Performance of Slotted
// Aloha in SmartBANs under Saturation Conditions").
//
// The deliberately un-coordinated contrast to WRT-Ring's reservation ring
// and TPT's timed token: every backlogged station contends for the single
// shared channel each slot with no schedule at all.
//
//  * Slot-aligned transmissions: a station whose backoff has expired (and
//    whose persistence draw succeeds) transmits its head-of-line frame in
//    the current slot.
//  * Collision detection via the PHY: a frame from s to d is received iff d
//    is alive, reachable(s, d), and no *other* transmitter this slot is
//    audible at d — so in a dense room any two simultaneous transmitters
//    collide, while sparse topologies exhibit capture and hidden-terminal
//    collisions for free.
//  * Saturation-correct retransmission: a collided (or faded) frame stays
//    head-of-line; the station doubles its contention window from cw_min up
//    to cw_max and backs off uniformly in [0, cw); after max_attempts the
//    frame is dropped.  This is the binary-exponential-backoff regime whose
//    saturation throughput tops out near 1/e — the analytic cliff the
//    three-way capacity bench demonstrates.
//  * Fault-plane parity: the same fault::LinkLossField as WRT-Ring/TPT
//    (kData purpose on every delivery attempt), with degrade_link /
//    heal_link overrides, and zero RNG draws when every process is disabled
//    so the fixed-seed digest is independent of the fault plane's mere
//    presence.
//
// The engine implements the shared MAC surface (add_source /
// add_saturated_source / add_trace_source / inject_packet / step /
// run_slots / kill_station / stats) so the identical traffic::Workload and
// fault configuration drive all three MACs.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <vector>

#include "fault/gilbert_elliott.hpp"
#include "phy/topology.hpp"
#include "sim/stats.hpp"
#include "traffic/source_set.hpp"
#include "traffic/trace.hpp"
#include "traffic/traffic.hpp"
#include "util/result.hpp"
#include "util/rng.hpp"

namespace wrt::aloha {

struct AlohaConfig {
  double p_persist = 1.0;        ///< tx probability once backoff expires
  std::int64_t cw_min = 4;       ///< initial contention window (slots)
  std::int64_t cw_max = 1024;    ///< BEB ceiling
  std::uint32_t max_attempts = 16;  ///< drop the frame after this many tries
  std::size_t queue_capacity = 4096;
  fault::ChannelConfig channel;  ///< same Gilbert–Elliott plane as the ring

  [[nodiscard]] util::Status validate() const;
};

struct AlohaStats {
  traffic::Sink sink;
  sim::Moments access_delay_slots;   ///< creation -> successful tx
  sim::Moments rt_access_delay_slots;
  sim::Moments attempts_per_success; ///< tx tries each delivery took
  std::uint64_t transmissions = 0;   ///< frames put on the air
  std::uint64_t successes = 0;       ///< frames received at their dst
  std::uint64_t collisions = 0;      ///< slots with >= 2 audible transmitters
  std::uint64_t collided_frames = 0; ///< frames lost to those slots
  std::uint64_t channel_losses = 0;  ///< Gilbert–Elliott fades
  std::uint64_t unreachable_losses = 0;  ///< dst dead / out of range
  std::uint64_t retry_drops = 0;     ///< frames dropped at max_attempts
  std::uint64_t idle_slots = 0;
  std::uint64_t busy_slots = 0;      ///< slots with >= 1 transmitter
};

class AlohaEngine final {
 public:
  AlohaEngine(phy::Topology* topology, AlohaConfig config,
              std::uint64_t seed);

  AlohaEngine(const AlohaEngine&) = delete;
  AlohaEngine& operator=(const AlohaEngine&) = delete;

  /// Registers every alive station as a contender.
  [[nodiscard]] util::Status init();

  void add_source(const traffic::FlowSpec& spec) { sources_.add_source(spec); }
  void add_saturated_source(const traffic::FlowSpec& spec,
                            std::size_t backlog = 4) {
    sources_.add_saturated_source(spec, backlog);
  }

  /// Replays a trace as one flow (same semantics as the other engines).
  void add_trace_source(traffic::Trace trace, FlowId flow, NodeId src,
                        NodeId dst, std::int64_t deadline_slots = 0) {
    sources_.add_trace_source(std::move(trace), flow, src, dst,
                              deadline_slots);
  }

  // wrt-lint-allow(by-value-frame-param): deliberate sink, moved into queue
  bool inject_packet(traffic::Packet packet) { return enqueue(packet); }

  /// Depth of the queue a `cls` packet joins at `node` (real-time, or the
  /// shared best-effort queue); nullopt when `node` is unknown or dead.
  [[nodiscard]] std::optional<std::size_t> queue_depth(NodeId node,
                                                       TrafficClass cls) const;

  void step();
  void run_slots(std::int64_t n);
  [[nodiscard]] Tick now() const noexcept { return now_; }

  /// Removes a station: it stops contending and its queued frames are
  /// dropped.  Frames addressed to it keep failing and die by retry limit —
  /// contention MACs have no membership signal to react faster with.
  void kill_station(NodeId node);

  /// Gilbert–Elliott override on a <-> b (both directions; Aloha draws
  /// only for the data purpose).
  void degrade_link(NodeId a, NodeId b, const fault::GeParams& params) {
    loss_field_.degrade_pair(a, b, params);
  }
  void heal_link(NodeId a, NodeId b) { loss_field_.heal_pair(a, b); }

  [[nodiscard]] const AlohaStats& stats() const noexcept { return stats_; }

  /// Internal-consistency audit; mirrors the other engines'
  /// check_invariants so harnesses can assert it uniformly.
  [[nodiscard]] util::Status check_invariants() const;

 private:
  struct StationState {
    std::deque<traffic::Packet> rt_queue;
    std::deque<traffic::Packet> be_queue;
    std::int64_t backoff = 0;        ///< slots until the next attempt
    std::int64_t cw = 0;             ///< current contention window
    std::uint32_t attempts = 0;      ///< tries for the head-of-line frame
    util::RngStream rng{0, 0};       ///< persistence + backoff draws
    bool alive = true;
  };

  /// Queues `packet` at its source station; moves from it only on
  /// acceptance (false: unknown or dead station, or the queue is full).
  bool enqueue(traffic::Packet& packet);
  void poll_traffic();
  [[nodiscard]] traffic::Packet* head_of_line(StationState& st);
  void pop_head(StationState& st);
  void on_failure(NodeId node, StationState& st);

  phy::Topology* topology_;
  AlohaConfig config_;
  std::uint64_t seed_;
  Tick now_ = 0;
  bool initialised_ = false;

  std::map<NodeId, StationState> stations_;
  fault::LinkLossField loss_field_;
  traffic::SourceSet sources_{seed_, 0xA10AA10Au, config_.queue_capacity};
  std::vector<NodeId> transmitters_;  ///< per-slot scratch

  AlohaStats stats_;
};

}  // namespace wrt::aloha
