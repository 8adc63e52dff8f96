// The traffic surface every MAC engine owns.
//
// WRT-Ring, TPT and slotted Aloha each hold one SourceSet, so all three
// take their offered load through the same code: stochastic sources
// (TrafficSource), trace replays (TraceSource) and always-backlogged
// saturated bounds (SaturatedSource), each bound to the station named as
// its source.
//
// Streams.  A stochastic source's RNG stream is seeded with
// `seed ^ (salt + flow id)`, the sum taken in 32 bits.  Each engine passes
// its own fixed salt, so the three MACs draw different arrival streams from
// one seed, and each keeps the streams its fixed-seed digests were recorded
// with.
//
// Engine hooks are callables passed on each call as template parameters;
// the set stores no engine pointer (shard confinement, DESIGN.md §11):
//  * `enqueue(Packet&) -> bool` queues the packet at its source station
//    and moves from it only when the queue accepts it;
//  * `depth(NodeId, TrafficClass) -> std::optional<std::size_t>` reports
//    the class queue depth at a station, nullopt when it cannot take
//    traffic (not a ring member, dead, unknown).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "traffic/trace.hpp"
#include "traffic/traffic.hpp"
#include "util/types.hpp"

namespace wrt::traffic {

class SourceSet {
 public:
  /// `queue_capacity` is the engine's per-class queue capacity: saturated
  /// top-ups stop there, whatever backlog a bound asks for.
  SourceSet(std::uint64_t seed, std::uint32_t salt,
            std::size_t queue_capacity) noexcept
      : seed_(seed), salt_(salt), queue_capacity_(queue_capacity) {}

  void add_source(const FlowSpec& spec);
  void add_saturated_source(const FlowSpec& spec, std::size_t backlog);
  void add_trace_source(Trace trace, FlowId flow, NodeId src, NodeId dst,
                        std::int64_t deadline_slots);

  /// Hands every packet arriving by `now` to `enqueue`: stochastic sources
  /// in registration order, then traces.  A refused packet is recorded as
  /// a drop in `sink`.
  template <typename Enqueue>
  void poll(Tick now, Enqueue&& enqueue, Sink& sink) {
    for (TrafficSource& source : sources_) drain(source, now, enqueue, sink);
    for (TraceSource& source : traces_) drain(source, now, enqueue, sink);
  }

  /// Tops every saturated bound's class queue up to min(backlog, queue
  /// capacity), in registration order.
  template <typename Depth, typename Enqueue>
  void top_up_all(Tick now, Depth&& depth, Enqueue&& enqueue) {
    for (Saturated& bound : saturated_) refill(bound, now, depth, enqueue);
    full_pass_pending_ = false;
    transmitted_.clear();
  }

  /// Tops up only the bounds whose station took a packet off its queues
  /// since the last top-up (note_transmit): transmission is the only way a
  /// queue drains between membership changes, which the caller answers
  /// with top_up_all.  Falls back to top_up_all while a newly added bound
  /// has not been filled yet, or when two bounds share a station.
  template <typename Depth, typename Enqueue>
  void top_up_transmitted(Tick now, Depth&& depth, Enqueue&& enqueue) {
    if (full_pass_pending_ || shared_station_) {
      top_up_all(now, depth, enqueue);
      return;
    }
    for (const std::uint32_t i : transmitted_) {
      refill(saturated_[i], now, depth, enqueue);
    }
    transmitted_.clear();
  }

  /// Records that `station` transmitted (feeds top_up_transmitted).
  void note_transmit(NodeId station) {
    if (station < bound_at_.size() && bound_at_[station] >= 0) {
      transmitted_.push_back(static_cast<std::uint32_t>(bound_at_[station]));
    }
  }

 private:
  struct Saturated {
    SaturatedSource source;
    std::size_t target;  ///< min(backlog, queue capacity)
  };

  template <typename Source, typename Enqueue>
  void drain(Source& source, Tick now, Enqueue& enqueue, Sink& sink) {
    scratch_.clear();
    source.poll(now, scratch_);
    for (Packet& packet : scratch_) {
      if (!enqueue(packet)) sink.record_drop(packet);
    }
  }

  template <typename Depth, typename Enqueue>
  void refill(Saturated& bound, Tick now, Depth& depth, Enqueue& enqueue) {
    const FlowSpec& spec = bound.source.spec();
    const std::optional<std::size_t> queued = depth(spec.src, spec.cls);
    if (!queued) return;
    for (std::size_t n = *queued; n < bound.target; ++n) {
      Packet packet = bound.source.next(now);
      if (!enqueue(packet)) return;
    }
  }

  std::uint64_t seed_;
  std::uint32_t salt_;
  std::size_t queue_capacity_;
  std::vector<TrafficSource> sources_;
  std::vector<TraceSource> traces_;
  std::vector<Saturated> saturated_;
  std::vector<std::int32_t> bound_at_;     ///< NodeId -> bound index, -1 none
  std::vector<std::uint32_t> transmitted_;  ///< bound indices to refill
  bool full_pass_pending_ = false;
  bool shared_station_ = false;  ///< two bounds on one station
  std::vector<Packet> scratch_;
};

}  // namespace wrt::traffic
