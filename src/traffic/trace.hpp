// Trace-driven and application-shaped traffic.
//
// The paper motivates WRT-Ring with QoS applications (audio/video in
// meeting rooms); real deployments would feed the MAC with encoder output,
// which is neither CBR nor Poisson.  Since no production traces ship with
// this reproduction, this module provides the synthetic equivalents:
//
//  * Trace        — an explicit (slot, class) arrival list, recordable from
//                   any source and replayable bit-exactly (regression
//                   workloads, cross-protocol A/B runs).
//  * VideoGopSource — an MPEG-like group-of-pictures pattern: a large I
//                   burst followed by smaller P/B bursts at the frame rate;
//                   the bursty shape is what stresses the SAT-hold path.
//  * VoiceSource  — talkspurt/silence (exponential on/off) CBR-in-spurt
//                   voice, the classic conversational-speech model.
#pragma once

#include <cstdint>
#include <vector>

#include "traffic/traffic.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace wrt::traffic {

/// One recorded arrival.
struct TraceEntry {
  Tick at = 0;
  TrafficClass cls = TrafficClass::kBestEffort;
  std::uint32_t packets = 1;  ///< burst size arriving together
};

/// An arrival trace: replayable, mergeable, recordable.
class Trace {
 public:
  Trace() = default;
  explicit Trace(std::vector<TraceEntry> entries);

  /// Records every arrival a TrafficSource produces up to `horizon`.
  [[nodiscard]] static Trace record(TrafficSource& source, Tick horizon);

  /// Merges two traces (stable by time).
  [[nodiscard]] static Trace merge(const Trace& a, const Trace& b);

  [[nodiscard]] const std::vector<TraceEntry>& entries() const noexcept {
    return entries_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

  /// Total packets in the trace.
  [[nodiscard]] std::uint64_t total_packets() const noexcept;

  /// Mean offered load in packets/slot over the trace span.
  [[nodiscard]] double offered_load() const noexcept;

 private:
  std::vector<TraceEntry> entries_;  // sorted by `at`
};

/// Replays a trace as packets of one flow.
class TraceSource {
 public:
  TraceSource(Trace trace, FlowId flow, NodeId src, NodeId dst,
              std::int64_t deadline_slots = 0);

  /// Appends packets arriving in (last poll, now].
  void poll(Tick now, std::vector<Packet>& out);

  [[nodiscard]] bool exhausted() const noexcept {
    return cursor_ >= trace_.size();
  }

  /// The tick of the next entry poll() replays; kNeverTick once exhausted.
  [[nodiscard]] Tick next_arrival() const noexcept {
    return exhausted() ? kNeverTick : trace_.entries()[cursor_].at;
  }

 private:
  Trace trace_;
  FlowId flow_;
  NodeId src_;
  NodeId dst_;
  std::int64_t deadline_slots_;
  std::size_t cursor_ = 0;
  std::uint64_t sequence_ = 0;
};

/// MPEG-like GOP pattern generator.
struct GopParams {
  std::int64_t frame_period_slots = 33;  ///< ~30 fps at 1 ms slots
  std::uint32_t gop_length = 12;         ///< frames per GOP (1 I + rest P/B)
  std::uint32_t i_frame_packets = 8;
  std::uint32_t p_frame_packets = 3;
  std::uint32_t b_frame_packets = 1;
  /// Pattern position of P frames inside the GOP (every 3rd frame here).
  std::uint32_t p_spacing = 3;
};

/// Builds a deterministic GOP trace of `frames` frames.
[[nodiscard]] Trace make_gop_trace(const GopParams& params,
                                   std::uint32_t frames,
                                   Tick start = 0);

/// Talkspurt/silence voice model.
struct VoiceParams {
  std::int64_t packet_period_slots = 20;  ///< packetisation interval
  double talkspurt_mean_slots = 1000.0;
  double silence_mean_slots = 1350.0;     ///< Brady-model-ish ratio
};

/// Draws a seeded voice trace covering `horizon` slots.
[[nodiscard]] Trace make_voice_trace(const VoiceParams& params, Tick horizon,
                                     std::uint64_t seed);

}  // namespace wrt::traffic
