// Voice-call workload and per-call quality scoring.
//
// The application layer the paper motivates but never simulates: N
// concurrent two-party voice calls placed around the ring, each an on/off
// exponential talk-spurt source (traffic::make_voice_trace — the repo's one
// canonical voice arrival model) emitting fixed-size frames with a per-frame
// playout deadline.  After a run, each call is scored with the G.107
// E-model (app/emodel.hpp): mean MAC delay becomes the delay impairment,
// and late-plus-lost frames become the loss impairment; a call "works" when
// its MOS clears the satisfaction threshold (3.8 by convention).
//
// The fleet is engine-agnostic: attach() feeds the same pre-recorded traces
// to any MAC implementing add_trace_source(trace, flow, src, dst, deadline)
// — WRT-Ring, TPT, or slotted Aloha — so capacity comparisons always run
// bit-identical offered load.
#pragma once

#include <cstdint>
#include <vector>

#include "app/emodel.hpp"
#include "traffic/trace.hpp"
#include "traffic/traffic.hpp"
#include "util/types.hpp"

namespace wrt::app {

/// Shape of one voice call.
struct VoiceCallParams {
  traffic::VoiceParams voice;          ///< talk-spurt / packetisation model
  std::int64_t deadline_slots = 150;   ///< per-frame playout deadline
  double slot_ms = 1.0;                ///< wall-clock per slot (E-model delay)
  double mos_threshold = 3.8;          ///< "satisfied user" bar (R ~ 75)
  FlowId base_flow = 1000;             ///< first call's FlowId
};

/// One placed call: a seeded spurt trace bound to a (src, dst) pair.
struct VoiceCall {
  FlowId flow = kInvalidFlow;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  traffic::Trace trace;
  std::uint64_t offered = 0;  ///< trace.total_packets()
};

/// N concurrent calls spread round-robin over the stations, each talking to
/// the diametrically opposite station (the conference placement, worst-case
/// for hop count and best-case for CDMA spatial reuse).
class VoiceFleet {
 public:
  VoiceFleet(std::size_t n_calls, std::size_t n_stations, Tick horizon,
             std::uint64_t seed, VoiceCallParams params = {});

  [[nodiscard]] const std::vector<VoiceCall>& calls() const noexcept {
    return calls_;
  }
  [[nodiscard]] const VoiceCallParams& params() const noexcept {
    return params_;
  }

  /// Total frames the fleet offers over the horizon.
  [[nodiscard]] std::uint64_t offered_packets() const noexcept;

  /// Mean offered load in packets/slot over `horizon`.
  [[nodiscard]] double offered_load(Tick horizon) const noexcept;

  /// Feeds every call's trace to `engine` (any MAC with the shared
  /// add_trace_source signature).  Traces are copied so the fleet can be
  /// attached to several engines for A/B runs.
  template <typename Engine>
  void attach(Engine& engine) const {
    for (const VoiceCall& call : calls_) {
      engine.add_trace_source(call.trace, call.flow, call.src, call.dst,
                              params_.deadline_slots);
    }
  }

  /// Attaches only the calls whose FlowId satisfies `admitted` (e.g. the
  /// subset a CallAdmission controller accepted).
  template <typename Engine, typename Predicate>
  void attach_if(Engine& engine, Predicate admitted) const {
    for (const VoiceCall& call : calls_) {
      if (!admitted(call.flow)) continue;
      engine.add_trace_source(call.trace, call.flow, call.src, call.dst,
                              params_.deadline_slots);
    }
  }

 private:
  VoiceCallParams params_;
  std::vector<VoiceCall> calls_;
};

/// Per-call quality after a run.
struct CallScore {
  FlowId flow = kInvalidFlow;
  std::uint64_t offered = 0;
  std::uint64_t on_time = 0;      ///< delivered within the playout deadline
  double mean_delay_ms = 0.0;     ///< mean MAC delay of delivered frames
  double loss_fraction = 0.0;     ///< 1 - on_time/offered (late == lost)
  double r = 0.0;                 ///< E-model rating
  double mos = 1.0;
};

/// Scores one call from the sink's per-flow delay series and miss/drop
/// counters.  A call with zero deliveries scores MOS 1.0 (all frames lost);
/// the per-flow sim::Moments report 0.0, not infinities, when empty.
[[nodiscard]] CallScore score_call(const VoiceCall& call,
                                   const traffic::Sink& sink,
                                   const VoiceCallParams& params);

/// Scores every call in the fleet.
[[nodiscard]] std::vector<CallScore> score_fleet(const VoiceFleet& fleet,
                                                 const traffic::Sink& sink);

/// Number of scores at or above the MOS threshold.
[[nodiscard]] std::size_t compliant_calls(const std::vector<CallScore>& scores,
                                          double mos_threshold = 3.8);

}  // namespace wrt::app
