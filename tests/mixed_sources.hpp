// Shared fixture for the mixed-source digest cells (WRT-Ring, TPT and
// slotted Aloha).
//
// The engines' older oracles drive only CBR and saturated sources: CBR makes
// no RNG draw and none of them replays a trace, so a wrong per-engine source
// salt or a reordered traffic poll would slip through.  This mix attaches
// every source kind through the shared engine surface (add_source,
// add_saturated_source, add_trace_source), puts stochastic, trace and
// saturated arrivals into the same class queue of one station, and hangs
// two saturated bounds on one station.  flow_digest() then folds the
// per-flow outcome into the digest line, so packets moving between flows
// show up even when the class totals do not change.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>

#include "traffic/trace.hpp"
#include "traffic/traffic.hpp"
#include "util/types.hpp"

namespace wrt::test_fixtures {

/// One stochastic source per station (CBR, Poisson and on-off in turn,
/// mean load 1/(2n) each); a video GOP trace on every sixth station,
/// whose frames land in the same slots as that station's real-time CBR
/// arrivals, so poll order decides queue order and which packets a full
/// queue refuses; a voice trace on every fourth station from station 1;
/// and saturated bounds: real-time (backlog 2) plus best-effort
/// (backlog 3) on station 2, best-effort (backlog 4) on station n-1.  No
/// backlog exceeds 4, so a queue capacity of 4 or more never clamps the
/// saturated top-up.
template <typename Engine>
void attach_mixed_sources(Engine& engine, std::size_t n,
                          std::int64_t horizon_slots) {
  const auto period = static_cast<std::int64_t>(2 * n);
  const auto deadline = static_cast<std::int64_t>(6 * n);
  for (NodeId node = 0; node < n; ++node) {
    traffic::FlowSpec spec;
    spec.id = node + 1;
    spec.src = node;
    spec.dst = static_cast<NodeId>((node + n / 2) % n);
    spec.cls = node % 2 == 0   ? TrafficClass::kRealTime
               : node % 4 == 1 ? TrafficClass::kAssured
                               : TrafficClass::kBestEffort;
    spec.deadline_slots = spec.cls == TrafficClass::kRealTime ? deadline : 0;
    spec.start_slot = node % 5;
    switch (node % 3) {
      case 0:
        spec.kind = traffic::ArrivalKind::kCbr;
        spec.period_slots = static_cast<double>(period);
        break;
      case 1:
        spec.kind = traffic::ArrivalKind::kPoisson;
        spec.rate_per_slot = 1.0 / static_cast<double>(period);
        break;
      default:
        spec.kind = traffic::ArrivalKind::kOnOff;
        spec.rate_per_slot = 2.0 / static_cast<double>(period);
        spec.on_mean_slots = 64.0;
        spec.off_mean_slots = 64.0;
        break;
    }
    engine.add_source(spec);
    if (node % 6 == 0) {
      traffic::GopParams gop;
      gop.frame_period_slots = period;
      engine.add_trace_source(
          traffic::make_gop_trace(
              gop, static_cast<std::uint32_t>(horizon_slots / period + 1),
              slots_to_ticks(spec.start_slot)),
          /*flow=*/1000 + node, node, spec.dst, deadline);
    } else if (node % 4 == 1) {
      traffic::VoiceParams voice;
      voice.packet_period_slots = 10;
      voice.talkspurt_mean_slots = 200.0;
      voice.silence_mean_slots = 200.0;
      engine.add_trace_source(
          traffic::make_voice_trace(voice, slots_to_ticks(horizon_slots),
                                    /*seed=*/node),
          /*flow=*/1000 + node, node, spec.dst, deadline);
    }
  }
  traffic::FlowSpec bound;
  bound.src = 2;
  bound.dst = static_cast<NodeId>((2 + n / 2) % n);
  bound.id = 2000;
  bound.cls = TrafficClass::kRealTime;
  bound.deadline_slots = deadline;
  engine.add_saturated_source(bound, 2);
  bound.id = 2001;
  bound.cls = TrafficClass::kBestEffort;
  bound.deadline_slots = 0;
  engine.add_saturated_source(bound, 3);
  bound.id = 2002;
  bound.src = static_cast<NodeId>(n - 1);
  bound.dst = 0;
  engine.add_saturated_source(bound, 4);
}

/// FNV-1a over every flow's delivered count, mean delay (milli-slots),
/// deadline misses and drops, in FlowId order.
inline std::string flow_digest(const traffic::Sink& sink) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xFF;
      hash *= 0x100000001b3ULL;
    }
  };
  for (const auto& [flow, delay] : sink.per_flow()) {
    mix(flow);
    mix(delay.count());
    mix(static_cast<std::uint64_t>(
        static_cast<long long>(delay.mean() * 1000.0)));
  }
  for (const auto& [flow, counts] : sink.per_flow_counts()) {
    mix(flow);
    mix(counts.deadline_misses);
    mix(counts.dropped);
  }
  char text[32];
  std::snprintf(text, sizeof text, "flows=%016llx;",
                static_cast<unsigned long long>(hash));
  return text;
}

}  // namespace wrt::test_fixtures
