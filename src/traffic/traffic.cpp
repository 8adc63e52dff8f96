#include "traffic/traffic.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace wrt::traffic {

double FlowSpec::offered_load() const noexcept {
  switch (kind) {
    case ArrivalKind::kCbr:
      return period_slots > 0.0 ? 1.0 / period_slots : 0.0;
    case ArrivalKind::kPoisson:
      return rate_per_slot;
    case ArrivalKind::kOnOff: {
      const double duty =
          on_mean_slots / (on_mean_slots + off_mean_slots);
      return rate_per_slot * duty;
    }
  }
  return 0.0;
}

TrafficSource::TrafficSource(FlowSpec spec, std::uint64_t seed)
    : spec_(std::move(spec)),
      rng_(seed, 0xF10B + spec_.id),
      // A spec that offers no load (a CBR period, a rate or a duty cycle
      // that is not > 0, or NaN) never arrives.
      next_arrival_(spec_.offered_load() > 0.0
                        ? slots_to_ticks(spec_.start_slot)
                        : kNeverTick) {
  if (spec_.kind == ArrivalKind::kOnOff && next_arrival_ != kNeverTick) {
    phase_end_ = next_arrival_ +
                 static_cast<Tick>(rng_.exponential(
                     static_cast<double>(slots_to_ticks(1)) * spec_.on_mean_slots));
  }
}

Tick TrafficSource::draw_gap() {
  const auto ticks_per_slot = static_cast<double>(kTicksPerSlot);
  switch (spec_.kind) {
    case ArrivalKind::kCbr:
      return std::max<Tick>(
          1, static_cast<Tick>(std::llround(spec_.period_slots * ticks_per_slot)));
    case ArrivalKind::kPoisson:
    case ArrivalKind::kOnOff: {
      if (spec_.rate_per_slot <= 0.0) return kNeverTick;
      const double mean_ticks = ticks_per_slot / spec_.rate_per_slot;
      return std::max<Tick>(1, static_cast<Tick>(rng_.exponential(mean_ticks)));
    }
  }
  return kNeverTick;
}

void TrafficSource::poll(Tick now, std::vector<Packet>& out) {
  while (next_arrival_ <= now && next_arrival_ != kNeverTick) {
    if (spec_.kind == ArrivalKind::kOnOff) {
      // Advance the on/off phase machine past the arrival instant.
      while (phase_end_ <= next_arrival_) {
        on_ = !on_;
        const double mean_slots = on_ ? spec_.on_mean_slots : spec_.off_mean_slots;
        phase_end_ += std::max<Tick>(
            1, static_cast<Tick>(rng_.exponential(
                   mean_slots * static_cast<double>(kTicksPerSlot))));
      }
      if (!on_) {
        // Skip arrivals during OFF: jump to the phase boundary.
        next_arrival_ = phase_end_;
        continue;
      }
    }
    Packet packet;
    packet.flow = spec_.id;
    packet.cls = spec_.cls;
    packet.src = spec_.src;
    packet.dst = spec_.dst;
    packet.created = next_arrival_;
    packet.sequence = sequence_++;
    packet.deadline = spec_.cls == TrafficClass::kRealTime &&
                              spec_.deadline_slots > 0
                          ? next_arrival_ + slots_to_ticks(spec_.deadline_slots)
                          : kNeverTick;
    out.push_back(packet);
    const Tick gap = draw_gap();
    if (gap == kNeverTick) {
      next_arrival_ = kNeverTick;
      return;
    }
    next_arrival_ += gap;
  }
}

Packet SaturatedSource::next(Tick now) {
  Packet packet;
  packet.flow = spec_.id;
  packet.cls = spec_.cls;
  packet.src = spec_.src;
  packet.dst = spec_.dst;
  packet.created = now;
  packet.sequence = sequence_++;
  packet.deadline =
      spec_.cls == TrafficClass::kRealTime && spec_.deadline_slots > 0
          ? now + slots_to_ticks(spec_.deadline_slots)
          : kNeverTick;
  return packet;
}

void Sink::record_delivery(const Packet& packet, Tick now) {
  auto& cls = classes_[static_cast<std::size_t>(packet.cls)];
  const double delay = ticks_to_slots_real(now - packet.created);
  cls.delay_slots.add(delay);
  ++cls.delivered;
  if (packet.deadline != kNeverTick && now > packet.deadline) {
    ++cls.deadline_misses;
    ++per_flow_counts_[packet.flow].deadline_misses;
  }
  per_flow_delay_[packet.flow].add(delay);
}

void Sink::record_drop(const Packet& packet) {
  ++classes_[static_cast<std::size_t>(packet.cls)].dropped;
  ++per_flow_counts_[packet.flow].dropped;
}

const Sink::ClassStats& Sink::by_class(TrafficClass cls) const {
  return classes_[static_cast<std::size_t>(cls)];
}

std::uint64_t Sink::total_delivered() const noexcept {
  return classes_[0].delivered + classes_[1].delivered + classes_[2].delivered;
}

double Sink::rt_miss_ratio() const noexcept {
  const auto& rt = classes_[static_cast<std::size_t>(TrafficClass::kRealTime)];
  const std::uint64_t total = rt.delivered + rt.dropped;
  if (total == 0) return 0.0;
  return static_cast<double>(rt.deadline_misses + rt.dropped) /
         static_cast<double>(total);
}

double Sink::throughput(Tick t0, Tick t1) const noexcept {
  if (t1 <= t0) return 0.0;
  return static_cast<double>(total_delivered()) / ticks_to_slots_real(t1 - t0);
}

}  // namespace wrt::traffic
