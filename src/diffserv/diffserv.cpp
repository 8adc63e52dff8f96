#include "diffserv/diffserv.hpp"

#include <algorithm>
#include <cassert>

namespace wrt::diffserv {

TokenBucket::TokenBucket(double rate_per_slot, double burst)
    : rate_per_slot_(rate_per_slot), burst_(burst), tokens_(burst) {}

void TokenBucket::refill(Tick now) {
  assert(now >= last_refill_);
  const double elapsed_slots = ticks_to_slots_real(now - last_refill_);
  tokens_ = std::min(burst_, tokens_ + rate_per_slot_ * elapsed_slots);
  last_refill_ = now;
}

bool TokenBucket::conforms(Tick now) {
  refill(now);
  if (tokens_ >= 1.0) {
    tokens_ -= 1.0;
    return true;
  }
  return false;
}

double TokenBucket::tokens(Tick now) {
  refill(now);
  return tokens_;
}

EdgeConditioner::EdgeConditioner(const EdgePolicy& policy)
    : premium_meter_(policy.premium_rate, policy.premium_burst),
      assured_meter_(policy.assured_rate, policy.assured_burst) {}

std::optional<TrafficClass> EdgeConditioner::condition(
    const traffic::Packet& packet, Tick now) {
  switch (packet.cls) {
    case TrafficClass::kRealTime:
      // Premium: out-of-profile packets are dropped (two-bit architecture:
      // Premium is shaped/policed hard so the core sees only the profile).
      if (premium_meter_.conforms(now)) return TrafficClass::kRealTime;
      ++premium_drops_;
      return std::nullopt;
    case TrafficClass::kAssured:
      // Assured: out-of-profile packets lose their assurance (demoted).
      if (assured_meter_.conforms(now)) return TrafficClass::kAssured;
      ++assured_demotions_;
      return TrafficClass::kBestEffort;
    case TrafficClass::kBestEffort:
      return TrafficClass::kBestEffort;
  }
  return TrafficClass::kBestEffort;
}

PriorityLink::PriorityLink(double service_rate_per_slot,
                           std::size_t queue_capacity)
    : service_rate_(service_rate_per_slot), capacity_(queue_capacity) {}

// wrt-lint-allow(by-value-frame-param): deliberate sink, moved into queue
void PriorityLink::enqueue(traffic::Packet packet) {
  auto& queue = queues_[static_cast<std::size_t>(packet.cls)];
  if (queue.size() >= capacity_) {
    ++drops_[static_cast<std::size_t>(packet.cls)];
    return;
  }
  queue.push_back(std::move(packet));
}

void PriorityLink::step(std::vector<traffic::Packet>& served) {
  service_credit_ += service_rate_;
  while (service_credit_ >= 1.0) {
    // Strict priority: Premium (kRealTime) first, then Assured, then BE.
    std::deque<traffic::Packet>* queue = nullptr;
    for (auto& candidate : queues_) {
      if (!candidate.empty()) {
        queue = &candidate;
        break;
      }
    }
    if (queue == nullptr) break;
    served.push_back(std::move(queue->front()));
    queue->pop_front();
    service_credit_ -= 1.0;
  }
  // Idle links do not accumulate unbounded credit.
  service_credit_ = std::min(service_credit_, 1.0);
}

std::size_t PriorityLink::queue_depth(TrafficClass cls) const {
  return queues_[static_cast<std::size_t>(cls)].size();
}

std::uint64_t PriorityLink::tail_drops(TrafficClass cls) const {
  return drops_[static_cast<std::size_t>(cls)];
}

LanModel::LanModel(const EdgePolicy& policy, std::size_t hops,
                   double service_rate_per_slot, std::size_t queue_capacity)
    : edge_(policy),
      links_(hops, service_rate_per_slot, queue_capacity,
             policy.premium_rate) {}

void LanModel::inject(const traffic::Packet& packet, Tick now) {
  const std::optional<TrafficClass> cls = edge_.condition(packet, now);
  if (!cls.has_value()) {
    sink_.record_drop(packet);
    return;
  }
  traffic::Packet marked = packet;
  marked.cls = *cls;
  links_.inject(marked);
}

void LanModel::step(Tick now) {
  delivered_.clear();
  links_.step(delivered_);
  for (const auto& packet : delivered_) sink_.record_delivery(packet, now);
}

BackboneSegment::BackboneSegment(std::size_t hops,
                                 double service_rate_per_slot,
                                 std::size_t queue_capacity,
                                 double premium_capacity)
    : premium_capacity_(premium_capacity) {
  if (hops == 0) hops = 1;
  hops_.reserve(hops);
  for (std::size_t h = 0; h < hops; ++h) {
    hops_.emplace_back(service_rate_per_slot, queue_capacity);
  }
}

void BackboneSegment::inject(const traffic::Packet& packet) {
  hops_.front().enqueue(packet);
}

void BackboneSegment::step(std::vector<traffic::Packet>& egress) {
  // Serve from the last hop backwards so a packet crosses one hop per slot;
  // the last hop feeds the caller.
  hops_.back().step(egress);
  for (std::size_t h = hops_.size() - 1; h-- > 0;) {
    served_.clear();
    hops_[h].step(served_);
    for (auto& packet : served_) hops_[h + 1].enqueue(std::move(packet));
  }
}

std::size_t BackboneSegment::queue_depth() const {
  std::size_t depth = 0;
  for (const auto& hop : hops_) {
    depth += hop.queue_depth(TrafficClass::kRealTime) +
             hop.queue_depth(TrafficClass::kAssured) +
             hop.queue_depth(TrafficClass::kBestEffort);
  }
  return depth;
}

std::uint64_t BackboneSegment::tail_drops() const {
  std::uint64_t drops = 0;
  for (const auto& hop : hops_) {
    drops += hop.tail_drops(TrafficClass::kRealTime) +
             hop.tail_drops(TrafficClass::kAssured) +
             hop.tail_drops(TrafficClass::kBestEffort);
  }
  return drops;
}

}  // namespace wrt::diffserv
