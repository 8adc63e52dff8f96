#include "aloha/engine.hpp"

#include <algorithm>
#include <cassert>

namespace wrt::aloha {

util::Status AlohaConfig::validate() const {
  if (p_persist <= 0.0 || p_persist > 1.0) {
    return util::Error::invalid_argument("p_persist must be in (0, 1]");
  }
  if (cw_min < 1 || cw_max < cw_min) {
    return util::Error::invalid_argument("need 1 <= cw_min <= cw_max");
  }
  if (max_attempts < 1) {
    return util::Error::invalid_argument("max_attempts must be >= 1");
  }
  return channel.validate();
}

AlohaEngine::AlohaEngine(phy::Topology* topology, AlohaConfig config,
                         std::uint64_t seed)
    : topology_(topology), config_(std::move(config)), seed_(seed) {
  assert(topology_ != nullptr);
}

util::Status AlohaEngine::init() {
  assert(!initialised_);
  if (const auto status = config_.validate(); !status.ok()) return status;
  bool any = false;
  for (NodeId n = 0; n < topology_->node_count(); ++n) {
    if (!topology_->alive(n)) continue;
    StationState& st = stations_[n];
    st.cw = config_.cw_min;
    // Per-station stream: one station's backoff history never perturbs
    // another's (the same per-entity-stream rule as the ring's kernel).
    st.rng = util::RngStream(seed_, 0xA70A000u + n);
    any = true;
  }
  if (!any) return util::Error::invalid_argument("no alive stations");
  loss_field_.configure(config_.channel, seed_ ^ 0xA70AFEEDu);
  initialised_ = true;
  return util::Status::success();
}

std::optional<std::size_t> AlohaEngine::queue_depth(NodeId node,
                                                    TrafficClass cls) const {
  const auto it = stations_.find(node);
  if (it == stations_.end() || !it->second.alive) return std::nullopt;
  return cls == TrafficClass::kRealTime ? it->second.rt_queue.size()
                                        : it->second.be_queue.size();
}

bool AlohaEngine::enqueue(traffic::Packet& packet) {
  const auto it = stations_.find(packet.src);
  if (it == stations_.end() || !it->second.alive) return false;
  auto& queue = packet.cls == TrafficClass::kRealTime ? it->second.rt_queue
                                                      : it->second.be_queue;
  if (queue.size() >= config_.queue_capacity) return false;
  queue.push_back(std::move(packet));
  return true;
}

void AlohaEngine::poll_traffic() {
  const auto enqueue = [this](traffic::Packet& packet) {
    return this->enqueue(packet);
  };
  sources_.poll(now_, enqueue, stats_.sink);
  sources_.top_up_all(
      now_,
      [this](NodeId node, TrafficClass cls) { return queue_depth(node, cls); },
      enqueue);
}

traffic::Packet* AlohaEngine::head_of_line(StationState& st) {
  // Real-time frames pre-empt best-effort, matching the class priority the
  // other engines give their synchronous windows.
  if (!st.rt_queue.empty()) return &st.rt_queue.front();
  if (!st.be_queue.empty()) return &st.be_queue.front();
  return nullptr;
}

void AlohaEngine::pop_head(StationState& st) {
  if (!st.rt_queue.empty()) {
    st.rt_queue.pop_front();
  } else {
    st.be_queue.pop_front();
  }
  st.attempts = 0;
  st.cw = config_.cw_min;
  st.backoff = 0;
}

void AlohaEngine::on_failure(NodeId node, StationState& st) {
  (void)node;
  ++st.attempts;
  if (st.attempts >= config_.max_attempts) {
    traffic::Packet* head = head_of_line(st);
    assert(head != nullptr);
    ++stats_.retry_drops;
    stats_.sink.record_drop(*head);
    pop_head(st);
    return;
  }
  st.cw = std::min(st.cw * 2, config_.cw_max);
  st.backoff = static_cast<std::int64_t>(
      st.rng.uniform_int(static_cast<std::uint64_t>(st.cw)));
}

void AlohaEngine::step() {
  assert(initialised_);
  poll_traffic();

  // Phase 1: every ready station decides independently (no coordination —
  // that is the protocol), so decisions must not observe this slot's other
  // transmitters.
  transmitters_.clear();
  for (auto& [node, st] : stations_) {
    if (!st.alive) continue;
    if (head_of_line(st) == nullptr) continue;
    if (st.backoff > 0) {
      --st.backoff;
      continue;
    }
    // p_persist == 1 short-circuits before the draw so the pure-BEB regime
    // makes zero persistence draws (digest parity with the default config).
    if (config_.p_persist < 1.0 && !st.rng.bernoulli(config_.p_persist)) {
      continue;
    }
    transmitters_.push_back(node);
  }

  if (transmitters_.empty()) {
    ++stats_.idle_slots;
  } else {
    ++stats_.busy_slots;
    if (transmitters_.size() >= 2) ++stats_.collisions;
  }

  // Phase 2: receiver-centric outcome per transmitted frame.
  for (const NodeId sender : transmitters_) {
    StationState& st = stations_.at(sender);
    traffic::Packet* head = head_of_line(st);
    assert(head != nullptr);
    const NodeId dst = head->dst;
    ++stats_.transmissions;

    const bool dst_up = dst < topology_->node_count() &&
                        topology_->alive(dst) &&
                        stations_.count(dst) != 0 &&
                        stations_.at(dst).alive;
    if (!dst_up || !topology_->reachable(sender, dst)) {
      ++stats_.unreachable_losses;
      on_failure(sender, st);
      continue;
    }
    // Half-duplex receiver, plus interference from any other transmitter
    // audible at dst (dense room: any two transmitters collide; sparse:
    // capture and hidden terminals fall out of reachability).
    bool collided = false;
    for (const NodeId other : transmitters_) {
      if (other == sender) continue;
      if (other == dst || topology_->reachable(other, dst)) {
        collided = true;
        break;
      }
    }
    if (collided || std::find(transmitters_.begin(), transmitters_.end(),
                              dst) != transmitters_.end()) {
      ++stats_.collided_frames;
      on_failure(sender, st);
      continue;
    }
    if (loss_field_.enabled(fault::LossPurpose::kData) &&
        loss_field_.offer(fault::LossPurpose::kData, sender, dst)) {
      ++stats_.channel_losses;
      on_failure(sender, st);
      continue;
    }

    // Success.
    const double delay = ticks_to_slots_real(now_ - head->created);
    stats_.access_delay_slots.add(delay);
    if (head->cls == TrafficClass::kRealTime) {
      stats_.rt_access_delay_slots.add(delay);
    }
    stats_.attempts_per_success.add(static_cast<double>(st.attempts) + 1.0);
    ++stats_.successes;
    stats_.sink.record_delivery(*head, now_);
    pop_head(st);
  }

  now_ += kTicksPerSlot;
}

void AlohaEngine::run_slots(std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) step();
}

void AlohaEngine::kill_station(NodeId node) {
  const auto it = stations_.find(node);
  if (it == stations_.end() || !it->second.alive) return;
  topology_->set_alive(node, false);
  it->second.alive = false;
  for (auto& packet : it->second.rt_queue) stats_.sink.record_drop(packet);
  for (auto& packet : it->second.be_queue) stats_.sink.record_drop(packet);
  it->second.rt_queue.clear();
  it->second.be_queue.clear();
}

util::Status AlohaEngine::check_invariants() const {
  if (!initialised_) {
    return util::Error::invalid_argument("engine not initialised");
  }
  std::uint64_t failures = stats_.collided_frames + stats_.channel_losses +
                           stats_.unreachable_losses;
  if (stats_.successes + failures != stats_.transmissions) {
    return util::Error::protocol_violation("transmission accounting mismatch");
  }
  if (stats_.successes != stats_.sink.total_delivered()) {
    return util::Error::protocol_violation("success / delivery mismatch");
  }
  for (const auto& [node, st] : stations_) {
    (void)node;
    if (st.backoff < 0 || st.cw < config_.cw_min || st.cw > config_.cw_max) {
      return util::Error::protocol_violation("backoff state out of range");
    }
    if (st.attempts >= config_.max_attempts) {
      return util::Error::protocol_violation("head-of-line frame exceeded retry cap");
    }
    if (st.rt_queue.size() > config_.queue_capacity ||
        st.be_queue.size() > config_.queue_capacity) {
      return util::Error::protocol_violation("queue over capacity");
    }
  }
  return util::Status::success();
}

}  // namespace wrt::aloha
