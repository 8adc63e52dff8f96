#include "tpt/engine.hpp"

#include <algorithm>
#include <cassert>
#include <set>
#include <string>

#include "telemetry/metrics.hpp"
#include "util/log.hpp"

namespace wrt::tpt {

TptEngine::TptEngine(phy::Topology* topology, TptConfig config,
                     std::uint64_t seed)
    : topology_(topology), config_(std::move(config)), seed_(seed) {
  assert(topology_ != nullptr);
  assert(config_.t_proc_prop_slots >= 1);
}

util::Status TptEngine::init() {
  assert(!initialised_);
  NodeId root = kInvalidNode;
  for (NodeId n = 0; n < topology_->node_count(); ++n) {
    if (topology_->alive(n)) {
      root = n;
      break;
    }
  }
  if (root == kInvalidNode) {
    return util::Error::invalid_argument("no alive stations");
  }
  auto tree_result = Tree::build(*topology_, root);
  if (!tree_result.ok()) return tree_result.error();
  tree_ = std::move(tree_result.value());
  for (const NodeId member : tree_.members()) {
    stations_[member];  // default-construct state
  }
  loss_field_.configure(config_.channel, seed_ ^ 0x7907F00Du);
  initialised_ = true;
  launch_token();
  return util::Status::success();
}

std::int64_t TptEngine::h_sync_for(NodeId node) const {
  if (node < config_.h_sync.size() && config_.h_sync[node] > 0) {
    return config_.h_sync[node];
  }
  return config_.h_sync_default;
}

analysis::TptParams TptEngine::params() const {
  analysis::TptParams params;
  params.h_sync_slots.reserve(tree_.size());
  for (const NodeId member : tree_.members()) {
    params.h_sync_slots.push_back(h_sync_for(member));
  }
  params.t_proc_plus_prop_slots =
      static_cast<double>(config_.t_proc_prop_slots);
  params.t_rap_slots = config_.rap_every_rounds > 0 ? config_.t_rap_slots : 0;
  params.ttrt_slots = config_.ttrt_slots;
  return params;
}

// ---------------------------------------------------------------------------
// Traffic
// ---------------------------------------------------------------------------

std::optional<std::size_t> TptEngine::queue_depth(NodeId node,
                                                  TrafficClass cls) const {
  const auto it = stations_.find(node);
  if (it == stations_.end()) return std::nullopt;
  return cls == TrafficClass::kRealTime ? it->second.rt_queue.size()
                                        : it->second.be_queue.size();
}

bool TptEngine::enqueue(traffic::Packet& packet) {
  const auto it = stations_.find(packet.src);
  if (it == stations_.end()) return false;
  auto& queue = packet.cls == TrafficClass::kRealTime ? it->second.rt_queue
                                                      : it->second.be_queue;
  if (queue.size() >= config_.queue_capacity) return false;
  queue.push_back(std::move(packet));
  return true;
}

void TptEngine::poll_traffic() {
  const auto enqueue = [this](traffic::Packet& packet) {
    return this->enqueue(packet);
  };
  sources_.poll(now_, enqueue, stats_.sink);
  sources_.top_up_all(
      now_,
      [this](NodeId node, TrafficClass cls) { return queue_depth(node, cls); },
      enqueue);
}

util::Status TptEngine::check_invariants() const {
  if (stations_.size() != tree_.size()) {
    return util::Error::protocol_violation(
        "station map size does not match tree size");
  }
  if (tour_.empty() || tour_index_ >= tour_.size()) {
    return util::Error::protocol_violation("token tour index out of range");
  }
  if (tour_.size() != 2 * (tree_.size() - 1) &&
      tree_.size() > 1) {
    return util::Error::protocol_violation(
        "tour length is not 2 (N - 1)");
  }
  for (const NodeId member : tree_.members()) {
    if (!stations_.contains(member)) {
      return util::Error::protocol_violation(
          "tree member " + std::to_string(member) + " has no state");
    }
  }
  for (const auto& [node, st] : stations_) {
    if (st.rt_queue.size() > config_.queue_capacity ||
        st.be_queue.size() > config_.queue_capacity ||
        st.forward_queue.size() > config_.queue_capacity) {
      return util::Error::protocol_violation(
          "station " + std::to_string(node) + " queue over capacity");
    }
  }
  for (const NodeId visited : tour_) {
    if (!tree_.contains(visited)) {
      return util::Error::protocol_violation(
          "tour visits non-member " + std::to_string(visited));
    }
  }
  if (sync_budget_ < 0 || async_budget_ < 0) {
    return util::Error::protocol_violation("negative holder budget");
  }
  if (stats_.sink.total_delivered() > stats_.data_transmissions) {
    return util::Error::protocol_violation(
        "more deliveries than transmissions");
  }
  return util::Status::success();
}

// ---------------------------------------------------------------------------
// Token machinery
// ---------------------------------------------------------------------------

void TptEngine::refresh_tour() {
  tour_ = tree_.euler_tour();
  // The Euler tour lists the root at both ends; drop the duplicate so the
  // circular index wraps from the last pre-root station straight to the
  // root (2 (N - 1) link traversals per round, no root->root self-hop).
  if (tour_.size() > 1) tour_.pop_back();
}

void TptEngine::launch_token() {
  refresh_tour();
  tour_index_ = 0;
  token_lost_at_ = kNeverTick;
  for (auto& [node, st] : stations_) {
    st.last_token_departure = now_;
    st.last_token_arrival = kNeverTick;
    st.last_round_transmitted = ~std::uint64_t{0};
  }
  state_ = TokenState::kAtStation;
  token_arrive();
}

void TptEngine::token_arrive() {
  const NodeId holder = tour_[tour_index_];
  if (!topology_->alive(holder)) {
    state_ = TokenState::kLost;
    if (token_lost_at_ == kNeverTick) token_lost_at_ = now_;
    return;
  }
  auto& st = stations_.at(holder);

  if (tour_index_ == 0) {
    ++stats_.token_rounds;
    WRT_COUNT(kTptTokenRounds);
    ++rounds_since_rap_;
    if (config_.rap_every_rounds > 0 &&
        rounds_since_rap_ >=
            static_cast<std::uint64_t>(config_.rap_every_rounds)) {
      open_rap(holder);
      return;
    }
  }

  const bool first_visit = st.last_round_transmitted != stats_.token_rounds;
  if (!first_visit) {
    // Interior re-visit: pure forwarding.
    holder_transmits_ = false;
    state_ = TokenState::kAtStation;
    pass_token();
    return;
  }

  arm_window(holder, st);
  // A station with nothing to send releases the token immediately; holding
  // it for an idle slot would inflate every rotation by N slots.
  if (st.forward_queue.empty() && st.rt_queue.empty() &&
      (st.be_queue.empty() || async_budget_ <= 0)) {
    pass_token();
  }
}

void TptEngine::arm_window(NodeId holder, StationState& st) {
  std::int64_t trt_slots = config_.ttrt_slots;
  if (st.last_token_arrival != kNeverTick) {
    trt_slots = ticks_to_slots(now_ - st.last_token_arrival);
    stats_.token_rotation_slots.add(
        ticks_to_slots_real(now_ - st.last_token_arrival));
  }
  st.last_token_arrival = now_;
  st.last_round_transmitted = stats_.token_rounds;
  sync_budget_ = h_sync_for(holder);
  async_budget_ = std::max<std::int64_t>(0, config_.ttrt_slots - trt_slots);
  holder_transmits_ = true;
  state_ = TokenState::kAtStation;
}

void TptEngine::transmit_one(NodeId holder) {
  auto& st = stations_.at(holder);
  traffic::Packet packet;
  bool from_local = false;
  if (!st.forward_queue.empty() && sync_budget_ > 0) {
    packet = std::move(st.forward_queue.front());
    st.forward_queue.pop_front();
    --sync_budget_;
  } else if (!st.rt_queue.empty() && sync_budget_ > 0) {
    packet = std::move(st.rt_queue.front());
    st.rt_queue.pop_front();
    --sync_budget_;
    from_local = true;
  } else if (!st.be_queue.empty() && async_budget_ > 0) {
    packet = std::move(st.be_queue.front());
    st.be_queue.pop_front();
    --async_budget_;
    from_local = true;
  } else {
    return;
  }

  if (from_local) {
    const double delay = ticks_to_slots_real(now_ - packet.created);
    stats_.access_delay_slots.add(delay);
    if (packet.cls == TrafficClass::kRealTime) {
      stats_.rt_access_delay_slots.add(delay);
      WRT_OBSERVE(kRtAccessDelaySlots, delay);
    } else {
      WRT_OBSERVE(kBeAccessDelaySlots, delay);
    }
  }
  ++stats_.data_transmissions;

  if (packet.dst == holder || topology_->reachable(holder, packet.dst)) {
    if (packet.dst != holder &&
        loss_field_.enabled(fault::LossPurpose::kData) &&
        loss_field_.offer(fault::LossPurpose::kData, holder, packet.dst)) {
      ++stats_.data_channel_losses;
      ++stats_.frames_lost;
      stats_.sink.record_drop(packet);
      return;
    }
    stats_.sink.record_delivery(packet, now_);
    return;
  }
  // Out of direct range: one tree hop toward the destination — unless the
  // destination is no longer part of the tree (died / dropped by a
  // rebuild), in which case the packet is undeliverable.
  if (!tree_.contains(packet.dst)) {
    ++stats_.frames_lost;
    stats_.sink.record_drop(packet);
    return;
  }
  const NodeId next = tree_.next_hop(holder, packet.dst);
  if (!topology_->reachable(holder, next)) {
    ++stats_.frames_lost;
    stats_.sink.record_drop(packet);
    return;
  }
  if (loss_field_.enabled(fault::LossPurpose::kData) &&
      loss_field_.offer(fault::LossPurpose::kData, holder, next)) {
    ++stats_.data_channel_losses;
    ++stats_.frames_lost;
    stats_.sink.record_drop(packet);
    return;
  }
  auto& next_st = stations_.at(next);
  if (next_st.forward_queue.size() >= config_.queue_capacity) {
    ++stats_.frames_lost;
    stats_.sink.record_drop(packet);
    return;
  }
  next_st.forward_queue.push_back(std::move(packet));
}

void TptEngine::pass_token() {
  const NodeId from = tour_[tour_index_];
  stations_.at(from).last_token_departure = now_;
  tour_index_ = (tour_index_ + 1) % tour_.size();
  const NodeId to = tour_[tour_index_];
  if (drop_token_pending_) {
    drop_token_pending_ = false;
    state_ = TokenState::kLost;
    token_lost_at_ = now_;
    trace_.record(sim::EventKind::kTokenLost, now_, from, to);
    return;
  }
  if (!topology_->reachable(from, to)) {
    state_ = TokenState::kLost;
    if (token_lost_at_ == kNeverTick) token_lost_at_ = now_;
    trace_.record(sim::EventKind::kTokenLost, now_, from, to);
    return;
  }
  // A token hop faded by the channel is a lost token: nobody holds it and
  // the 2·TTRT timers must notice (the same recovery path as a dead link).
  if (loss_field_.enabled(fault::LossPurpose::kSat) &&
      loss_field_.offer(fault::LossPurpose::kSat, from, to)) {
    ++stats_.token_channel_losses;
    state_ = TokenState::kLost;
    token_lost_at_ = now_;
    trace_.record(sim::EventKind::kTokenLost, now_, from, to);
    return;
  }
  state_ = TokenState::kInTransit;
  transit_arrival_ = now_ + slots_to_ticks(config_.t_proc_prop_slots);
  ++stats_.token_hops;
  WRT_COUNT(kTptTokenPasses);
}

void TptEngine::token_step() {
  switch (state_) {
    case TokenState::kInTransit:
      if (now_ >= transit_arrival_) token_arrive();
      break;
    case TokenState::kAtStation: {
      const NodeId holder = tour_[tour_index_];
      if (!topology_->alive(holder)) {
        state_ = TokenState::kLost;
        if (token_lost_at_ == kNeverTick) token_lost_at_ = now_;
        break;
      }
      auto& st = stations_.at(holder);
      const bool can_sync =
          sync_budget_ > 0 &&
          (!st.forward_queue.empty() || !st.rt_queue.empty());
      const bool can_async = async_budget_ > 0 && !st.be_queue.empty();
      if (holder_transmits_ && (can_sync || can_async)) {
        transmit_one(holder);
      } else {
        pass_token();
      }
      break;
    }
    case TokenState::kClaimInTransit: {
      if (now_ < transit_arrival_) break;
      const NodeId at = tour_[claim_index_ % tour_.size()];
      const NodeId next = tour_[(claim_index_ + 1) % tour_.size()];
      if (!topology_->alive(at) || !topology_->reachable(at, next)) {
        // Claim stalls; the claim deadline will trigger the rebuild.
        break;
      }
      ++claim_index_;
      --claim_hops_remaining_;
      if (claim_hops_remaining_ == 0) {
        // Claim returned to its origin: the tree is still valid.
        ++stats_.claims_succeeded;
        trace_.record(sim::EventKind::kClaimSucceeded, now_, claim_origin_);
        if (token_lost_at_ != kNeverTick) {
          stats_.recovery_total_slots.add(
              ticks_to_slots_real(now_ - token_lost_at_));
          token_lost_at_ = kNeverTick;
        }
        claim_deadline_ = kNeverTick;
        tour_index_ = claim_index_ % tour_.size();
        token_arrive();
        break;
      }
      transit_arrival_ = now_ + slots_to_ticks(config_.t_proc_prop_slots);
      break;
    }
    case TokenState::kRap:
      if (now_ >= rap_end_) finish_rap();
      break;
    case TokenState::kLost:
      break;
    case TokenState::kRebuilding:
      if (now_ >= rebuild_done_) finish_rebuild();
      break;
  }
}

void TptEngine::check_timers() {
  if (state_ == TokenState::kClaimInTransit &&
      claim_deadline_ != kNeverTick && now_ > claim_deadline_) {
    // "otherwise the tree is considered lost" (Section 3.1.3).
    start_rebuild();
    return;
  }
  if (state_ != TokenState::kLost) return;

  // Per-station timer: armed to 2 TTRT at token departure.
  const Tick timeout = slots_to_ticks(2 * config_.ttrt_slots);
  NodeId detector = kInvalidNode;
  Tick earliest = kNeverTick;
  for (const auto& [node, st] : stations_) {
    if (!topology_->alive(node)) continue;
    const Tick expiry = st.last_token_departure + timeout;
    if (now_ > expiry && expiry < earliest) {
      earliest = expiry;
      detector = node;
    }
  }
  if (detector != kInvalidNode) {
    ++stats_.losses_detected;
    if (token_lost_at_ != kNeverTick) {
      stats_.loss_detection_slots.add(
          ticks_to_slots_real(now_ - token_lost_at_));
    }
    start_claim(detector);
  }
}

void TptEngine::start_claim(NodeId detector) {
  WRT_COUNT(kTptClaims);
  trace_.record(sim::EventKind::kClaimStarted, now_, detector);
  util::log(util::LogLevel::kInfo,
            "TPT: token loss detected by station " + std::to_string(detector));
  // The claim token re-walks the full tour from the detector's position.
  claim_origin_ = detector;
  claim_index_ = 0;
  for (std::size_t i = 0; i < tour_.size(); ++i) {
    if (tour_[i] == detector) {
      claim_index_ = i;
      break;
    }
  }
  claim_hops_remaining_ = tour_.size();
  claim_deadline_ = now_ + slots_to_ticks(2 * config_.ttrt_slots);
  stations_.at(detector).last_token_departure = now_;
  state_ = TokenState::kClaimInTransit;
  transit_arrival_ = now_ + slots_to_ticks(config_.t_proc_prop_slots);
}

void TptEngine::start_rebuild() {
  ++stats_.tree_rebuilds;
  WRT_COUNT(kTptTreeRebuilds);
  util::log(util::LogLevel::kInfo, "TPT: tree rebuild started");
  state_ = TokenState::kRebuilding;
  claim_deadline_ = kNeverTick;
  std::int64_t alive = 0;
  for (NodeId n = 0; n < topology_->node_count(); ++n) {
    if (topology_->alive(n)) ++alive;
  }
  rebuild_done_ = now_ + slots_to_ticks(config_.rebuild_base_slots +
                                        config_.rebuild_per_station_slots *
                                            alive);
}

void TptEngine::finish_rebuild() {
  NodeId root = kInvalidNode;
  if (claim_origin_ != kInvalidNode && topology_->alive(claim_origin_)) {
    root = claim_origin_;
  } else {
    for (NodeId n = 0; n < topology_->node_count(); ++n) {
      if (topology_->alive(n)) {
        root = n;
        break;
      }
    }
  }
  if (root == kInvalidNode) {
    rebuild_done_ = now_ + slots_to_ticks(config_.rebuild_base_slots);
    return;
  }
  auto tree_result = Tree::build(*topology_, root);
  if (!tree_result.ok()) {
    rebuild_done_ = now_ + slots_to_ticks(config_.rebuild_base_slots);
    return;
  }
  tree_ = std::move(tree_result.value());
  std::set<NodeId> members(tree_.members().begin(), tree_.members().end());
  for (auto it = stations_.begin(); it != stations_.end();) {
    if (!members.contains(it->first)) {
      it = stations_.erase(it);
    } else {
      ++it;
    }
  }
  for (const NodeId member : tree_.members()) stations_[member];
  if (token_lost_at_ != kNeverTick) {
    stats_.recovery_total_slots.add(
        ticks_to_slots_real(now_ - token_lost_at_));
  }
  util::log(util::LogLevel::kInfo,
            "TPT: tree rebuilt, size " + std::to_string(tree_.size()));
  trace_.record(sim::EventKind::kTreeRebuilt, now_);
  launch_token();
}

void TptEngine::open_rap(NodeId at) {
  rounds_since_rap_ = 0;
  rap_station_ = at;
  rap_end_ = now_ + slots_to_ticks(config_.t_rap_slots);
  state_ = TokenState::kRap;
}

void TptEngine::finish_rap() {
  const NodeId at = rap_station_;
  rap_station_ = kInvalidNode;
  // A requesting station that can hear the RAP holder joins as its child
  // (Section 3.1.1).  One join per RAP.
  for (auto it = pending_joins_.begin(); it != pending_joins_.end(); ++it) {
    const NodeId joiner = it->first;
    if (!topology_->alive(joiner) || !topology_->reachable(at, joiner)) {
      continue;
    }
    tree_.add_child(at, joiner);
    stations_[joiner];
    refresh_tour();
    // Re-locate the token (still at `at`) in the refreshed tour.
    for (std::size_t i = 0; i < tour_.size(); ++i) {
      if (tour_[i] == at) {
        tour_index_ = i;
        break;
      }
    }
    ++stats_.joins_completed;
    stats_.join_latency_slots.add(ticks_to_slots_real(now_ - it->second));
    pending_joins_.erase(it);
    break;
  }
  // Resume the holder's window (budgets were armed on arrival only when the
  // RAP interrupted a first visit; arm them now for the root's visit).
  arm_window(at, stations_.at(at));
}

void TptEngine::request_join(NodeId node) {
  // A tree rebuild may have recruited the requester already.
  if (tree_.contains(node)) return;
  pending_joins_[node] = now_;
}

void TptEngine::kill_station(NodeId node) {
  topology_->set_alive(node, false);
  if ((state_ == TokenState::kAtStation || state_ == TokenState::kRap) &&
      tour_[tour_index_] == node) {
    state_ = TokenState::kLost;
    token_lost_at_ = now_;
  }
}

void TptEngine::step() {
  assert(initialised_);
  poll_traffic();
  token_step();
  check_timers();
  now_ += kTicksPerSlot;
}

void TptEngine::run_slots(std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) step();
}

}  // namespace wrt::tpt
