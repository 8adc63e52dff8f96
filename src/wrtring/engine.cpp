#include "wrtring/engine.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <string>

#include "telemetry/metrics.hpp"
#include "util/audit.hpp"
#include "util/log.hpp"

namespace wrt::wrtring {

namespace {
/// True when `node` is in the sorted vector (cold-path membership test used
/// by the rebuild paths; keeps associative containers out of this file).
bool sorted_contains(const std::vector<NodeId>& sorted, NodeId node) {
  return std::binary_search(sorted.begin(), sorted.end(), node);
}
}  // namespace

Engine::Engine(phy::Topology* topology, Config config, std::uint64_t seed)
    : topology_(topology), config_(std::move(config)), seed_(seed) {
  assert(topology_ != nullptr);
}

util::Status Engine::init() {
  assert(!initialised_);
  if (const auto valid = config_.validate(); !valid.ok()) return valid;
  fsm_.bind(this, {config_.guard_slots, config_.wtr_slots, config_.wtb_slots,
                   config_.revertive});

  // With every channel process disabled the loss field makes zero RNG
  // draws — behaviour is bit-identical to a build without the fault plane.
  link_loss_.configure(config_.channel, seed_);
  auto ring_result =
      config_.members.empty()
          ? ring::build_ring(*topology_)
          : ring::build_ring_over(*topology_, config_.members);
  if (!ring_result.ok()) return ring_result.error();
  ring_ = std::move(ring_result.value());

  assign_codes();
  if (!cdma::verify_two_hop_distinct(*topology_, codes_)) {
    return util::Error::protocol_violation(
        "CDMA code assignment violates the distance-2 condition");
  }

  kernel_.clear();
  kernel_.configure(config_.queue_capacity);
  kernel_.reserve(ring_.size());
  for (std::size_t p = 0; p < ring_.size(); ++p) {
    kernel_.insert_station(p, ring_.station_at(p), config_.default_quota,
                           config_.k1_assured, now_);
  }
  rebuild_position_index();
  reset_data_plane();
  rotation_anchor_ = ring_.station_at(0);

  if (config_.cdma_fidelity) {
    channel_ = std::make_unique<cdma::Channel<traffic::Packet>>(topology_);
    for (std::size_t p = 0; p < ring_.size(); ++p) {
      const NodeId node = ring_.station_at(p);
      channel_->set_listen_codes(node, {codes_[node], kBroadcastCode});
    }
  }

  initialised_ = true;
  launch_sat(ring_.station_at(0));
  notify_audit("init");
  return util::Status::success();
}

void Engine::assign_codes() {
  codes_ = cdma::assign_greedy_two_hop(*topology_);
}

// ---------------------------------------------------------------------------
// Position-indexed membership maintenance
// ---------------------------------------------------------------------------

std::int32_t Engine::station_position(NodeId node) const noexcept {
  return node < position_index_.size() ? position_index_[node] : -1;
}

std::size_t Engine::member_position(NodeId node, const char* accessor) const {
  const std::int32_t position = station_position(node);
  if (position < 0) {
    throw std::out_of_range(std::string(accessor) + ": node not in ring");
  }
  return static_cast<std::size_t>(position);
}

void Engine::rebuild_position_index() {
  position_index_.assign(topology_->node_count(), -1);
  const std::vector<NodeId>& order = ring_.order();
  for (std::size_t p = 0; p < order.size(); ++p) {
    position_index_[order[p]] = static_cast<std::int32_t>(p);
  }
  ++membership_epoch_;
  sat_timeout_dirty_ = true;
  sat_timer_guard_valid_ = false;
}

void Engine::reset_data_plane() {
  kernel_.reset_links();
  // Every teardown funnels through here: the calendar now describes frames
  // that no longer exist.
  calendar_stale_ = true;
  in_flight_ = 0;
}

const std::vector<fault::LinkLossField::Handle>& Engine::hop_loss_handles(
    fault::LossPurpose purpose) {
  const auto i = static_cast<std::size_t>(purpose);
  assert(i < std::size(hop_loss_));
  std::vector<fault::LinkLossField::Handle>& table = hop_loss_[i];
  if (hop_loss_epoch_[i] != membership_epoch_) {
    hop_loss_epoch_[i] = membership_epoch_;
    const std::vector<NodeId>& order = ring_.order();
    const std::size_t R = order.size();
    table.resize(R);
    for (std::size_t p = 0; p < R; ++p) {
      table[p] =
          link_loss_.handle(purpose, order[p], order[p + 1 == R ? 0 : p + 1]);
    }
  }
  return table;
}

void Engine::insert_member(NodeId ingress, NodeId joiner, Quota quota) {
  const std::size_t position = ring_.position_of(ingress) + 1;
  ring_.insert_after(ingress, joiner);
  kernel_.insert_station(position, joiner, quota, config_.k1_assured, now_);
  rebuild_position_index();
}

void Engine::erase_member(std::size_t position) {
  assert(position < ring_.size());
  const NodeId node = ring_.station_at(position);
  ring_.remove(node);
  kernel_.erase_station(position);
  // A departing RAP-round owner would leave the mutex flag dangling forever
  // (the flag is cleared only when the SAT completes a round back at the
  // owner), permanently blocking every future RAP.
  if (sat_.rap_owner == node) sat_.rap_owner = kInvalidNode;
  rebuild_position_index();
}

Quota Engine::station_quota(NodeId node) const {
  return kernel_.quotas()[member_position(node, "Engine::station_quota")];
}

void Engine::set_station_quota(NodeId node, Quota quota) {
  kernel_.set_quota(member_position(node, "Engine::set_station_quota"),
                    quota);
  sat_timeout_dirty_ = true;
  sat_timer_guard_valid_ = false;
}

std::uint32_t Engine::station_split(NodeId node) const {
  return kernel_.k1_assured(member_position(node, "Engine::station_split"));
}

void Engine::set_station_split(NodeId node, std::uint32_t k1_assured) {
  const std::size_t p = member_position(node, "Engine::set_station_split");
  if (k1_assured > kernel_.quotas()[p].k) {
    throw std::invalid_argument(
        "Engine::set_station_split: k1 exceeds the station's k quota");
  }
  kernel_.set_k1_assured(p, k1_assured);
}

analysis::RingParams Engine::ring_params() const {
  analysis::RingParams params;
  params.ring_latency_slots = static_cast<std::int64_t>(ring_.size()) *
                              config_.sat_hop_latency_slots;
  params.t_rap_slots = config_.t_rap_slots();
  params.quotas = kernel_.quotas();
  return params;
}

telemetry::RingMeta Engine::journal_meta() const {
  telemetry::RingMeta meta;
  meta.ring_latency_slots = static_cast<std::int64_t>(ring_.size()) *
                            config_.sat_hop_latency_slots;
  meta.t_rap_slots = config_.t_rap_slots();
  meta.quotas.reserve(ring_.size());
  for (std::size_t p = 0; p < ring_.size(); ++p) {
    meta.quotas.emplace_back(ring_.station_at(p), kernel_.quotas()[p]);
  }
  return meta;
}

std::vector<Tick> Engine::sat_arrival_history(NodeId node) const {
  std::vector<Tick> history;
  const std::int32_t position = station_position(node);
  if (position < 0) return history;
  const SlotKernel::ArrivalView arrivals =
      kernel_.arrivals(static_cast<std::size_t>(position));
  history.reserve(arrivals.size());
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    history.push_back(arrivals[i]);
  }
  return history;
}

bool Engine::admission_allows(Quota extra) const {
  if (max_sat_time_goal_ <= 0) return true;
  analysis::RingParams params = ring_params();
  params.ring_latency_slots += config_.sat_hop_latency_slots;
  params.quotas.push_back(extra);
  return analysis::sat_time_bound(params) <= max_sat_time_goal_;
}

// ---------------------------------------------------------------------------
// Traffic
// ---------------------------------------------------------------------------

std::optional<std::size_t> Engine::queue_depth(
    NodeId node, TrafficClass cls) const noexcept {
  const std::int32_t position = station_position(node);
  if (position < 0) return std::nullopt;
  return kernel_.queue_depth(static_cast<std::size_t>(position), cls);
}

std::uint64_t Engine::queue_drops(NodeId node) const {
  return kernel_.drops(member_position(node, "Engine::queue_drops"));
}

bool Engine::enqueue(traffic::Packet& packet) {
  const std::int32_t position = station_position(packet.src);
  return position >= 0 &&
         kernel_.enqueue(static_cast<std::size_t>(position),
                         std::move(packet));
}

void Engine::poll_traffic() {
  const auto enqueue = [this](traffic::Packet& packet) {
    return this->enqueue(packet);
  };
  const auto depth = [this](NodeId node, TrafficClass cls) {
    return queue_depth(node, cls);
  };
  sources_.poll(now_, enqueue, stats_.sink);
  // A membership change can empty a bound's queue without a transmission
  // (join, cut-out, re-formation), so it re-verifies every bound.
  if (poll_epoch_ != membership_epoch_) {
    poll_epoch_ = membership_epoch_;
    sources_.top_up_all(now_, depth, enqueue);
  } else {
    sources_.top_up_transmitted(now_, depth, enqueue);
  }
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

void Engine::step() {
  assert(initialised_);

  if (sat_state_ == SatState::kRebuilding) {
    if (now_ >= rebuild_done_) {
      finish_rebuild();
    }
  }

  poll_traffic();
  rap_step();
  if (sat_state_ != SatState::kRebuilding) {
    data_plane_step();
    sat_plane_step();
    check_sat_timers();
  }
  // Recovery timers (guard window, WTR/WTB hold-offs) run even through a
  // rebuild; with all-defaults tuning timers_active() is always false.
  if (fsm_.timers_active()) fsm_.tick(now_);
  if (journal_queue_sample_slots_ > 0) maybe_sample_queues();

  now_ += kTicksPerSlot;
  WRT_COUNT(telemetry_, kSlotsStepped);
  WRT_AUDIT(maybe_periodic_audit());
}

void Engine::maybe_sample_queues() {
  if (now_slots() % journal_queue_sample_slots_ != 0) return;
  for (std::size_t p = 0; p < kernel_.size(); ++p) {
    const std::size_t depth =
        kernel_.queue_depth(p, TrafficClass::kRealTime) +
        kernel_.queue_depth(p, TrafficClass::kAssured) +
        kernel_.queue_depth(p, TrafficClass::kBestEffort);
    WRT_OBSERVE(telemetry_, kQueueDepth, depth);
    journal_record(kernel_.ids()[p], telemetry::JournalKind::kQueueDepth, 0,
                   static_cast<std::uint64_t>(depth));
  }
}

void Engine::maybe_periodic_audit() {
  if (audit_hook_ && audit_every_slots_ > 0 &&
      now_slots() % audit_every_slots_ == 0) {
    audit_hook_("periodic");
  }
}

void Engine::run_slots(std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) step();
}

bool Engine::data_allowed() const noexcept {
  // Section 2.4.1: during the RAP "transmissions are not allowed and hence
  // the network is idle" — no new injections (transit keeps draining).
  return !in_rap() && sat_state_ != SatState::kRebuilding;
}

// ---------------------------------------------------------------------------
// Data plane
// ---------------------------------------------------------------------------

void Engine::deliver(LinkFrame& frame, NodeId at) {
  // Deliveries are counted per slot (WRT_COUNT_N in data_plane_step), not
  // here: one count per slot instead of one per absorbed frame.
  stats_.sink.record_delivery(frame.packet, now_);
  journal_record(at, telemetry::JournalKind::kDeliver, frame.packet.src);
  if (delivery_tap_) delivery_tap_(frame.packet, at, now_);
}

void Engine::rebuild_hot_caches() {
  const std::size_t R = ring_.size();
  const std::vector<NodeId>& order = ring_.order();
  active_cache_.resize(R);
  link_ok_cache_.resize(R);
  for (std::size_t p = 0; p < R; ++p) {
    active_cache_[p] = station_active(order[p]) ? 1 : 0;
    link_ok_cache_[p] =
        topology_->reachable(order[p], order[p + 1 == R ? 0 : p + 1]) ? 1 : 0;
  }
  // Distance to the next barrier: sweep backward around the ring twice; the
  // first lap only carries the distance across the wrap.
  next_barrier_.resize(R);
  std::uint32_t distance = kNoBarrier;
  for (std::size_t k = 2 * R; k-- > 0;) {
    const std::size_t q = k < R ? k : k - R;
    if (active_cache_[q] == 0 || link_ok_cache_[q] == 0) {
      distance = 0;
    } else if (distance != kNoBarrier) {
      ++distance;
    }
    if (k < R) next_barrier_[q] = distance;
  }
  calendar_stale_ = true;
  cache_topology_version_ = topology_->version();
  cache_membership_epoch_ = membership_epoch_;
  cache_stall_epoch_ = stall_epoch_;
}

inline traffic::Packet Engine::take_injection(
    std::size_t p, NodeId node, TrafficClass cls,
    std::uint64_t (&tx_by_class)[3]) {
  traffic::Packet packet = kernel_.take_for_transmit(p, cls);
  sources_.note_transmit(node);
  const double delay = ticks_to_slots_real(now_ - packet.created);
  stats_.access_delay_slots.add(delay);
  if (packet.cls == TrafficClass::kRealTime) {
    stats_.rt_access_delay_slots.add(delay);
    WRT_OBSERVE(telemetry_, kRtAccessDelaySlots, delay);
  } else {
    WRT_OBSERVE(telemetry_, kBeAccessDelaySlots, delay);
  }
  ++tx_by_class[static_cast<std::size_t>(packet.cls)];
  journal_record(node, telemetry::JournalKind::kTransmit,
                 static_cast<std::uint32_t>(packet.cls),
                 static_cast<std::uint64_t>(now_ - packet.created));
  ++stats_.data_transmissions;
  return packet;
}

// ---------------------------------------------------------------------------
// Data plane: the rotation calendar
//
// Fixed slots rotate one position per slot with destination release
// (Section 2.2, Figure 1).  Every in-flight frame advances one link per
// slot, so one rotation of the kernel's logical->physical column map moves
// all of them at once, and a frame's physical column never changes during
// its flight.  Given the ring's silent stations and unreachable hops, the
// arrival that ends a flight is known when the frame enters the ring: the
// first arrival that is
//
//   kSilent       at a dead or stalled station (the frame is lost),
//   kDeliver      at its destination (destination release),
//   kStale        number R + 2, once the destination has left the ring, or
//   kUnreachable  at a station whose outgoing hop is unreachable (the frame
//                 is forwarded, then lost on that hop),
//
// with ties at one arrival broken in that order.  schedule_flight_end()
// files that one event into calendar_ at injection, so a slot's work is
// O(flight ends + injections), independent of ring size and in-flight
// count; the barrier table next_barrier_ makes the silent and unreachable
// cases O(1) per frame.  A change of the liveness/reachability key rebuilds
// the table and the calendar in O(R + in-flight).
//
// The per-hop work that cannot be scheduled ahead — the kData loss draw
// and, in fidelity mode, the header round trip and Channel::transmit — is
// one visit per frame on a link after the injections.  The kernel's
// busy-link bitmap (bit c set exactly while column c carries a frame; only
// SlotKernel::occupy and SlotKernel::release write it) lets the visit walk
// the set bits, O(R/64 + frames in flight), in column order; column c
// carries the hop of position (c - rot) mod R.  Each (purpose, directed
// link) loss stream is independent and draws at most once per slot, and
// Channel::end_slot resolves each listener over the whole slot's
// transmission list, so the visit order cannot change any draw, delivery or
// collision count.
//
// Effect order within a slot:
//   1. flight ends at arrivals, ascending position: deliveries, stale
//      purges, losses at silent stations;
//   2. injections, ascending position;
//   3. hop losses: unreachable hops, then channel draws.  A frame lost on
//      its outgoing hop still counts as forwarded, and its station does not
//      inject in its place.
// ---------------------------------------------------------------------------

void Engine::schedule_flight_end(std::uint32_t column, std::uint32_t tag,
                                 std::int64_t slot, std::size_t arrive,
                                 std::int64_t age,
                                 std::int32_t dst_position) {
  const auto R = static_cast<std::int64_t>(ring_.size());
  const auto a = static_cast<std::int64_t>(arrive);
  // The flight ends `ahead` arrivals after the next one: in slot + ahead,
  // at position arrive + ahead.  Arrival number R + 2 takes the hop count
  // past R + 1: the stale purge.
  // Positions wrap by compare-and-subtract: both operands of each sum are
  // below R, except the stale purge's `ahead`, which is at most R + 1.
  std::int64_t ahead = std::max<std::int64_t>(R + 2 - age, 0);
  FlightEnd end = FlightEnd::kStale;
  if (dst_position >= 0) {
    std::int64_t to_dst = dst_position - a;
    if (to_dst < 0) to_dst += R;
    if (to_dst <= ahead) {
      ahead = to_dst;
      end = FlightEnd::kDeliver;
    }
  }
  const std::uint32_t barrier = next_barrier_[arrive];
  if (barrier != kNoBarrier) {
    std::int64_t at = a + barrier;
    if (at >= R) at -= R;
    const bool silent = active_cache_[static_cast<std::size_t>(at)] == 0;
    if (barrier < ahead || (barrier == ahead && silent)) {
      ahead = barrier;
      end = silent ? FlightEnd::kSilent : FlightEnd::kUnreachable;
    }
  }
  std::int64_t position = a + ahead;
  if (position >= R) position -= R;
  if (position >= R) position -= R;
  calendar_[static_cast<std::size_t>(slot + ahead) & calendar_mask_].push_back(
      {column, static_cast<std::uint32_t>(position), tag, end});
}

void Engine::replan_calendar() {
  const std::size_t R = ring_.size();
  calendar_.resize(std::bit_ceil(R + 3));
  calendar_mask_ = calendar_.size() - 1;
  for (auto& bucket : calendar_) bucket.clear();
  const std::int64_t now_slot = now_slots();
  for (std::size_t p = 0; p < R; ++p) {
    const std::size_t c = kernel_.link_col(p);
    const std::uint32_t tag = kernel_.link_tag_[c];
    if (tag == 0) continue;
    // The frame on link p reaches position p+1 this slot as its arrival
    // number `age`: it has advanced one link per slot since it entered.
    const LinkFrame& frame = kernel_.link_slots_[c];
    schedule_flight_end(static_cast<std::uint32_t>(c), tag, now_slot,
                        p + 1 == R ? 0 : p + 1,
                        now_slot - ticks_to_slots(frame.entered_ring),
                        station_position(frame.packet.dst));
  }
  calendar_stale_ = false;
}

void Engine::data_plane_step() {
  const std::size_t R = ring_.size();
  if (R == 0) return;
  const std::vector<NodeId>& order = ring_.order();
  refresh_hot_caches();
  if (calendar_stale_) replan_calendar();
  const std::int64_t now_slot = now_slots();
  if (config_.cdma_fidelity) channel_->begin_slot(now_);

  // Every in-flight frame advances one link.
  kernel_.rotate_links_one();

  // 1. Flight ends at this slot's arrivals.  Each column feeds one position
  // per slot; sorting visits the arrivals in ascending position.
  std::uint64_t delivered_now = 0;
  std::uint64_t lost_now = 0;
  auto& bucket = calendar_[static_cast<std::size_t>(now_slot) & calendar_mask_];
  if (bucket.size() > 1) {
    std::sort(bucket.begin(), bucket.end(),
              [](const DataEvent& a, const DataEvent& b) {
                return a.position < b.position;
              });
  }
  for (const DataEvent& ev : bucket) {
    const std::uint32_t tag = kernel_.link_tag_[ev.column];
    if (tag != ev.tag) continue;  // that frame was lost to a channel draw
    LinkFrame& frame = kernel_.link_slots_[ev.column];
    switch (ev.end) {
      case FlightEnd::kSilent:
        ++stats_.frames_lost_link;
        ++lost_now;
        break;
      case FlightEnd::kDeliver:
        deliver(frame, order[ev.position]);
        ++delivered_now;
        break;
      case FlightEnd::kStale:
        ++stats_.frames_dropped_stale;
        stats_.sink.record_drop(frame.packet);
        break;
      case FlightEnd::kUnreachable:
        continue;  // forwarded: the hop kills it after the injections
    }
    kernel_.release(ev.column);
    --in_flight_;
  }

  // Every frame still on a link was forwarded by the station it reached.
  const std::uint64_t transit_now = in_flight_;
  stats_.transit_forwards += transit_now;

  // 2. Injections: walk the Send-eligibility bitmap in ascending position
  // order (word snapshot; set bits are re-verified so a stale bit can only
  // cost a check, never a wrong transmission).
  std::uint64_t tx_by_class[3] = {0, 0, 0};
  if (data_allowed()) {
    if (kernel_.eligible_bits_dirty_) kernel_.rebuild_eligible();
    auto& bits = kernel_.eligible_bits_;
    for (std::size_t w = 0; w < bits.size(); ++w) {
      std::uint64_t word = bits[w];
      while (word != 0) {
        const std::size_t p =
            (w << 6) + static_cast<std::size_t>(std::countr_zero(word));
        word &= word - 1;
        if (p >= R) break;
        const std::size_t c = kernel_.link_col(p);
        if (kernel_.link_tag_[c] != 0) continue;  // forwarding a frame
        if (active_cache_[p] == 0) continue;      // silent: sends nothing
        const auto cls = kernel_.eligible_class(p);
        if (!cls) {
          // Stale bit (test hooks mutate Send state behind the mutators).
          bits[w] &= ~(std::uint64_t{1} << (p & 63));
          continue;
        }
        traffic::Packet packet =
            take_injection(p, order[p], *cls, tx_by_class);
        if (link_ok_cache_[p] == 0) {  // lost on its first hop
          ++stats_.frames_lost_link;
          ++lost_now;
          continue;
        }
        const std::int32_t dst_position = station_position(packet.dst);
        const std::uint32_t tag = kernel_.occupy(c, std::move(packet), now_);
        ++in_flight_;
        schedule_flight_end(static_cast<std::uint32_t>(c), tag, now_slot + 1,
                            p + 1 == R ? 0 : p + 1, 1, dst_position);
      }
    }
  }

  // 3. Hop losses: frames forwarded onto an unreachable hop...
  for (const DataEvent& ev : bucket) {
    if (ev.end != FlightEnd::kUnreachable ||
        kernel_.link_tag_[ev.column] != ev.tag) {
      continue;
    }
    kernel_.release(ev.column);
    --in_flight_;
    ++stats_.frames_lost_link;
    ++lost_now;
  }
  bucket.clear();
  // ...then the per-hop visit: it walks the busy-link bitmap's set bits in
  // column order (word snapshot; a draw's loss clears only bits already
  // passed).  With the data-loss purpose disabled offer() makes no RNG
  // draw, so skipping the call is behaviour-identical.
  const bool data_loss_possible =
      link_loss_.enabled(fault::LossPurpose::kData);
  if (data_loss_possible || config_.cdma_fidelity) {
    assert(kernel_.link_columns() == R);
    const fault::LinkLossField::Handle* hop_loss =
        data_loss_possible
            ? hop_loss_handles(fault::LossPurpose::kData).data()
            : nullptr;
    const std::vector<std::uint64_t>& busy = kernel_.link_busy_;
    for (std::size_t w = 0; w < busy.size(); ++w) {
      std::uint64_t word = busy[w];
      while (word != 0) {
        const std::size_t c =
            (w << 6) + static_cast<std::size_t>(std::countr_zero(word));
        word &= word - 1;
        const std::size_t p = kernel_.link_position(c);
        if (data_loss_possible && link_loss_.offer(hop_loss[p])) {
          kernel_.release(c);  // its calendar entry goes stale
          --in_flight_;
          ++stats_.frames_lost_link;
          ++lost_now;
          continue;
        }
        if (config_.cdma_fidelity) {
          // Fidelity mode also exercises the wire format: every hop's
          // header is serialised and re-parsed exactly as a receiver would.
          const traffic::Packet& packet = kernel_.link_slots_[c].packet;
          const auto decoded =
              ring::decode_header(ring::encode_packet_header(packet));
          if (!decoded.has_value()) ++stats_.header_decode_failures;
          const NodeId receiver = order[p + 1 == R ? 0 : p + 1];
          channel_->transmit(order[p], codes_[receiver], packet);
        }
      }
    }
  }

  stats_.busy_links.update(
      now_, static_cast<double>(in_flight_) / static_cast<double>(R));
  WRT_COUNT_N(telemetry_, kTxRealTime, tx_by_class[0]);
  WRT_COUNT_N(telemetry_, kTxAssured, tx_by_class[1]);
  WRT_COUNT_N(telemetry_, kTxBestEffort, tx_by_class[2]);
  WRT_COUNT_N(telemetry_, kTransitForwards, transit_now);
  WRT_COUNT_N(telemetry_, kDeliveries, delivered_now);
  WRT_COUNT_N(telemetry_, kFramesLost, lost_now);

  if (config_.cdma_fidelity) {
    stats_.cdma_collisions += channel_->end_slot();
  }
}

// ---------------------------------------------------------------------------
// SAT plane
// ---------------------------------------------------------------------------

void Engine::launch_sat(NodeId at) {
  sat_ = SatSignal{};
  sat_state_ = SatState::kHeld;
  sat_location_ = at;
  sat_lost_at_ = kNeverTick;
  for (Tick& arrival : kernel_.last_sat_arrival_) arrival = now_;
  journal_record(at, telemetry::JournalKind::kSatLaunch);
  sat_arrive(at);
}

void Engine::record_rotation(std::size_t position, Tick arrival) {
  // The station's previous arrival is its ring's newest entry.
  if (kernel_.arrival_count_[position] != 0) {
    const double rotation =
        ticks_to_slots_real(arrival - kernel_.newest_arrival(position));
    stats_.sat_rotation_slots.add(rotation);
    WRT_OBSERVE(telemetry_, kSatRotationSlots, rotation);
  }
  kernel_.record_arrival(position, arrival);
  WRT_COUNT(telemetry_, kSatArrivals);
  if (kernel_.ids_[position] == rotation_anchor_) ++stats_.sat_rounds;
}

void Engine::sat_arrive(NodeId at) {
  const std::int32_t position32 = station_position(at);
  if (position32 < 0 || !station_active(at)) {
    // Arrived at a station that just vanished: the signal is lost here.
    sat_state_ = SatState::kLost;
    if (sat_lost_at_ == kNeverTick) sat_lost_at_ = now_;
    return;
  }
  const auto position = static_cast<std::size_t>(position32);
  kernel_.last_sat_arrival_[position] = now_;
  record_rotation(position, now_);
  journal_record(at, telemetry::JournalKind::kSatArrive);

  if (sat_.is_rec && at == sat_.rec_origin) {
    // Section 2.5: the SAT_REC made it back — the ring is re-established;
    // substitute it with a plain SAT.
    finish_sat_rec(at);
  }

  // RAP mutex: the owner clears the flag when the SAT completes the round.
  if (sat_.rap_owner == at) sat_.rap_owner = kInvalidNode;

  // Graceful leave: the successor of a leaving station converts the SAT
  // into a SAT_REC (Section 2.4.2).  A pending leave becomes moot when a
  // concurrent recovery already cut the leaver out.
  if (leave_pending_ != kInvalidNode && !ring_.contains(leave_pending_)) {
    leave_pending_ = kInvalidNode;
  }
  if (leave_pending_ != kInvalidNode && !sat_.is_rec &&
      at == ring_.successor(leave_pending_)) {
    sat_.is_rec = true;
    sat_.graceful_leave = true;
    sat_.rec_origin = at;
    sat_.rec_failed = leave_pending_;
    rec_deadline_ = now_ + slots_to_ticks(effective_sat_timeout(at));
    leave_pending_ = kInvalidNode;
    fsm_.on_graceful_leave(sat_.rec_failed, now_);
  }

  // RAP entry (Section 2.4.1): one station per round, guarded by the mutex.
  if (!sat_.is_rec && sat_.rap_owner == kInvalidNode && !in_rap() &&
      wants_rap(at)) {
    begin_rap(at);
    return;  // SAT held for the duration of the RAP.
  }

  // SAT algorithm (Section 2.2): forward when satisfied, else hold.
  sat_location_ = at;
  if (kernel_.satisfied(position)) {
    sat_release(at);
  } else {
    sat_state_ = SatState::kHeld;
    sat_hold_started_ = now_;
    WRT_COUNT(telemetry_, kSatHolds);
  }
}

void Engine::sat_release(NodeId from) {
  if (sat_hold_started_ != kNeverTick) {
    stats_.sat_hold_slots.add(ticks_to_slots_real(now_ - sat_hold_started_));
    sat_hold_started_ = kNeverTick;
  }
  // Every caller has checked that `from` is a member.
  const std::int32_t from_position32 = station_position(from);
  assert(from_position32 >= 0);
  const auto from_position = static_cast<std::size_t>(from_position32);
  kernel_.on_sat_release(from_position);
  ++kernel_.rounds_since_rap_[from_position];

  const std::size_t R = ring_.size();
  NodeId target =
      ring_.order()[from_position + 1 == R ? 0 : from_position + 1];
  bool rerouted = false;

  if (sat_.is_rec && target == sat_.rec_failed) {
    // Heal cancellation (guard mode only): the accused station is alive
    // again and the hop to it works — the SAT_REC is a stale claim left
    // over from a transient (the flapping-link case).  Withdrawing the
    // claim ends the protection episode right here (the ERPS semantic:
    // clearing the defect stops the switch): the REC reverts to a plain
    // SAT instead of burning another loop to its origin, which would
    // overrun the REC deadline and force a needless re-formation.
    bool heal_cancelled = false;
    if (fsm_.tuning().guard_slots > 0 && !sat_.graceful_leave &&
        station_active(target)) {
      refresh_hot_caches();
      heal_cancelled = link_ok_cache_[from_position] != 0;
    }
    if (heal_cancelled) {
      fsm_.on_stale_rec_cancelled(now_);
      finish_sat_rec(from);
    } else {
      // This station plays the role of i-1: skip the failed station by
      // addressing i+1 directly with code i+1 (Section 2.5).
      const NodeId beyond = ring_.order()[(from_position + 2) % R];
      if (R <= 3 || !topology_->reachable(from, beyond)) {
        // "station i-1 could be too far to directly reach station i+1":
        // the previous ring is no longer valid.
        fsm_.on_ring_unrepairable(now_);
        return;
      }
      const NodeId failed = target;
      const std::size_t failed_position = (from_position + 1) % R;
      const Quota failed_quota = kernel_.quota_[failed_position];
      const std::uint32_t failed_k1 = kernel_.k1_assured_[failed_position];
      const bool spurious = station_active(failed) && !sat_.graceful_leave;
      erase_member(failed_position);
      drop_in_flight_frames();
      // Re-anchor the round counter: a cut-out anchor would otherwise
      // freeze stats_.sat_rounds until a full rebuild.
      if (rotation_anchor_ == failed) rotation_anchor_ = beyond;
      target = beyond;
      rerouted = true;
      util::log(util::LogLevel::kInfo,
                "WRT-Ring: cut out station " + std::to_string(failed));
      ++stats_.cut_outs;
      WRT_COUNT(telemetry_, kCutOuts);
      if (spurious) {
        ++stats_.spurious_cutouts;
        WRT_COUNT(telemetry_, kSpuriousCutOuts);
      }
      journal_record(failed, telemetry::JournalKind::kCutOut,
                     sat_.rec_origin);
      if (membership_callback_) membership_callback_(failed, false);
      notify_audit(sat_.graceful_leave ? "leave" : "cut-out");
      // A station cut out by a SAT_REC re-enters through the normal join
      // procedure when configured to.  The FSM decides when: immediately
      // (legacy default) or after the WTR/WTB hold-off lapses.
      if (config_.auto_rejoin && config_.rap_policy != RapPolicy::kDisabled) {
        const bool forced = failed == fsm_.forced_station();
        if (fsm_.on_station_cut(failed, failed_quota, from, failed_k1,
                                forced, now_) == RecoveryFsm::Admit::kNow) {
          queue_rejoin(failed, failed_quota);
        }
      }
    }
  }

  if (drop_sat_pending_) {
    drop_sat_pending_ = false;
    sat_state_ = SatState::kLost;
    sat_lost_at_ = now_;
    journal_record(from, telemetry::JournalKind::kSatLost, target);
    return;
  }
  // The un-rerouted handoff is exactly the cached ring-successor hop; a
  // cut-out reroute (rare) addresses a two-hop target the caches don't
  // cover.  Gating offer() on the purpose being armed is draw-free: a
  // disabled purpose makes zero RNG draws inside offer() anyway.
  bool target_reachable;
  if (rerouted) {
    target_reachable = topology_->reachable(from, target);
  } else {
    refresh_hot_caches();
    target_reachable = link_ok_cache_[from_position] != 0;
  }
  if (!target_reachable ||
      (link_loss_.enabled(fault::LossPurpose::kSat) &&
       (rerouted
            ? link_loss_.offer(fault::LossPurpose::kSat, from, target)
            : link_loss_.offer(hop_loss_handles(
                  fault::LossPurpose::kSat)[from_position])))) {
    sat_state_ = SatState::kLost;
    if (sat_lost_at_ == kNeverTick) sat_lost_at_ = now_;
    journal_record(from, telemetry::JournalKind::kSatLost, target);
    return;
  }
  sat_state_ = SatState::kInTransit;
  sat_location_ = target;
  sat_arrival_tick_ =
      now_ + slots_to_ticks(config_.sat_hop_latency_slots);
  ++stats_.sat_hops;
  WRT_COUNT(telemetry_, kSatHandoffs);
  journal_record(from, telemetry::JournalKind::kSatRelease, target);
}

void Engine::sat_plane_step() {
  switch (sat_state_) {
    case SatState::kInTransit:
      if (now_ >= sat_arrival_tick_) sat_arrive(sat_location_);
      break;
    case SatState::kHeld: {
      const NodeId holder = sat_location_;
      if (in_rap() && holder == rap_ingress_) break;  // held for the RAP
      const std::int32_t position = station_position(holder);
      if (position < 0 || !station_active(holder)) {
        sat_state_ = SatState::kLost;
        if (sat_lost_at_ == kNeverTick) sat_lost_at_ = now_;
        break;
      }
      if (kernel_.satisfied(static_cast<std::size_t>(position))) {
        sat_release(holder);
      }
      break;
    }
    case SatState::kLost:
    case SatState::kRebuilding:
      break;
  }
}

std::int64_t Engine::effective_sat_timeout(NodeId) const {
  if (config_.sat_timeout_slots > 0) return config_.sat_timeout_slots;
  if (sat_timeout_dirty_) {
    sat_timeout_cache_ = analysis::sat_time_bound(ring_params());
    sat_timeout_dirty_ = false;
  }
  return sat_timeout_cache_;
}

void Engine::check_sat_timers() {
  if (sat_state_ == SatState::kRebuilding) return;

  // A pending SAT_REC that fails to return within SAT_TIME invalidates the
  // ring (Section 2.5, last paragraph).
  if (sat_.is_rec && rec_deadline_ != kNeverTick && now_ > rec_deadline_) {
    fsm_.on_rec_deadline(now_);
    return;
  }
  if (sat_.is_rec) return;  // recovery already in progress

  // Timer-scan guard: every last_sat_arrival_ write is `= now_` (monotone)
  // and the timeout is constant while the guard is valid (invalidated with
  // sat_timeout_dirty_), so the earliest possible expiry only moves later.
  // Skipping the O(R) scan until the cached earliest expiry has passed is
  // therefore exact, not an approximation.
  if (sat_timer_guard_valid_ && now_ <= sat_timer_guard_) return;

  // Earliest-expiry station detects the loss.  Stations run their timers
  // independently; the first expiry wins and generates the SAT_REC (ties
  // break toward the lowest NodeId, matching the historical scan order).
  const Tick timeout_ticks =
      slots_to_ticks(effective_sat_timeout(kInvalidNode));
  const std::vector<NodeId>& order = ring_.order();
  NodeId detector = kInvalidNode;
  Tick earliest = kNeverTick;
  Tick next_expiry = kNeverTick;
  for (std::size_t p = 0; p < order.size(); ++p) {
    const NodeId node = order[p];
    // A wedged station's timer process is wedged with it — only active
    // stations can detect the loss.
    if (!station_active(node)) continue;
    const Tick expiry = kernel_.last_sat_arrival_[p] + timeout_ticks;
    if (expiry < next_expiry) next_expiry = expiry;
    if (now_ > expiry &&
        (expiry < earliest || (expiry == earliest && node < detector))) {
      earliest = expiry;
      detector = node;
    }
  }
  if (detector != kInvalidNode) {
    sat_timer_guard_valid_ = false;
    if (!fsm_.on_signal_fail(detector, ring_.predecessor(detector), now_)) {
      // Suppressed as a stale echo of the event just survived: re-arm the
      // detector's timer so the sweep does not re-accuse every slot for
      // the remainder of the guard window.
      kernel_.last_sat_arrival_[static_cast<std::size_t>(
          ring_.position_of(detector))] = now_;
    }
    return;
  }
  sat_timer_guard_ = next_expiry;
  sat_timer_guard_valid_ = next_expiry != kNeverTick;
}

void Engine::start_recovery(NodeId detector) {
  ++stats_.sat_losses_detected;
  WRT_COUNT(telemetry_, kSatLossesDetected);
  journal_record(detector, telemetry::JournalKind::kSatRecStart,
                 ring_.predecessor(detector));
  if (sat_lost_at_ != kNeverTick) {
    stats_.sat_loss_detection_slots.add(
        ticks_to_slots_real(now_ - sat_lost_at_));
    WRT_OBSERVE(telemetry_, kSatDetectSlots,
                ticks_to_slots(now_ - sat_lost_at_));
  }
  util::log(util::LogLevel::kInfo,
            "WRT-Ring: SAT loss detected by station " +
                std::to_string(detector));
  // Section 2.5: the detector generates SAT_REC naming its predecessor as
  // the (supposedly) failed station.
  sat_.is_rec = true;
  sat_.graceful_leave = false;
  sat_.rec_origin = detector;
  sat_.rec_failed = ring_.predecessor(detector);
  sat_.rap_owner = kInvalidNode;
  rec_deadline_ = now_ + slots_to_ticks(effective_sat_timeout(detector));
  kernel_.last_sat_arrival_[static_cast<std::size_t>(
      ring_.position_of(detector))] = now_;
  sat_state_ = SatState::kHeld;
  sat_location_ = detector;
  // The detector itself gets a fresh round and forwards the SAT_REC.
  sat_release(detector);
}

void Engine::finish_sat_rec(NodeId at) {
  if (sat_.graceful_leave) {
    ++stats_.leaves_completed;
    WRT_COUNT(telemetry_, kLeaves);
    journal_record(at, telemetry::JournalKind::kLeave, sat_.rec_failed);
  } else {
    ++stats_.sat_recoveries;
    WRT_COUNT(telemetry_, kSatRecoveries);
    if (sat_lost_at_ != kNeverTick) {
      const double rec = ticks_to_slots_real(now_ - sat_lost_at_);
      stats_.recovery_total_slots.add(rec);
      WRT_OBSERVE(telemetry_, kSatRecSlots, rec);
    }
  }
  journal_record(at, telemetry::JournalKind::kSatRecDone, sat_.rec_failed);
  fsm_.on_recovery_complete(now_, sat_lost_at_ != kNeverTick
                                      ? ticks_to_slots_real(now_ -
                                                            sat_lost_at_)
                                      : -1.0);
  sat_.is_rec = false;
  sat_.rec_origin = kInvalidNode;
  sat_.rec_failed = kInvalidNode;
  sat_.graceful_leave = false;
  sat_lost_at_ = kNeverTick;
  rec_deadline_ = kNeverTick;
}

void Engine::drop_in_flight_frames(TeardownCause cause) {
  // Frames abandoned by a ring teardown are a different casualty class than
  // channel losses: they indict the recovery path (or, for a join's update
  // phase, planned churn), not the link quality.
  const std::uint64_t dropped = in_flight_;
  if (dropped > 0) {
    if (cause == TeardownCause::kJoin) {
      stats_.frames_lost_churn += dropped;
      WRT_COUNT_N(telemetry_, kFramesLostChurn, dropped);
    } else {
      stats_.frames_lost_rebuild += dropped;
      WRT_COUNT_N(telemetry_, kFramesLostRebuild, dropped);
    }
    if (ring_.size() > 0) {
      journal_record(ring_.station_at(0), telemetry::JournalKind::kRebuildDrop,
                     static_cast<NodeId>(dropped));
    }
  }
  reset_data_plane();
}

void Engine::start_rebuild() {
  ++stats_.ring_rebuilds;
  WRT_COUNT(telemetry_, kRingRebuilds);
  if (ring_.size() > 0) {
    journal_record(ring_.station_at(0), telemetry::JournalKind::kRebuildStart);
  }
  util::log(util::LogLevel::kInfo, "WRT-Ring: ring re-formation started");
  drop_in_flight_frames();
  sat_state_ = SatState::kRebuilding;
  sat_.is_rec = false;
  sat_.graceful_leave = false;
  rec_deadline_ = kNeverTick;
  std::int64_t alive = 0;
  for (NodeId n = 0; n < topology_->node_count(); ++n) {
    if (topology_->alive(n)) ++alive;
  }
  rebuild_done_ = now_ + slots_to_ticks(config_.rebuild_base_slots +
                                        config_.rebuild_per_station_slots *
                                            alive);
}

void Engine::finish_rebuild() {
  // Re-formation recruits only stations that can hear the broadcast: the
  // largest connected component (restricted to this engine's member set
  // when one is configured).  Stations that wandered out of range stay
  // out and may rejoin later through the RAP.
  std::vector<NodeId> candidates = ring::largest_component(*topology_);
  if (!config_.members.empty()) {
    std::vector<NodeId> allowed = config_.members;
    std::sort(allowed.begin(), allowed.end());
    std::erase_if(candidates,
                  [&](NodeId n) { return !sorted_contains(allowed, n); });
  }
  auto ring_result = ring::build_ring_over(*topology_, std::move(candidates));
  if (!ring_result.ok()) {
    // Try again after another rebuild period; the network stays down.
    rebuild_done_ = now_ + slots_to_ticks(config_.rebuild_base_slots);
    return;
  }
  const ring::VirtualRing new_ring = std::move(ring_result.value());

  // Keep state for surviving members; create state for (re)joining ones.
  std::vector<NodeId> members = new_ring.order();
  std::sort(members.begin(), members.end());
  std::vector<NodeId> departed;
  for (const NodeId node : kernel_.ids()) {
    if (!sorted_contains(members, node)) departed.push_back(node);
  }
  std::sort(departed.begin(), departed.end());
  if (membership_callback_) {
    for (const NodeId node : departed) membership_callback_(node, false);
  }

  // Re-pack the position-indexed vectors against the new ring order, moving
  // surviving stations' state (queues, quotas, splits) into place.  The old
  // position_index_ stays valid until rebuild_position_index() below.
  SlotKernel new_kernel;
  new_kernel.configure(config_.queue_capacity);
  new_kernel.reserve(new_ring.size());
  std::vector<NodeId> joined;
  for (std::size_t p = 0; p < new_ring.size(); ++p) {
    const NodeId node = new_ring.station_at(p);
    const std::int32_t old_position = station_position(node);
    if (old_position >= 0) {
      new_kernel.adopt_station(kernel_,
                               static_cast<std::size_t>(old_position));
    } else {
      new_kernel.insert_station(p, node, config_.default_quota,
                                config_.k1_assured, now_);
      joined.push_back(node);
    }
  }
  ring_ = new_ring;
  kernel_ = std::move(new_kernel);
  rebuild_position_index();
  if (membership_callback_) {
    for (const NodeId node : joined) membership_callback_(node, true);
  }
  assign_codes();
  if (channel_) {
    // Every station re-coloured: register the new ring's codes as init()
    // does, and silence everyone else, whose codes went stale.
    for (NodeId node = 0; node < topology_->node_count(); ++node) {
      if (station_position(node) >= 0) {
        channel_->set_listen_codes(node, {codes_[node], kBroadcastCode});
      } else {
        channel_->set_listen_codes(node, {});
      }
    }
  }
  reset_data_plane();
  rotation_anchor_ = ring_.station_at(0);
  // The re-formation may have recruited stations that were waiting to
  // rejoin; their pending requests are now moot.
  for (auto it = pending_joins_.begin(); it != pending_joins_.end();) {
    it = ring_.contains(it->first) ? pending_joins_.erase(it) : ++it;
  }
  // Rotation history across a rebuild would mix two different rings.
  kernel_.clear_arrivals();
  if (sat_lost_at_ != kNeverTick) {
    stats_.recovery_total_slots.add(ticks_to_slots_real(now_ - sat_lost_at_));
  }
  fsm_.on_rebuild_complete(now_, sat_lost_at_ != kNeverTick
                                     ? ticks_to_slots_real(now_ -
                                                           sat_lost_at_)
                                     : -1.0);
  util::log(util::LogLevel::kInfo, "WRT-Ring: ring re-formed, size " +
                                       std::to_string(ring_.size()));
  journal_record(ring_.station_at(0), telemetry::JournalKind::kRebuildDone);
  launch_sat(ring_.station_at(0));
  notify_audit("rebuild");
}

// ---------------------------------------------------------------------------
// RAP & join (Section 2.4.1)
// ---------------------------------------------------------------------------

bool Engine::wants_rap(NodeId node) const {
  if (config_.rap_policy != RapPolicy::kRotating) return false;
  const std::int32_t position = station_position(node);
  if (position < 0) return false;
  const std::int64_t min_rounds =
      config_.s_round_min > 0 ? config_.s_round_min
                              : static_cast<std::int64_t>(ring_.size());
  return kernel_.rounds_since_rap_[static_cast<std::size_t>(position)] >=
         min_rounds;
}

void Engine::request_join(NodeId node, Quota quota) {
  // A ring re-formation may have recruited the requester already (it is an
  // alive, reachable station); joining twice is a no-op.
  if (ring_.contains(node)) return;
  PendingJoin join;
  join.quota = quota;
  join.requested_at = now_;
  pending_joins_[node] = std::move(join);
}

util::Status Engine::request_leave(NodeId node) {
  if (!ring_.contains(node)) {
    return util::Error::not_found("station not in ring");
  }
  if (ring_.size() <= 3) {
    return util::Error::no_ring_possible(
        "leaving would drop the ring below 3 stations");
  }
  if (leave_pending_ != kInvalidNode) {
    return util::Error::protocol_violation("another leave is in progress");
  }
  leave_pending_ = node;
  return util::Status::success();
}

void Engine::kill_station(NodeId node) {
  topology_->set_alive(node, false);
  if (sat_location_ == node &&
      (sat_state_ == SatState::kHeld || sat_state_ == SatState::kInTransit)) {
    sat_state_ = SatState::kLost;
    sat_lost_at_ = now_;
  }
}

void Engine::stall_station(NodeId node) {
  if (node >= stalled_.size()) {
    stalled_.resize(static_cast<std::size_t>(node) + 1, 0);
  }
  if (stalled_[node] != 0) return;
  stalled_[node] = 1;
  ++stall_epoch_;
  journal_record(node, telemetry::JournalKind::kStall);
  // A wedged holder takes the SAT down with it, exactly like a crash —
  // except the station is still topologically present and may come back.
  if (sat_location_ == node &&
      (sat_state_ == SatState::kHeld || sat_state_ == SatState::kInTransit)) {
    sat_state_ = SatState::kLost;
    sat_lost_at_ = now_;
  }
}

void Engine::resume_station(NodeId node) {
  if (!station_stalled(node)) return;
  stalled_[node] = 0;
  ++stall_epoch_;
  journal_record(node, telemetry::JournalKind::kResume);
  const std::int32_t position = station_position(node);
  if (position >= 0) {
    // Still a member: its SAT_TIMER slept through the wedge and would fire
    // immediately on wake; restart it instead of spuriously starting a
    // recovery against a healthy ring.
    kernel_.last_sat_arrival_[static_cast<std::size_t>(position)] = now_;
  } else if (config_.auto_rejoin && topology_->alive(node) &&
             config_.rap_policy != RapPolicy::kDisabled &&
             !fsm_.tracks_rejoin(node)) {
    // The ring cut it out while it was wedged; re-enter via Section 2.4.1.
    // When the RecoveryFsm holds the station under a WTR/WTB hold-off it
    // owns the rejoin (with the original quota), so don't race it here.
    PendingJoin rejoin;
    rejoin.quota = config_.default_quota;
    rejoin.requested_at = now_;
    pending_joins_[node] = std::move(rejoin);
  }
}

std::uint64_t Engine::frames_in_flight() const noexcept {
  return in_flight_;
}

void Engine::begin_rap(NodeId ingress) {
  ++stats_.raps_started;
  WRT_COUNT(telemetry_, kRapsStarted);
  journal_record(ingress, telemetry::JournalKind::kRapStart);
  rap_ingress_ = ingress;
  rap_ear_end_ = now_ + slots_to_ticks(config_.t_ear_slots);
  rap_end_ = now_ + slots_to_ticks(config_.t_rap_slots());
  rap_accepted_joiner_ = kInvalidNode;
  sat_.rap_owner = ingress;
  sat_state_ = SatState::kHeld;
  sat_location_ = ingress;
  kernel_.rounds_since_rap_[static_cast<std::size_t>(
      ring_.position_of(ingress))] = 0;

  // Slot 0 of the earing phase: the ingress broadcasts NEXT_FREE with its
  // own address/code and its successor's (Section 2.4.1).
  const NodeId announced_next = ring_.successor(ingress);
  // One-shot fault: the broadcast itself dies and every listener misses this
  // round.  No backoff — a joiner cannot tell a lost NEXT_FREE from an
  // ingress that simply is not RAPing yet.
  const bool next_free_dropped = take_control_drop(ControlMsg::kNextFree);
  std::vector<NodeId> repliers;
  for (auto it = pending_joins_.begin(); it != pending_joins_.end();) {
    // A pending joiner that re-entered through a ring re-formation no
    // longer needs the handshake.
    if (ring_.contains(it->first)) {
      it = pending_joins_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto& [joiner, join] : pending_joins_) {
    if (!station_active(joiner) ||
        !topology_->reachable(ingress, joiner)) {
      continue;
    }
    // A joiner backing off after a lost handshake is not listening yet.
    if (now_ < join.backoff_until) continue;
    if (next_free_dropped ||
        link_loss_.offer(fault::LossPurpose::kControl, ingress, joiner)) {
      ++stats_.control_messages_lost;
      WRT_COUNT(telemetry_, kControlMsgsLost);
      continue;
    }
    // "When the station receives another NEXT_FREE message from the same
    // station, all the other stations have already entered their RAP."
    if (join.heard.contains(ingress)) join.table_complete = true;
    join.heard[ingress] = announced_next;

    if (join.table_complete && join.chosen_ingress == kInvalidNode) {
      for (const auto& [sender, next] : join.heard) {
        if (topology_->reachable(joiner, sender) &&
            topology_->reachable(joiner, next)) {
          join.chosen_ingress = sender;
          break;
        }
      }
    }
    if (join.chosen_ingress == ingress) repliers.push_back(joiner);
  }

  // Earing phase, slot 1: eligible joiners answer on code(ingress).  Two
  // simultaneous replies spread with the same code collide (Figure 1's
  // converse) and neither is decoded; both wait for a later NEXT_FREE.
  if (repliers.size() > 1) {
    ++stats_.cdma_collisions;
    return;
  }
  if (repliers.empty()) return;

  const NodeId joiner = repliers.front();
  auto& join = pending_joins_.at(joiner);
  // Earing slot 1: the JOIN_REQ travels joiner -> ingress and can be lost.
  // The RAP then simply ends empty — the mutex is freed when the SAT
  // completes its round as usual, nothing is half-inserted — and the joiner,
  // seeing no acknowledged insertion, backs off before listening again.
  if (take_control_drop(ControlMsg::kJoinReq) ||
      link_loss_.offer(fault::LossPurpose::kControl, joiner, ingress)) {
    ++stats_.control_messages_lost;
    WRT_COUNT(telemetry_, kControlMsgsLost);
    register_join_backoff(joiner);
    return;
  }
  // Slot 2: admission check + JOIN_ACK on code(ingress).
  if (!admission_allows(join.quota)) {
    ++stats_.joins_rejected;
    WRT_COUNT(telemetry_, kJoinsRejected);
    journal_record(joiner, telemetry::JournalKind::kJoinReject, ingress);
    pending_joins_.erase(joiner);
    return;
  }
  // The JOIN_ACK travels ingress -> joiner and can die too.  The update
  // phase only ever runs for an acknowledged joiner, so a lost ACK leaves
  // the ring untouched; the joiner retries like a lost JOIN_REQ.
  if (take_control_drop(ControlMsg::kJoinAck) ||
      link_loss_.offer(fault::LossPurpose::kControl, ingress, joiner)) {
    ++stats_.control_messages_lost;
    WRT_COUNT(telemetry_, kControlMsgsLost);
    register_join_backoff(joiner);
    return;
  }
  rap_accepted_joiner_ = joiner;
}

void Engine::register_join_backoff(NodeId joiner) {
  // Lossy-join retry policy (Section 2.4.1 under loss).  A joiner whose
  // JOIN_REQ or JOIN_ACK is lost ignores NEXT_FREE broadcasts for
  // base << min(attempt-1, cap) slots, then listens again with a cleared
  // NEXT_FREE table.  After kJoinMaxAttempts lost messages the join is
  // abandoned cleanly (nothing half-inserted, RAP_mutex free).
  constexpr std::uint32_t kJoinMaxAttempts = 10;
  constexpr std::int64_t kJoinBackoffBaseSlots = 8;
  constexpr std::uint32_t kJoinBackoffExpCap = 6;
  const auto it = pending_joins_.find(joiner);
  if (it == pending_joins_.end()) return;
  PendingJoin& join = it->second;
  ++join.attempts;
  ++stats_.join_retries;
  WRT_COUNT(telemetry_, kJoinRetries);
  journal_record(joiner, telemetry::JournalKind::kControlLost, join.attempts);
  if (join.attempts >= kJoinMaxAttempts) {
    ++stats_.joins_abandoned;
    journal_record(joiner, telemetry::JournalKind::kJoinReject, rap_ingress_);
    pending_joins_.erase(it);
    return;
  }
  const std::uint32_t exponent =
      std::min(join.attempts - 1, kJoinBackoffExpCap);
  join.backoff_until =
      now_ + slots_to_ticks(kJoinBackoffBaseSlots << exponent);
  // The ring may look completely different by the time the backoff expires;
  // restart the NEXT_FREE table from scratch.
  join.heard.clear();
  join.table_complete = false;
  join.chosen_ingress = kInvalidNode;
}

void Engine::rap_step() {
  if (rap_ingress_ == kInvalidNode) return;
  if (now_ < rap_end_) return;
  finish_rap();
}

void Engine::finish_rap() {
  const NodeId ingress = rap_ingress_;
  rap_ingress_ = kInvalidNode;
  if (rap_accepted_joiner_ != kInvalidNode) {
    complete_join(rap_accepted_joiner_, ingress);
    rap_accepted_joiner_ = kInvalidNode;
  }
  // The RAP over, the ingress resumes the normal SAT algorithm.
  if (sat_state_ == SatState::kHeld && sat_location_ == ingress) {
    const std::int32_t position = station_position(ingress);
    if (position >= 0 &&
        kernel_.satisfied(static_cast<std::size_t>(position))) {
      sat_release(ingress);
    }
  }
}

void Engine::complete_join(NodeId joiner, NodeId ingress) {
  const auto join_it = pending_joins_.find(joiner);
  if (join_it == pending_joins_.end()) return;
  const PendingJoin join = join_it->second;
  pending_joins_.erase(join_it);

  // Update phase: insert between the ingress and its successor, assign a
  // fresh distance-2-safe code, and initialise MAC state.  In-flight frames
  // abandoned here are planned churn, not recovery casualties.
  //
  // Revertive recovery (RecoveryFsm): when the joiner is a station the FSM
  // held through its WTR/WTB hold-off, re-insert it after its original ring
  // predecessor with its original Diffserv split (the update phase may
  // announce any insertion point), provided that position still physically
  // works — rotation history and the Theorem 1/2 bounds then survive the
  // blip.  Otherwise fall back to the RAP ingress.
  NodeId insert_after = ingress;
  NodeId revert_anchor = kInvalidNode;
  std::uint32_t revert_k1 = 0;
  const bool revert =
      fsm_.take_revertive_anchor(joiner, &revert_anchor, &revert_k1);
  if (revert && revert_anchor != joiner && ring_.contains(revert_anchor) &&
      topology_->reachable(revert_anchor, joiner) &&
      topology_->reachable(joiner, ring_.successor(revert_anchor))) {
    insert_after = revert_anchor;
  }
  drop_in_flight_frames(TeardownCause::kJoin);
  insert_member(insert_after, joiner, join.quota);
  if (revert && insert_after == revert_anchor) {
    kernel_.set_k1_assured(
        static_cast<std::size_t>(station_position(joiner)), revert_k1);
    fsm_.record_revert_outcome(joiner, revert_anchor, membership_epoch_);
  }
  if (codes_.size() <= joiner) codes_.resize(joiner + 1, kInvalidCode);
  codes_[joiner] = cdma::smallest_free_code(*topology_, codes_, joiner);
  reset_data_plane();
  if (channel_) {
    channel_->set_listen_codes(joiner, {codes_[joiner], kBroadcastCode});
  }
  ++stats_.joins_completed;
  const double join_latency = ticks_to_slots_real(now_ - join.requested_at);
  stats_.join_latency_slots.add(join_latency);
  WRT_COUNT(telemetry_, kJoins);
  WRT_OBSERVE(telemetry_, kJoinLatencySlots, join_latency);
  journal_record(joiner, telemetry::JournalKind::kJoin, ingress);
  util::log(util::LogLevel::kInfo,
            "WRT-Ring: station " + std::to_string(joiner) +
                " joined after ingress " + std::to_string(ingress));
  if (membership_callback_) membership_callback_(joiner, true);
  notify_audit("join");
}

void Engine::queue_rejoin(NodeId node, Quota quota) {
  if (!config_.auto_rejoin || config_.rap_policy == RapPolicy::kDisabled) {
    return;
  }
  if (ring_.contains(node) || !station_active(node)) return;
  if (pending_joins_.find(node) != pending_joins_.end()) return;
  PendingJoin rejoin;
  rejoin.quota = quota;
  rejoin.requested_at = now_;
  pending_joins_[node] = std::move(rejoin);
}

util::Status Engine::force_switch(NodeId node) {
  if (!fsm_.on_forced_switch(node, now_)) {
    return util::Error::protocol_violation(
        "force_switch: a forced switch is already active");
  }
  const auto status = request_leave(node);
  if (!status.ok()) {
    fsm_.on_clear_forced(node, now_);
    return status;
  }
  return status;
}

void Engine::clear_force_switch(NodeId node) {
  fsm_.on_clear_forced(node, now_);
}

}  // namespace wrt::wrtring
