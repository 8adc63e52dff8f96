#include "wrtring/soa_kernel.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <utility>

namespace wrt::wrtring {

void SlotKernel::clear() {
  ids_.clear();
  quota_.clear();
  k1_assured_.clear();
  rt_pck_.clear();
  nrt_pck_.clear();
  assured_sent_.clear();
  drops_.clear();
  for (auto& column : queues_) column.clear();
  last_sat_arrival_.clear();
  last_sat_departure_.clear();
  rounds_since_rap_.clear();
  arrival_ticks_.clear();
  arrival_stride_ = 0;
  arrival_head_.clear();
  arrival_count_.clear();
  link_slots_.clear();
  link_tag_.clear();
  link_busy_.clear();
  rot_ = 0;
  eligible_bits_.clear();
  eligible_bits_dirty_ = true;
}

void SlotKernel::reserve(std::size_t stations) {
  ids_.reserve(stations);
  quota_.reserve(stations);
  k1_assured_.reserve(stations);
  rt_pck_.reserve(stations);
  nrt_pck_.reserve(stations);
  assured_sent_.reserve(stations);
  drops_.reserve(stations);
  for (auto& column : queues_) column.reserve(stations);
  last_sat_arrival_.reserve(stations);
  last_sat_departure_.reserve(stations);
  rounds_since_rap_.reserve(stations);
  if (stations > arrival_stride_) relayout_arrivals(stations);
  arrival_head_.reserve(stations);
  arrival_count_.reserve(stations);
}

void SlotKernel::fit_arrival_stride(std::size_t stations) {
  if (stations > arrival_stride_) {
    relayout_arrivals(std::max(stations, 2 * arrival_stride_));
  }
}

void SlotKernel::relayout_arrivals(std::size_t stride) {
  assert(stride >= size());
  // Byte-wise copies: a row's unused columns are uninitialised.
  std::vector<Tick, UninitAllocator<Tick>> ticks(kArrivalSlots * stride);
  if (size() != 0) {
    for (std::size_t h = 0; h < kArrivalSlots; ++h) {
      std::memcpy(ticks.data() + h * stride,
                  arrival_ticks_.data() + h * arrival_stride_,
                  size() * sizeof(Tick));
    }
  }
  arrival_ticks_ = std::move(ticks);
  arrival_stride_ = stride;
}

void SlotKernel::push_station(NodeId id, Quota quota, std::uint32_t k1,
                              Tick now) {
  assert(k1 <= quota.k);
  fit_arrival_stride(size() + 1);
  ids_.push_back(id);
  quota_.push_back(quota);
  k1_assured_.push_back(k1);
  rt_pck_.push_back(0);
  nrt_pck_.push_back(0);
  assured_sent_.push_back(0);
  drops_.push_back(0);
  for (auto& column : queues_) column.emplace_back();
  last_sat_arrival_.push_back(now);
  last_sat_departure_.push_back(kNeverTick);
  rounds_since_rap_.push_back(0);
  arrival_head_.push_back(0);
  arrival_count_.push_back(0);
  eligible_bits_dirty_ = true;
}

void SlotKernel::insert_station(std::size_t position, NodeId id, Quota quota,
                                std::uint32_t k1, Tick now) {
  assert(position <= size());
  assert(k1 <= quota.k);
  // Each row's later columns move up one, byte-wise: their unused slots
  // are uninitialised.  The new column is empty.
  fit_arrival_stride(size() + 1);
  if (position < size()) {
    for (std::size_t h = 0; h < kArrivalSlots; ++h) {
      Tick* row = arrival_ticks_.data() + h * arrival_stride_;
      std::memmove(row + position + 1, row + position,
                   (size() - position) * sizeof(Tick));
    }
  }
  const auto at = static_cast<std::ptrdiff_t>(position);
  ids_.insert(ids_.begin() + at, id);
  quota_.insert(quota_.begin() + at, quota);
  k1_assured_.insert(k1_assured_.begin() + at, k1);
  rt_pck_.insert(rt_pck_.begin() + at, 0);
  nrt_pck_.insert(nrt_pck_.begin() + at, 0);
  assured_sent_.insert(assured_sent_.begin() + at, 0);
  drops_.insert(drops_.begin() + at, 0);
  for (auto& column : queues_) {
    column.insert(column.begin() + at, traffic::PacketRing{});
  }
  last_sat_arrival_.insert(last_sat_arrival_.begin() + at, now);
  last_sat_departure_.insert(last_sat_departure_.begin() + at, kNeverTick);
  rounds_since_rap_.insert(rounds_since_rap_.begin() + at, 0);
  arrival_head_.insert(arrival_head_.begin() + at, 0);
  arrival_count_.insert(arrival_count_.begin() + at, 0);
  eligible_bits_dirty_ = true;
}

void SlotKernel::erase_station(std::size_t position) {
  assert(position < size());
  // Each row's later columns move down one, as in insert_station.
  if (position + 1 < size()) {
    for (std::size_t h = 0; h < kArrivalSlots; ++h) {
      Tick* row = arrival_ticks_.data() + h * arrival_stride_;
      std::memmove(row + position, row + position + 1,
                   (size() - position - 1) * sizeof(Tick));
    }
  }
  const auto at = static_cast<std::ptrdiff_t>(position);
  ids_.erase(ids_.begin() + at);
  quota_.erase(quota_.begin() + at);
  k1_assured_.erase(k1_assured_.begin() + at);
  rt_pck_.erase(rt_pck_.begin() + at);
  nrt_pck_.erase(nrt_pck_.begin() + at);
  assured_sent_.erase(assured_sent_.begin() + at);
  drops_.erase(drops_.begin() + at);
  for (auto& column : queues_) column.erase(column.begin() + at);
  last_sat_arrival_.erase(last_sat_arrival_.begin() + at);
  last_sat_departure_.erase(last_sat_departure_.begin() + at);
  rounds_since_rap_.erase(rounds_since_rap_.begin() + at);
  arrival_head_.erase(arrival_head_.begin() + at);
  arrival_count_.erase(arrival_count_.begin() + at);
  eligible_bits_dirty_ = true;
}

void SlotKernel::adopt_station(SlotKernel& other, std::size_t from) {
  assert(from < other.size());
  fit_arrival_stride(size() + 1);
  ids_.push_back(other.ids_[from]);
  quota_.push_back(other.quota_[from]);
  k1_assured_.push_back(other.k1_assured_[from]);
  rt_pck_.push_back(other.rt_pck_[from]);
  nrt_pck_.push_back(other.nrt_pck_[from]);
  assured_sent_.push_back(other.assured_sent_[from]);
  drops_.push_back(other.drops_[from]);
  for (std::size_t cls = 0; cls < 3; ++cls) {
    queues_[cls].push_back(std::move(other.queues_[cls][from]));
  }
  last_sat_arrival_.push_back(other.last_sat_arrival_[from]);
  last_sat_departure_.push_back(other.last_sat_departure_[from]);
  rounds_since_rap_.push_back(other.rounds_since_rap_[from]);
  // Copies only the valid arrivals, oldest first.
  arrival_head_.push_back(0);
  arrival_count_.push_back(0);
  const ArrivalView moved = other.arrivals(from);
  for (std::size_t i = 0; i < moved.size(); ++i) {
    record_arrival(size() - 1, moved[i]);
  }
  eligible_bits_dirty_ = true;
}

void SlotKernel::clear_arrivals() noexcept {
  std::fill(arrival_head_.begin(), arrival_head_.end(), 0);
  std::fill(arrival_count_.begin(), arrival_count_.end(), 0);
}

void SlotKernel::reset_links() {
  link_slots_.assign(size(), LinkFrame{});
  link_tag_.assign(size(), 0);
  link_busy_.assign((size() + 63) / 64, 0);
  rot_ = 0;
}

void SlotKernel::rebuild_eligible() {
  eligible_bits_.assign((size() + 63) / 64, 0);
  for (std::size_t p = 0; p < size(); ++p) {
    if (eligible_class(p).has_value()) {
      eligible_bits_[p >> 6] |= std::uint64_t{1} << (p & 63);
    }
  }
  eligible_bits_dirty_ = false;
}

std::optional<TrafficClass> SlotKernel::eligible_class(std::size_t p) const {
  const Quota quota = quota_[p];
  // Send rule 1: real-time while RT_PCK has not reached l.
  if (!queues_[0][p].empty() && rt_pck_[p] < quota.l) {
    return TrafficClass::kRealTime;
  }
  // Send rule 2: non-real-time only when the real-time buffer is empty or
  // the real-time quota is exhausted, and NRT_PCK has not reached k.
  const bool rt_gate = queues_[0][p].empty() || rt_pck_[p] == quota.l;
  if (!rt_gate || nrt_pck_[p] >= quota.k) return std::nullopt;

  // Diffserv split (Section 2.3): Assured traffic draws on the k1 share
  // with priority over best-effort; best-effort uses the remainder.  With
  // k1 = 0 the assured queue competes as plain best-effort-priority class.
  const std::uint32_t k1 = k1_assured_[p];
  const bool assured_allowed =
      !queues_[1][p].empty() && (k1 == 0 || assured_sent_[p] < k1);
  if (assured_allowed) return TrafficClass::kAssured;

  // With the split enabled, leftover k1 authorizations are a reservation for
  // Assured traffic and are not usable by best-effort.
  const std::uint32_t k2 = quota.k - k1;
  const std::uint32_t be_sent = nrt_pck_[p] - assured_sent_[p];
  if (!queues_[2][p].empty() && (k1 == 0 || be_sent < k2)) {
    return TrafficClass::kBestEffort;
  }
  return std::nullopt;
}

traffic::Packet SlotKernel::take_for_transmit(std::size_t p,
                                              TrafficClass cls) {
  traffic::PacketRing& queue = queues_[static_cast<std::size_t>(cls)][p];
  assert(!queue.empty());
  traffic::Packet packet = std::move(queue.front());
  queue.pop_front();
  if (cls == TrafficClass::kRealTime) {
    assert(rt_pck_[p] < quota_[p].l);
    ++rt_pck_[p];
  } else {
    assert(nrt_pck_[p] < quota_[p].k);
    ++nrt_pck_[p];
    if (cls == TrafficClass::kAssured) ++assured_sent_[p];
  }
  refresh_eligible(p);
  return packet;
}

bool SlotKernel::enqueue(std::size_t p, traffic::Packet&& packet) {
  traffic::PacketRing& queue =
      queues_[static_cast<std::size_t>(packet.cls)][p];
  if (queue.size() >= queue_capacity_) {
    ++drops_[p];
    return false;
  }
  queue.push_back(std::move(packet));
  refresh_eligible(p);
  return true;
}

const traffic::Packet* SlotKernel::peek(std::size_t p,
                                        TrafficClass cls) const {
  const traffic::PacketRing& queue =
      queues_[static_cast<std::size_t>(cls)][p];
  return queue.empty() ? nullptr : &queue.front();
}

void SlotKernel::clear_queues(std::size_t p) {
  for (auto& column : queues_) column[p].clear();
  refresh_eligible(p);
}

void SlotKernel::set_quota(std::size_t p, Quota quota) noexcept {
  quota_[p] = quota;
  rt_pck_[p] = std::min(rt_pck_[p], quota.l);
  nrt_pck_[p] = std::min(nrt_pck_[p], quota.k);
  assured_sent_[p] = std::min(assured_sent_[p], nrt_pck_[p]);
  k1_assured_[p] = std::min(k1_assured_[p], quota.k);
  refresh_eligible(p);
}

}  // namespace wrt::wrtring
