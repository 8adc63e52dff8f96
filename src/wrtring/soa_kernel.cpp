#include "wrtring/soa_kernel.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <utility>

namespace wrt::wrtring {

void SlotKernel::clear() {
  for_each_column([](auto& column) { column.clear(); }, *this);
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
  for_each_column([stations](auto& column) { column.reserve(stations); },
                  *this);
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
  // emplace, not insert(it, {}): a braced {} picks the initializer_list
  // overload and inserts nothing.
  for_each_column([at](auto& column) { column.emplace(column.begin() + at); },
                  *this);
  ids_[position] = id;
  quota_[position] = quota;
  k1_assured_[position] = k1;
  last_sat_arrival_[position] = now;
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
  for_each_column([at](auto& column) { column.erase(column.begin() + at); },
                  *this);
  arrival_head_.erase(arrival_head_.begin() + at);
  arrival_count_.erase(arrival_count_.begin() + at);
  eligible_bits_dirty_ = true;
}

void SlotKernel::adopt_station(SlotKernel& other, std::size_t from) {
  assert(from < other.size());
  fit_arrival_stride(size() + 1);
  for_each_column(
      [from](auto& mine, auto& theirs) {
        mine.push_back(std::move(theirs[from]));
      },
      *this, other);
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

void SlotKernel::set_quota(std::size_t p, Quota quota) noexcept {
  quota_[p] = quota;
  rt_pck_[p] = std::min(rt_pck_[p], quota.l);
  nrt_pck_[p] = std::min(nrt_pck_[p], quota.k);
  assured_sent_[p] = std::min(assured_sent_[p], nrt_pck_[p]);
  k1_assured_[p] = std::min(k1_assured_[p], quota.k);
  refresh_eligible(p);
}

}  // namespace wrt::wrtring
