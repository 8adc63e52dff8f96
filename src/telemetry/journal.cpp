#include "telemetry/journal.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <fstream>

namespace wrt::telemetry {

namespace {
constexpr char kMagic[8] = {'W', 'R', 'T', 'J', 'R', 'N', 'L', '1'};
constexpr std::uint32_t kVersion = 1;
/// load() refuses station ids at or above this: the ring table is dense, so
/// a corrupt id must not size it.  2^20 is 256x the largest topology the
/// repo runs (4,096 stations).
constexpr NodeId kLoadStationBound = NodeId{1} << 20;
static_assert(kInvalidNode >= kLoadStationBound);
}  // namespace

const char* to_string(JournalKind kind) noexcept {
  switch (kind) {
    case JournalKind::kSatArrive: return "sat-arrive";
    case JournalKind::kSatRelease: return "sat-release";
    case JournalKind::kTransmit: return "transmit";
    case JournalKind::kDeliver: return "deliver";
    case JournalKind::kJoin: return "join";
    case JournalKind::kLeave: return "leave";
    case JournalKind::kCutOut: return "cut-out";
    case JournalKind::kSatRecStart: return "sat-rec-start";
    case JournalKind::kSatRecDone: return "sat-rec-done";
    case JournalKind::kQueueDepth: return "queue-depth";
    case JournalKind::kSnapshot: return "snapshot";
    case JournalKind::kStall: return "stall";
    case JournalKind::kResume: return "resume";
    case JournalKind::kControlLost: return "control-lost";
    case JournalKind::kRebuildDrop: return "rebuild-drop";
    case JournalKind::kSatLaunch: return "sat-launch";
    case JournalKind::kSatLost: return "sat-lost";
    case JournalKind::kRebuildStart: return "rebuild-start";
    case JournalKind::kRebuildDone: return "rebuild-done";
    case JournalKind::kRapStart: return "rap-start";
    case JournalKind::kJoinReject: return "join-reject";
    case JournalKind::kTokenLost: return "token-lost";
    case JournalKind::kClaimStart: return "claim-start";
    case JournalKind::kClaimDone: return "claim-done";
    case JournalKind::kTreeRebuild: return "tree-rebuild";
  }
  return "unknown";
}

Journal::Journal(std::size_t capacity_per_station)
    : capacity_(std::max<std::size_t>(1, capacity_per_station)) {}

Journal::StationRing& Journal::ring_for(NodeId station) {
  assert(station != kInvalidNode);
  if (station >= rings_.size()) {
    rings_.resize(static_cast<std::size_t>(station) + 1);
  }
  StationRing& ring = rings_[station];
  // A ring gets its capacity_ slots on its first record; a loaded ring holds
  // only the records the file had (from slot 0) until then.
  if (ring.slots.size() != capacity_) {
    ring.station = station;
    ring.slots.resize(capacity_);
  }
  return ring;
}

const Journal::StationRing* Journal::find_ring(
    NodeId station) const noexcept {
  if (station >= rings_.size()) return nullptr;
  const StationRing& ring = rings_[station];
  return ring.slots.empty() ? nullptr : &ring;
}

void Journal::record(NodeId station, JournalKind kind, Tick tick,
                     std::uint32_t arg, std::uint64_t value) {
  StationRing& ring = ring_for(station);
  std::size_t slot;
  if (ring.count == capacity_) {
    // Overwrite the oldest record; the wrap is counted, never silent.
    slot = ring.head;
    ring.head = ring.head + 1 == capacity_ ? 0 : ring.head + 1;
    ++ring.dropped;
  } else {
    slot = ring.head + ring.count;
    if (slot >= capacity_) slot -= capacity_;
    ++ring.count;
  }
  ring.slots[slot] = JournalEvent{tick, value, kind, 0, arg};
  ++total_;
}

std::vector<NodeId> Journal::stations() const {
  std::vector<NodeId> result;
  for (const StationRing& ring : rings_) {
    if (!ring.slots.empty() && ring.count > 0) result.push_back(ring.station);
  }
  return result;
}

std::vector<JournalEvent> Journal::events(NodeId station) const {
  std::vector<JournalEvent> result;
  const StationRing* ring = find_ring(station);
  if (ring == nullptr) return result;
  result.reserve(ring->count);
  for (std::size_t i = 0; i < ring->count; ++i) {
    std::size_t slot = ring->head + i;
    if (slot >= capacity_) slot -= capacity_;
    result.push_back(ring->slots[slot]);
  }
  return result;
}

std::vector<std::pair<NodeId, JournalEvent>> Journal::timeline() const {
  // Stations are visited in ascending id and each ring oldest first, so a
  // stable sort on the tick alone breaks ties by station, then by record.
  std::vector<std::pair<NodeId, JournalEvent>> result;
  for (const NodeId station : stations()) {
    for (const JournalEvent& event : events(station)) {
      result.emplace_back(station, event);
    }
  }
  std::stable_sort(result.begin(), result.end(),
                   [](const auto& a, const auto& b) {
                     return a.second.tick < b.second.tick;
                   });
  return result;
}

std::uint64_t Journal::dropped(NodeId station) const noexcept {
  const StationRing* ring = find_ring(station);
  return ring == nullptr ? 0 : ring->dropped;
}

std::uint64_t Journal::total_dropped() const noexcept {
  std::uint64_t total = 0;
  for (const StationRing& ring : rings_) total += ring.dropped;
  return total;
}

void Journal::clear() {
  rings_.clear();
  total_ = 0;
  meta_ = RingMeta{};
}

namespace {
template <typename T>
void write_pod(std::ofstream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool read_pod(std::ifstream& in, T& value) {
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  return static_cast<bool>(in);
}
}  // namespace

util::Status Journal::save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return util::Error::invalid_argument("journal save: cannot open " + path);
  }
  out.write(kMagic, sizeof(kMagic));
  write_pod(out, kVersion);
  write_pod(out, static_cast<std::uint64_t>(capacity_));
  write_pod(out, total_);
  // Meta block.
  write_pod(out, meta_.ring_latency_slots);
  write_pod(out, meta_.t_rap_slots);
  write_pod(out, static_cast<std::uint32_t>(meta_.quotas.size()));
  for (const auto& [node, quota] : meta_.quotas) {
    write_pod(out, node);
    write_pod(out, quota.l);
    write_pod(out, quota.k);
  }
  // Rings: only materialised ones, unwrapped to oldest-first order.
  std::uint32_t ring_count = 0;
  for (const StationRing& ring : rings_) {
    if (!ring.slots.empty()) ++ring_count;
  }
  write_pod(out, ring_count);
  for (const StationRing& ring : rings_) {
    if (ring.slots.empty()) continue;
    write_pod(out, ring.station);
    write_pod(out, ring.dropped);
    write_pod(out, static_cast<std::uint64_t>(ring.count));
    for (std::size_t i = 0; i < ring.count; ++i) {
      std::size_t slot = ring.head + i;
      if (slot >= capacity_) slot -= capacity_;
      write_pod(out, ring.slots[slot]);
    }
  }
  if (!out) {
    return util::Error::invalid_argument("journal save: write failed: " +
                                         path);
  }
  return util::Status::success();
}

util::Result<Journal> Journal::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return util::Error::not_found("journal load: cannot open " + path);
  }
  char magic[sizeof(kMagic)];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return util::Error::invalid_argument("journal load: bad magic: " + path);
  }
  std::uint32_t version = 0;
  std::uint64_t capacity = 0;
  std::uint64_t total = 0;
  if (!read_pod(in, version) || version != kVersion) {
    return util::Error::invalid_argument("journal load: unsupported version");
  }
  if (!read_pod(in, capacity) || !read_pod(in, total) || capacity == 0) {
    return util::Error::invalid_argument("journal load: corrupt header");
  }
  Journal journal(static_cast<std::size_t>(capacity));
  journal.total_ = total;
  RingMeta meta;
  std::uint32_t quota_count = 0;
  if (!read_pod(in, meta.ring_latency_slots) ||
      !read_pod(in, meta.t_rap_slots) || !read_pod(in, quota_count)) {
    return util::Error::invalid_argument("journal load: corrupt meta");
  }
  meta.quotas.reserve(quota_count);
  for (std::uint32_t i = 0; i < quota_count; ++i) {
    NodeId node = kInvalidNode;
    Quota quota;
    if (!read_pod(in, node) || !read_pod(in, quota.l) ||
        !read_pod(in, quota.k)) {
      return util::Error::invalid_argument("journal load: corrupt quotas");
    }
    meta.quotas.emplace_back(node, quota);
  }
  journal.meta_ = std::move(meta);
  std::uint32_t ring_count = 0;
  if (!read_pod(in, ring_count)) {
    return util::Error::invalid_argument("journal load: corrupt ring table");
  }
  for (std::uint32_t r = 0; r < ring_count; ++r) {
    NodeId station = kInvalidNode;
    std::uint64_t dropped = 0;
    std::uint64_t count = 0;
    // kLoadStationBound also refuses kInvalidNode.
    if (!read_pod(in, station) || !read_pod(in, dropped) ||
        !read_pod(in, count) || count > capacity ||
        station >= kLoadStationBound ||
        journal.find_ring(station) != nullptr) {
      return util::Error::invalid_argument("journal load: corrupt ring");
    }
    if (station >= journal.rings_.size()) {
      journal.rings_.resize(static_cast<std::size_t>(station) + 1);
    }
    // Records are appended as they are read, so memory follows the file's
    // size, never the capacity or count it claims.
    StationRing& ring = journal.rings_[station];
    ring.station = station;
    ring.dropped = dropped;
    for (std::uint64_t i = 0; i < count; ++i) {
      JournalEvent event;
      if (!read_pod(in, event)) {
        return util::Error::invalid_argument("journal load: truncated ring");
      }
      if (event.kind > kLastJournalKind) {
        return util::Error::invalid_argument(
            "journal load: unknown event kind");
      }
      ring.slots.push_back(event);
    }
    ring.count = ring.slots.size();
  }
  return journal;
}

}  // namespace wrt::telemetry
