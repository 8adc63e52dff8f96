// Traffic generation and accounting.
//
// The paper's applications fall into two MAC types (real-time with
// deadlines, best-effort without — Section 2.2) refined into three Diffserv
// classes (Section 2.3).  Flows are described by a FlowSpec; TrafficSource
// turns a spec into a deterministic, seeded arrival process (CBR for
// audio/video-like QoS streams, Poisson and on-off bursts for data); the
// Sink records delivery delay, deadline misses, and throughput per flow and
// per class.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/stats.hpp"
#include "util/flat_map.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace wrt::traffic {

/// One MAC-layer packet (i.e. one slot payload).
struct Packet {
  FlowId flow = kInvalidFlow;
  TrafficClass cls = TrafficClass::kBestEffort;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  Tick created = 0;
  Tick deadline = kNeverTick;  ///< absolute; kNeverTick for best-effort
  std::uint64_t sequence = 0;
};

/// Growable circular FIFO of packets.  Class queues sit on the per-slot hot
/// path (empty/front checks every slot, pop/push on every transmission), so
/// they are ring buffers over one contiguous allocation: steady-state
/// enqueue/dequeue never allocates and never shifts elements, unlike a
/// std::deque's chunk churn.  Capacity doubles on overflow (amortised O(1)).
class PacketRing {
 public:
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] Packet& front() noexcept { return slots_[head_]; }
  [[nodiscard]] const Packet& front() const noexcept { return slots_[head_]; }

  void pop_front() noexcept {
    head_ = head_ + 1 == slots_.size() ? 0 : head_ + 1;
    --count_;
  }

  void push_back(Packet&& packet) {
    if (count_ == slots_.size()) grow();
    std::size_t tail = head_ + count_;
    if (tail >= slots_.size()) tail -= slots_.size();
    slots_[tail] = std::move(packet);
    ++count_;
  }
  void push_back(const Packet& packet) { push_back(Packet(packet)); }

  void clear() noexcept {
    head_ = 0;
    count_ = 0;
  }

 private:
  void grow() {
    std::vector<Packet> bigger(slots_.empty() ? 8 : slots_.size() * 2);
    for (std::size_t i = 0; i < count_; ++i) {
      std::size_t at = head_ + i;
      if (at >= slots_.size()) at -= slots_.size();
      bigger[i] = std::move(slots_[at]);
    }
    slots_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<Packet> slots_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

enum class ArrivalKind : std::uint8_t {
  kCbr,      ///< one packet every `period_slots` slots (jitter-free)
  kPoisson,  ///< exponential inter-arrivals with mean 1/`rate_per_slot`
  kOnOff,    ///< bursty: exponential ON (CBR at rate) / OFF periods
};

struct FlowSpec {
  FlowId id = kInvalidFlow;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  TrafficClass cls = TrafficClass::kBestEffort;
  ArrivalKind kind = ArrivalKind::kCbr;

  double period_slots = 10.0;     ///< kCbr: inter-arrival in slots
  double rate_per_slot = 0.1;     ///< kPoisson / kOnOff-on: packets per slot
  double on_mean_slots = 100.0;   ///< kOnOff: mean ON duration
  double off_mean_slots = 100.0;  ///< kOnOff: mean OFF duration

  /// Relative deadline in slots for real-time flows (kNever for BE).
  std::int64_t deadline_slots = 0;

  /// Slot offset of the first arrival.
  std::int64_t start_slot = 0;

  /// Mean offered load of this flow in packets/slot.
  [[nodiscard]] double offered_load() const noexcept;
};

/// Seeded arrival process for one flow.
class TrafficSource {
 public:
  TrafficSource(FlowSpec spec, std::uint64_t seed);

  /// Appends to `out` every packet arriving in (last_poll, now]; sets
  /// created/deadline from arrival time.
  void poll(Tick now, std::vector<Packet>& out);

  [[nodiscard]] const FlowSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] std::uint64_t generated() const noexcept { return sequence_; }

 private:
  [[nodiscard]] Tick draw_gap();

  FlowSpec spec_;
  util::RngStream rng_;
  Tick next_arrival_;
  std::uint64_t sequence_ = 0;
  bool on_ = true;           // kOnOff phase
  Tick phase_end_ = 0;       // kOnOff phase boundary
};

/// Always-backlogged source: keeps a station's queue non-empty.  Used for
/// saturation/worst-case experiments where the analytical bounds assume
/// every station always has traffic ready (Section 2.6).
class SaturatedSource {
 public:
  SaturatedSource(FlowSpec spec) : spec_(std::move(spec)) {}

  /// The next packet, stamped at `now`.
  [[nodiscard]] Packet next(Tick now);

  [[nodiscard]] const FlowSpec& spec() const noexcept { return spec_; }

 private:
  FlowSpec spec_;
  std::uint64_t sequence_ = 0;
};

/// Delivery accounting, per class and per flow.
///
/// Degenerate distributions are first-class: a class (or flow) with zero or
/// one delivery reports finite, well-defined statistics — mean()/min()/max()
/// of an empty series are 0.0 and quantile() of a single sample is that
/// sample — so sweep harnesses (e.g. the voice admission cliff, where a
/// class legitimately sees nothing) never have to guard their reporting.
class Sink {
 public:
  void record_delivery(const Packet& packet, Tick now);
  void record_drop(const Packet& packet);

  struct ClassStats {
    sim::SampleStats delay_slots;  ///< creation -> delivery, in slots
    std::uint64_t delivered = 0;
    std::uint64_t deadline_misses = 0;
    std::uint64_t dropped = 0;
  };

  /// Per-flow deadline-miss / drop counters.  Per-flow *delay* lives in
  /// per_flow(); this is the loss side, which per-call quality scoring
  /// (app::score_call) needs flow-resolved rather than class-aggregated.
  struct FlowCounts {
    std::uint64_t deadline_misses = 0;  ///< delivered, but past deadline
    std::uint64_t dropped = 0;
  };

  [[nodiscard]] const ClassStats& by_class(TrafficClass cls) const;
  [[nodiscard]] std::uint64_t total_delivered() const noexcept;

  /// Deadline-miss ratio among delivered+dropped real-time packets.
  [[nodiscard]] double rt_miss_ratio() const noexcept;

  /// Mean delivered throughput in packets/slot over [t0, t1].
  [[nodiscard]] double throughput(Tick t0, Tick t1) const noexcept;

  /// Per-flow delay stats (present only for flows with deliveries).
  [[nodiscard]] const util::FlatMap<FlowId, sim::SampleStats>& per_flow()
      const {
    return per_flow_delay_;
  }

  /// Per-flow miss/drop counters (present only for flows that missed a
  /// deadline or were dropped; a clean flow has no entry).
  [[nodiscard]] const util::FlatMap<FlowId, FlowCounts>& per_flow_counts()
      const {
    return per_flow_counts_;
  }

 private:
  ClassStats classes_[3];
  // Flat map: record_delivery() sits on the per-delivery hot path and a
  // simulation has few distinct flows.
  util::FlatMap<FlowId, sim::SampleStats> per_flow_delay_;
  // Touched only on the miss/drop paths, so clean runs pay nothing.
  util::FlatMap<FlowId, FlowCounts> per_flow_counts_;
};

}  // namespace wrt::traffic
