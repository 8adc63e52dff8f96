// Structure-of-arrays slot kernel: the dense per-position state the per-slot
// hot path sweeps over.
//
// Every per-station field — quota and Send-algorithm counters, class
// queues, SAT timers, SAT arrival ring — lives in its own dense column
// indexed by ring position, so each pass of data_plane_step() /
// check_sat_timers() streams exactly the arrays it needs and nothing else.
// The kernel is the one per-station API: the Send and SAT algorithms of
// Section 2.2 are its methods, by position; callers outside the engine
// read a member's state through Engine's by-NodeId accessors.
//
// Position discipline: entry p of every station array describes the station
// at ring position p.  The link columns hold one frame slot per ring link;
// logical link p (position p -> p+1) is physical column link_col(p), and
// the engine's rotation calendar advances every in-flight frame at once by
// rotating that map (see Engine::data_plane_step).  Membership paths (join,
// cut-out, leave, re-formation) mutate the arrays and the ring order
// together — insert/erase/adopt keep all station columns in lockstep (the
// columns are named once, in for_each_column), and reset_links() re-sizes
// the link columns to the current station count.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <optional>
#include <type_traits>
#include <vector>

#include "traffic/traffic.hpp"
#include "util/thread_safety.hpp"
#include "util/types.hpp"

namespace wrt::check {
struct EngineTestHook;  // test-only state corruption (src/check/)
}  // namespace wrt::check

namespace wrt::wrtring {

class Engine;

/// One data frame in flight on a ring link.
struct LinkFrame {
  traffic::Packet packet;
  Tick entered_ring = 0;
};

/// std::allocator for a vector that holds uninitialised elements: resize()
/// leaves new elements uninitialised (no zero-fill), and growth copies
/// elements byte-wise, which is defined for an uninitialised one where an
/// element-wise copy is not.
template <typename T>
struct UninitAllocator : std::allocator<T> {
  static_assert(std::is_trivially_copyable_v<T>);
  template <typename U>
  // wrt-lint-allow(unreferenced-api): std::allocator_traits reads rebind<U>::other by name; where std::allocator still declares rebind (before C++20) the base's would yield std::allocator<U>
  struct rebind {
    using other = UninitAllocator<U>;
  };
  UninitAllocator() = default;
  template <typename U>
  UninitAllocator(const UninitAllocator<U>& /*other*/) noexcept {}
  // wrt-lint-allow(unreferenced-api): std::allocator_traits calls construct by name; it is what leaves resize()d elements uninitialised
  void construct(T* at) noexcept { ::new (static_cast<void*>(at)) T; }
  void construct(T* at, const T& from) noexcept {
    std::memcpy(static_cast<void*>(at), &from, sizeof(T));
  }
};

/// Shard-confined: the kernel's dense arrays are the per-shard mutable
/// core; they are written by the owning engine's thread only and carry no
/// internal synchronisation (see Engine's confinement contract).
class WRT_SHARD_CONFINED SlotKernel final {
 public:
  SlotKernel() = default;

  /// Sets the shared per-class queue capacity (uniform across stations).
  void configure(std::size_t queue_capacity) noexcept {
    queue_capacity_ = queue_capacity;
  }

  [[nodiscard]] std::size_t size() const noexcept { return ids_.size(); }
  void clear();

  /// Reserves every station column for `stations` slots, and lays the SAT
  /// arrival rows at a stride of `stations` columns, so the appends of one
  /// init() or re-formation allocate each column once.
  void reserve(std::size_t stations);

  // --- membership (cold path; keeps every column in lockstep) -------------

  /// Inserts a station slot with fresh MAC counters and control state at
  /// `position` (size() appends), shifting later slots up; the SAT timer
  /// starts from `now`.
  void insert_station(std::size_t position, NodeId id, Quota quota,
                      std::uint32_t k1, Tick now);

  /// Removes the slot at `position` (its queued packets are discarded).
  void erase_station(std::size_t position);

  /// Appends slot `from` of `other`, moving its queues, counters and
  /// control state (ring re-formation re-pack).
  void adopt_station(SlotKernel& other, std::size_t from);

  /// Re-sizes the link columns to the current station count and empties
  /// them.
  void reset_links();

  // --- Send / SAT algorithms (Section 2.2/2.3), by position ---------------

  /// Send algorithm: the class this station would inject into an empty slot
  /// right now (quota counters, class priority, Diffserv k1/k2 split);
  /// nullopt when nothing may be sent.  Does not pop.
  [[nodiscard]] std::optional<TrafficClass> eligible_class(
      std::size_t p) const;

  /// Pops and returns the head packet of `cls`, updating RT_PCK/NRT_PCK.
  /// Precondition: eligible_class(p) returned `cls`.
  traffic::Packet take_for_transmit(std::size_t p, TrafficClass cls);

  /// SAT predicate: satisfied iff RT_PCK == l or the RT queue is empty.
  [[nodiscard]] bool satisfied(std::size_t p) const noexcept {
    return rt_pck_[p] == quota_[p].l || queues_[0][p].empty();
  }

  /// SAT release: clears the round's RT_PCK/NRT_PCK authorizations.
  void on_sat_release(std::size_t p) noexcept {
    rt_pck_[p] = 0;
    nrt_pck_[p] = 0;
    assured_sent_[p] = 0;
    refresh_eligible(p);
  }

  /// Enqueues into the packet's class queue; false (and a counted drop)
  /// when the queue is full.  The move commits only on acceptance.
  bool enqueue(std::size_t p, traffic::Packet&& packet);

  /// Clamps counters when the quota shrinks below what was already
  /// transmitted this round (otherwise RT_PCK == l could never fire).
  void set_quota(std::size_t p, Quota quota) noexcept;
  void set_k1_assured(std::size_t p, std::uint32_t k1) noexcept {
    k1_assured_[p] = k1;
    refresh_eligible(p);
  }

  // --- Send-eligibility bitmap (event-driven injection scan) --------------
  //
  // Bit p mirrors eligible_class(p).has_value().  Every mutator that can
  // change the Send algorithm's answer (enqueue, take_for_transmit,
  // on_sat_release, set_quota, set_k1_assured) refreshes its own bit, so
  // the engine's fast injection scan walks set bits instead of evaluating
  // every position each slot.  Membership ops invalidate the whole map;
  // rebuild_eligible() recomputes it in one pass.

  /// Recomputes bit `p` from eligible_class(p).  No-op while the map is
  /// marked dirty (a full rebuild is pending anyway).
  void refresh_eligible(std::size_t p) noexcept {
    if (eligible_bits_dirty_) return;
    const std::uint64_t mask = std::uint64_t{1} << (p & 63);
    if (eligible_class(p).has_value()) {
      eligible_bits_[p >> 6] |= mask;
    } else {
      eligible_bits_[p >> 6] &= ~mask;
    }
  }

  /// Recomputes the whole bitmap (cold; after membership changes).
  void rebuild_eligible();

  [[nodiscard]] std::size_t queue_depth(std::size_t p,
                                        TrafficClass cls) const noexcept {
    return queues_[static_cast<std::size_t>(cls)][p].size();
  }

  // --- link columns (one frame slot per link) -----------------------------
  //
  // Logical link p (position p -> p+1) lives in physical column
  // link_col(p) = (p + rot_) mod R.  Every in-flight frame advances exactly
  // one link per slot, so rotate_links_one() "moves" all of them at once by
  // decrementing rot_: a frame's physical column never changes between
  // injection and the end of its flight.  link_tag_[c] is 0 for a free
  // column, else the tag of the frame on it.  The busy-link bitmap mirrors
  // the tags: bit c of link_busy_ is set exactly when link_tag_[c] != 0.
  // occupy() and release() are the only writers of either, so the engine's
  // per-hop visit walks the set bits, O(R/64 + frames in flight), instead
  // of testing every column.

  [[nodiscard]] std::size_t link_col(std::size_t p) const noexcept {
    const std::size_t c = p + rot_;
    const std::size_t columns = link_tag_.size();
    return c >= columns ? c - columns : c;
  }
  /// Inverse of link_col: the logical link whose frame column `c` carries.
  [[nodiscard]] std::size_t link_position(std::size_t c) const noexcept {
    return c >= rot_ ? c - rot_ : c + link_tag_.size() - rot_;
  }
  /// Advances every in-flight frame one link.
  void rotate_links_one() noexcept {
    rot_ = (rot_ == 0 ? static_cast<std::uint32_t>(link_tag_.size()) : rot_) -
           1;
  }
  [[nodiscard]] std::size_t link_columns() const noexcept {
    return link_tag_.size();
  }

  /// Puts a frame on free column `c`; returns its tag, never 0 and distinct
  /// from every other tag the column carries within a ring circulation.
  std::uint32_t occupy(std::size_t c, traffic::Packet&& packet,
                       Tick entered) noexcept {
    link_slots_[c].packet = std::move(packet);
    link_slots_[c].entered_ring = entered;
    next_tag_ = next_tag_ == ~std::uint32_t{0} ? 1 : next_tag_ + 1;
    link_tag_[c] = next_tag_;
    link_busy_[c >> 6] |= std::uint64_t{1} << (c & 63);
    return next_tag_;
  }

  /// Frees column `c`: its frame ended its flight or was lost on its hop.
  void release(std::size_t c) noexcept {
    link_tag_[c] = 0;
    link_busy_[c >> 6] &= ~(std::uint64_t{1} << (c & 63));
  }

  // --- SAT arrival ring (rotation statistics, Theorem 1/2 oracles) --------
  //
  // Position p keeps its last kArrivalSlots SAT arrivals in column p of a
  // slot-major table: arrival_ticks_ is kArrivalSlots rows of
  // arrival_stride_ ticks, and ring slot h of position p is entry
  // h * arrival_stride_ + p.  arrival_head_[p] is the ring slot the next
  // arrival overwrites and arrival_count_[p] how many slots hold arrivals;
  // the other slots are never read and stay uninitialised.  Recording
  // writes one slot, so a full history evicts its oldest arrival without
  // shifting the others.  The SAT visits p, p + 1, ... and their heads
  // move together, so consecutive hops read and write adjacent ticks.
  // The stride is at least size(): reserve() sets it, and an insert or
  // adopt that outgrows it re-lays the rows at double the stride.

  static constexpr std::size_t kArrivalSlots = 64;
  static_assert((kArrivalSlots & (kArrivalSlots - 1)) == 0);

  /// Records a SAT arrival at position `p`; a full history drops its
  /// oldest arrival.
  void record_arrival(std::size_t p, Tick arrival) noexcept {
    std::uint32_t& head = arrival_head_[p];
    arrival_ticks_[head * arrival_stride_ + p] = arrival;
    head = static_cast<std::uint32_t>((head + 1) & (kArrivalSlots - 1));
    if (arrival_count_[p] < kArrivalSlots) ++arrival_count_[p];
  }
  /// One position's arrivals (at most kArrivalSlots), oldest first, read
  /// in place down its column; valid until the kernel next changes.
  class ArrivalView {
   public:
    ArrivalView(const Tick* column, std::size_t stride, std::size_t oldest,
                std::size_t count) noexcept
        : column_(column), stride_(stride), oldest_(oldest), count_(count) {}
    [[nodiscard]] std::size_t size() const noexcept { return count_; }
    /// The `i`-th oldest arrival; i < size().
    [[nodiscard]] Tick operator[](std::size_t i) const noexcept {
      return column_[((oldest_ + i) & (kArrivalSlots - 1)) * stride_];
    }

   private:
    const Tick* column_;
    std::size_t stride_;
    std::size_t oldest_;
    std::size_t count_;
  };
  [[nodiscard]] ArrivalView arrivals(std::size_t p) const noexcept {
    return {arrival_ticks_.data() + p, arrival_stride_,
            (arrival_head_[p] - arrival_count_[p]) & (kArrivalSlots - 1),
            arrival_count_[p]};
  }
  /// The newest arrival at position `p`; arrivals(p).size() > 0.
  [[nodiscard]] Tick newest_arrival(std::size_t p) const noexcept {
    const std::size_t slot = (arrival_head_[p] - 1) & (kArrivalSlots - 1);
    return arrival_ticks_[slot * arrival_stride_ + p];
  }
  /// Empties every position's arrival history.
  void clear_arrivals() noexcept;

  // --- cold-path column accessors -----------------------------------------

  [[nodiscard]] const std::vector<NodeId>& ids() const noexcept {
    return ids_;
  }
  [[nodiscard]] const std::vector<Quota>& quotas() const noexcept {
    return quota_;
  }
  /// Position p's Diffserv split, round counters (RT_PCK, NRT_PCK) and
  /// queue-full rejections.
  [[nodiscard]] std::uint32_t k1_assured(std::size_t p) const noexcept {
    return k1_assured_[p];
  }
  [[nodiscard]] std::uint32_t rt_pck(std::size_t p) const noexcept {
    return rt_pck_[p];
  }
  [[nodiscard]] std::uint32_t nrt_pck(std::size_t p) const noexcept {
    return nrt_pck_[p];
  }
  [[nodiscard]] std::uint64_t drops(std::size_t p) const noexcept {
    return drops_[p];
  }

 private:
  friend class Engine;
  friend struct ::wrt::check::EngineTestHook;

  /// The station columns, named once: calls `fn` on each column of
  /// `kernels`, the same column of every kernel in one call (one kernel
  /// for clear, reserve, insert and erase and the ring-lockstep check; two
  /// for adopt_station).  The SAT arrival ring is not listed: its rows,
  /// heads and counts are laid out by their own code beside each walk.
  template <typename Fn, typename... Kernels>
  static void for_each_column(Fn&& fn, Kernels&... kernels) {
    fn(kernels.ids_...);
    fn(kernels.quota_...);
    fn(kernels.k1_assured_...);
    fn(kernels.rt_pck_...);
    fn(kernels.nrt_pck_...);
    fn(kernels.assured_sent_...);
    fn(kernels.drops_...);
    for (std::size_t cls = 0; cls < 3; ++cls) fn(kernels.queues_[cls]...);
    fn(kernels.last_sat_arrival_...);
    fn(kernels.rounds_since_rap_...);
  }

  /// Re-lays the arrival rows when `stations` columns outgrow the stride,
  /// at the larger of `stations` and double the stride, so that growth
  /// is amortised.
  void fit_arrival_stride(std::size_t stations);
  /// Re-lays the arrival rows at `stride` (>= size()), keeping every
  /// position's column.
  void relayout_arrivals(std::size_t stride);

  std::size_t queue_capacity_ = 4096;

  // Station identity and Send-algorithm state, by ring position.
  std::vector<NodeId> ids_;
  std::vector<Quota> quota_;
  std::vector<std::uint32_t> k1_assured_;
  std::vector<std::uint32_t> rt_pck_;        ///< RT sent since last release
  std::vector<std::uint32_t> nrt_pck_;       ///< non-RT since last release
  std::vector<std::uint32_t> assured_sent_;  ///< Assured share of nrt_pck_
  std::vector<std::uint64_t> drops_;         ///< queue-full rejections
  // Class queues: queues_[class][position].
  std::vector<traffic::PacketRing> queues_[3];

  // Control-plane timers and the SAT arrival ring, by ring position.
  std::vector<Tick> last_sat_arrival_;    ///< for SAT_TIMER
  std::vector<std::int64_t> rounds_since_rap_;
  /// kArrivalSlots rows of arrival_stride_ ticks; (h, p) at h * stride + p.
  std::vector<Tick, UninitAllocator<Tick>> arrival_ticks_;
  std::size_t arrival_stride_ = 0;            ///< >= size()
  std::vector<std::uint32_t> arrival_head_;   ///< next slot to overwrite
  std::vector<std::uint32_t> arrival_count_;  ///< valid slots, <= 64

  // Data plane: logical link p -> p+1 is physical column link_col(p).  The
  // tags stay 32-bit: the injection scan stores into link_tag_ and a char
  // store would alias every kernel field it reads afterwards.
  std::vector<LinkFrame> link_slots_;
  std::vector<std::uint32_t> link_tag_;
  std::vector<std::uint64_t> link_busy_;  ///< bit c: link_tag_[c] != 0
  std::uint32_t next_tag_ = 0;
  std::uint32_t rot_ = 0;  ///< logical->physical column rotation offset

  // Send-eligibility bitmap (see refresh_eligible); rebuilt lazily after
  // membership changes.
  std::vector<std::uint64_t> eligible_bits_;
  bool eligible_bits_dirty_ = true;
};

}  // namespace wrt::wrtring
