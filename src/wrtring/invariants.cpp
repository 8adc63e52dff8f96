// The WRT-Ring structural invariant registry.
//
// Each entry of Engine::kInvariantChecks is one named law over a live
// engine; it appends one detail string per violation it finds and only
// reads state.  Two checkers walk this one table, in order:
// Engine::check_invariants() (below) stops at the first violation, and
// check::InvariantAuditor::run tallies every violation of every check and
// then runs its stateful Theorem 1/2 oracles (src/check/invariants.cpp).
//
//   ring-lockstep       every station column (SlotKernel's one list),
//                       the SAT arrival ring and the link columns sized
//                       like the virtual ring, the ids ordered like it;
//                       the arrival rows 64 x a stride of at least R; no
//                       arrival head or count past the ring's 64 slots
//   position-bijection  NodeId -> position index is a bijection onto the
//                       current members
//   single-sat          exactly one coherent SAT (held at a member, or in
//                       transit toward one with a future arrival tick)
//   rap-mutex           RAP exclusivity: a live RAP has a member ingress
//                       holding the SAT; the round-robin owner flag never
//                       dangles on a departed station
//   quota-conservation  per-round RT_PCK/NRT_PCK counters within (l, k),
//                       Diffserv split within k, deliveries <= transmissions
//   link-pipeline       a planned rotation calendar has a power-of-two
//                       bucket count of at least R + 3; every occupied link
//                       column has exactly one pending terminal event in
//                       it, and the engine's in-flight count equals the
//                       number of occupied columns
//   frame-conservation  every transmitted frame is delivered, lost on a
//                       link, lost to a rebuild or to churn, purged as
//                       stale, or still in flight
//   guard_no_stale_rec  RecoveryFsm never starts a recovery inside its own
//                       guard window (stale SAT_REC suppression holds)
//   wtr_no_flap_readmit no station re-admitted before its WTR/WTB hold-off
//                       was continuously satisfied
//   revertive_position_restored
//                       a revertive re-insertion put the station back after
//                       its recorded anchor (checked while the membership
//                       epoch it was recorded under is still current)
#include <bit>
#include <string>
#include <vector>

#include "wrtring/engine.hpp"

namespace wrt::wrtring {
namespace {

using Details = std::vector<std::string>;

std::string node_str(NodeId node) { return std::to_string(node); }

}  // namespace

const std::array<Engine::InvariantCheck, 10> Engine::kInvariantChecks{{
    {"ring-lockstep",
     [](const Engine& e, Details& out) {
       const std::size_t R = e.ring_.size();
       std::size_t column = 0;
       bool misfit = false;
       SlotKernel::for_each_column(
           [&](const auto& entries) {
             if (entries.size() != R) {
               out.push_back("station column " + std::to_string(column) +
                             " out of lockstep with ring: ring=" +
                             std::to_string(R) + " entries=" +
                             std::to_string(entries.size()));
               misfit = true;
             }
             ++column;
           },
           e.kernel_);
       if (misfit) return;  // positional comparison below would be meaningless
       if (e.kernel_.link_columns() != R) {
         out.push_back("link columns out of lockstep with ring: ring=" +
                       std::to_string(R) + " links=" +
                       std::to_string(e.kernel_.link_columns()));
       }
       const auto& heads = e.kernel_.arrival_head_;
       const auto& counts = e.kernel_.arrival_count_;
       constexpr std::size_t kSlots = SlotKernel::kArrivalSlots;
       const std::size_t stride = e.kernel_.arrival_stride_;
       if (heads.size() != R || counts.size() != R || stride < R ||
           e.kernel_.arrival_ticks_.size() != kSlots * stride) {
         out.push_back("SAT arrival ring out of lockstep with ring: ring=" +
                       std::to_string(R) + " heads=" +
                       std::to_string(heads.size()) + " counts=" +
                       std::to_string(counts.size()) + " stride=" +
                       std::to_string(stride) + " slots=" +
                       std::to_string(e.kernel_.arrival_ticks_.size()));
       } else {
         for (std::size_t p = 0; p < R; ++p) {
           if (heads[p] >= kSlots || counts[p] > kSlots) {
             out.push_back("SAT arrival ring at position " +
                           std::to_string(p) + " has head " +
                           std::to_string(heads[p]) + " and count " +
                           std::to_string(counts[p]) + " in " +
                           std::to_string(kSlots) + " slots");
           }
         }
       }
       for (std::size_t p = 0; p < R; ++p) {
         const NodeId expected = e.ring_.station_at(p);
         if (e.kernel_.ids_[p] != expected) {
           out.push_back("station column misaligned at position " +
                         std::to_string(p) + ": holds " +
                         node_str(e.kernel_.ids_[p]) + ", ring says " +
                         node_str(expected));
         }
       }
     }},
    {"position-bijection",
     [](const Engine& e, Details& out) {
       const std::size_t R = e.ring_.size();
       std::size_t mapped = 0;
       for (std::size_t n = 0; n < e.position_index_.size(); ++n) {
         const std::int32_t pos = e.position_index_[n];
         if (pos < 0) continue;
         ++mapped;
         const auto node = static_cast<NodeId>(n);
         if (static_cast<std::size_t>(pos) >= R ||
             e.ring_.station_at(static_cast<std::size_t>(pos)) != node) {
           out.push_back("position index maps node " + node_str(node) +
                         " to position " + std::to_string(pos) +
                         ", which the ring does not corroborate");
         }
       }
       if (mapped != R) {
         out.push_back("position index covers " + std::to_string(mapped) +
                       " nodes but the ring has " + std::to_string(R));
       }
       for (std::size_t p = 0; p < R; ++p) {
         const NodeId node = e.ring_.station_at(p);
         if (e.station_position(node) != static_cast<std::int32_t>(p)) {
           out.push_back("member " + node_str(node) + " at ring position " +
                         std::to_string(p) + " resolves to position " +
                         std::to_string(e.station_position(node)));
         }
       }
     }},
    {"single-sat",
     [](const Engine& e, Details& out) {
       switch (e.sat_state_) {
         case SatState::kHeld:
           if (!e.ring_.contains(e.sat_location_)) {
             out.push_back("SAT held at " + node_str(e.sat_location_) +
                           ", which is not a ring member");
           }
           break;
         case SatState::kInTransit: {
           if (!e.ring_.contains(e.sat_location_)) {
             out.push_back("SAT in transit toward " +
                           node_str(e.sat_location_) +
                           ", which is not a ring member");
           }
           if (e.sat_arrival_tick_ == kNeverTick) {
             out.push_back("SAT in transit with no arrival tick");
           } else if (e.sat_arrival_tick_ < e.now_) {
             out.push_back("SAT arrival tick " +
                           std::to_string(e.sat_arrival_tick_) +
                           " is in the past (now=" + std::to_string(e.now_) +
                           ")");
           } else if (e.sat_arrival_tick_ - e.now_ >
                      slots_to_ticks(e.config_.sat_hop_latency_slots)) {
             out.push_back("SAT arrival tick " +
                           std::to_string(e.sat_arrival_tick_) +
                           " is further out than one hop latency");
           }
           break;
         }
         case SatState::kLost:
           if (e.sat_lost_at_ == kNeverTick) {
             out.push_back("SAT lost without a recorded loss instant");
           }
           break;
         case SatState::kRebuilding:
           break;
       }
     }},
    {"rap-mutex",
     [](const Engine& e, Details& out) {
       // The owner flag is cleared when the SAT completes its round back at
       // the owner; a departed owner must not leave it dangling (that would
       // block every future RAP).
       if (e.sat_.rap_owner != kInvalidNode &&
           !e.ring_.contains(e.sat_.rap_owner)) {
         out.push_back("RAP owner flag names " + node_str(e.sat_.rap_owner) +
                       ", which is not a ring member");
       }
       if (!e.in_rap()) return;
       if (e.rap_ingress_ == kInvalidNode) return;  // RAP already wound down
       if (!e.ring_.contains(e.rap_ingress_)) {
         out.push_back("RAP in progress with non-member ingress " +
                       node_str(e.rap_ingress_));
       }
       // Exclusivity: while the original RAP's SAT is still the live signal
       // (owner flag intact, not a SAT_REC), it must be held at the
       // ingress — a plain SAT anywhere else during the RAP breaks the
       // mutex.  A recovery relaunched mid-RAP resets the owner flag, so it
       // is excluded here.
       if (e.sat_state_ == SatState::kHeld && !e.sat_.is_rec &&
           e.sat_.rap_owner == e.rap_ingress_ &&
           e.sat_location_ != e.rap_ingress_) {
         out.push_back("RAP mutex broken: SAT held at " +
                       node_str(e.sat_location_) + " while ingress " +
                       node_str(e.rap_ingress_) + " owns the RAP");
       }
     }},
    {"quota-conservation",
     [](const Engine& e, Details& out) {
       for (std::size_t p = 0; p < e.kernel_.ids_.size(); ++p) {
         const NodeId node = e.kernel_.ids_[p];
         const Quota quota = e.kernel_.quota_[p];
         if (e.kernel_.rt_pck_[p] > quota.l) {
           out.push_back("station " + node_str(node) + " RT_PCK=" +
                         std::to_string(e.kernel_.rt_pck_[p]) +
                         " exceeds l=" + std::to_string(quota.l));
         }
         if (e.kernel_.nrt_pck_[p] > quota.k) {
           out.push_back("station " + node_str(node) + " NRT_PCK=" +
                         std::to_string(e.kernel_.nrt_pck_[p]) +
                         " exceeds k=" + std::to_string(quota.k));
         }
         if (e.kernel_.k1_assured_[p] > quota.k) {
           out.push_back("station " + node_str(node) + " k1=" +
                         std::to_string(e.kernel_.k1_assured_[p]) +
                         " exceeds k=" + std::to_string(quota.k));
         }
       }
       if (e.stats_.sink.total_delivered() > e.stats_.data_transmissions) {
         out.push_back("more deliveries (" +
                       std::to_string(e.stats_.sink.total_delivered()) +
                       ") than transmissions (" +
                       std::to_string(e.stats_.data_transmissions) + ")");
       }
     }},
    {"link-pipeline",
     [](const Engine& e, Details& out) {
       // A flight ends up to R + 2 slots ahead, and a slot indexes the
       // calendar by mask: fewer than R + 3 buckets, or a count that is not
       // a power of two, would file two flight ends in one bucket.  A stale
       // calendar is re-planned before the next data-plane step.
       const std::size_t R = e.ring_.size();
       const std::size_t buckets = e.calendar_.size();
       if (!e.calendar_stale_ &&
           (buckets < R + 3 || !std::has_single_bit(buckets) ||
            e.calendar_mask_ != buckets - 1)) {
         out.push_back("rotation calendar has " + std::to_string(buckets) +
                       " buckets (mask " + std::to_string(e.calendar_mask_) +
                       ") for a ring of " + std::to_string(R) +
                       ": needs a power of two of at least " +
                       std::to_string(R + 3));
       }
       // The rotation calendar ends every flight at exactly one scheduled
       // arrival.  Entries left behind by frames lost to a channel draw
       // carry a tag their column no longer holds and do not count.
       std::vector<std::uint32_t> pending(e.kernel_.link_columns(), 0);
       for (const auto& bucket : e.calendar_) {
         for (const auto& event : bucket) {
           if (event.column < pending.size() &&
               e.kernel_.link_tag_[event.column] == event.tag) {
             ++pending[event.column];
           }
         }
       }
       std::uint64_t occupied = 0;
       for (std::size_t p = 0; p < e.kernel_.link_columns(); ++p) {
         const std::size_t c = e.kernel_.link_col(p);
         if (e.kernel_.link_tag_[c] == 0) continue;
         ++occupied;
         if (pending[c] != 1) {
           out.push_back("link " + std::to_string(p) +
                         " carries a frame with " +
                         std::to_string(pending[c]) +
                         " pending terminal events (expected 1)");
         }
       }
       if (occupied != e.in_flight_) {
         out.push_back("engine counts " + std::to_string(e.in_flight_) +
                       " frames in flight but " + std::to_string(occupied) +
                       " link columns are occupied");
       }
       // The busy-link bitmap the per-hop visit walks mirrors the tags.
       const std::vector<std::uint64_t>& busy = e.kernel_.link_busy_;
       const std::size_t columns = e.kernel_.link_columns();
       if (busy.size() != (columns + 63) / 64) {
         out.push_back("busy-link bitmap has " + std::to_string(busy.size()) +
                       " words for " + std::to_string(columns) +
                       " link columns");
         return;
       }
       for (std::size_t c = 0; c < busy.size() * 64; ++c) {
         const bool bit = ((busy[c >> 6] >> (c & 63)) & 1) != 0;
         const bool tagged = c < columns && e.kernel_.link_tag_[c] != 0;
         if (bit == tagged) continue;
         const char* column = c >= columns ? " is past the last column"
                              : tagged     ? " carries a frame"
                                           : " is free";
         out.push_back("busy-link bit " + std::to_string(c) +
                       (bit ? " is set" : " is clear") + " but column " +
                       std::to_string(c) + column);
       }
     }},
    {"frame-conservation",
     [](const Engine& e, Details& out) {
       // A leak here means some fault path dropped frames without
       // accounting for them.
       const EngineStats& s = e.stats_;
       const std::uint64_t accounted =
           s.sink.total_delivered() + s.frames_lost_link +
           s.frames_lost_rebuild + s.frames_lost_churn +
           s.frames_dropped_stale + e.frames_in_flight();
       if (accounted != s.data_transmissions) {
         out.push_back("frame accounting leak: " +
                       std::to_string(s.data_transmissions) +
                       " transmitted vs " + std::to_string(accounted) +
                       " accounted");
       }
     }},
    {"guard_no_stale_rec",
     [](const Engine& e, Details& out) {
       // The RecoveryFsm latches acceptance of a signal-fail request while
       // its own guard window was open — by construction that must never
       // happen (guard-active requests map to kSuppress in the transition
       // table).
       if (e.fsm_.accepted_sf_during_guard_) {
         out.push_back(
             "RecoveryFsm started a recovery inside its own guard window "
             "(stale SAT_REC suppression violated)");
       }
     }},
    {"wtr_no_flap_readmit",
     [](const Engine& e, Details& out) {
       // admit() records the worst (continuous-healthy - required hold)
       // slack; a negative slack means a flapping station was re-admitted
       // before its WTR/WTB hold-off was continuously satisfied.
       const std::int64_t slack = e.fsm_.min_readmit_slack_slots_;
       if (slack != RecoveryFsm::kNoAdmission && slack < 0) {
         out.push_back("a rejoin candidate was admitted " +
                       std::to_string(-slack) +
                       " slots before its WTR/WTB hold-off lapsed");
       }
     }},
    {"revertive_position_restored",
     [](const Engine& e, Details& out) {
       // Validated only while the membership epoch the insertion was
       // recorded under is still current — any later churn legitimately
       // moves stations.
       const RecoveryFsm::RevertOutcome& revert = e.fsm_.last_revert_;
       if (!e.fsm_.tuning_.revertive) return;
       if (revert.node == kInvalidNode) return;
       if (revert.epoch != e.membership_epoch_) return;
       if (!e.ring_.contains(revert.node) ||
           !e.ring_.contains(revert.anchor) ||
           e.ring_.predecessor(revert.node) != revert.anchor) {
         out.push_back("revertive re-insertion of station " +
                       node_str(revert.node) +
                       " did not restore it after anchor " +
                       node_str(revert.anchor));
       }
     }},
}};

util::Status Engine::check_invariants() const {
  Details details;
  for (const InvariantCheck& check : kInvariantChecks) {
    check.fn(*this, details);
    if (!details.empty()) {
      return util::Error::protocol_violation(std::string(check.name) + ": " +
                                             details.front());
    }
  }
  return util::Status::success();
}

}  // namespace wrt::wrtring
