// One WRT-Ring under three regimes: ring-clean, ring-faults and
// ring-partition (README.md says why each exists).
//
// Traffic is the same in all three: every station sources one real-time
// CBR flow to the opposite station at period 4N with a Theorem-3 deadline
// (access bound plus N slots of transit), and odd stations keep a
// best-effort queue of 8 backlogged.  The RT load stays inside the l = 1
// quota, so queues are bounded and a clean ring must deliver every RT
// packet on time.
#include <algorithm>
#include <array>
#include <stdexcept>

#include "analysis/bounds.hpp"
#include "bench/bench_common.hpp"
#include "check/invariants.hpp"
#include "fault/fault_plan.hpp"
#include "ring/virtual_ring.hpp"
#include "util/rng.hpp"
#include "workload.hpp"
#include "wrtring/engine.hpp"
#include "wrtring/scenario.hpp"

namespace wrt::e2e {
namespace {

constexpr std::uint64_t kTrafficStream = 0x7AFF1C;
constexpr std::uint64_t kPlanStream = 0xFA17;

// ring-faults: one self-healing fault every kFaultPeriod slots, kFaultAt
// slots into the period, each fully healed before the next starts.  A
// round of six periods is one timed block.
constexpr std::int64_t kFaultPeriod = 4096;
constexpr std::int64_t kFaultAt = 1024;
constexpr std::int64_t kFaultChunkSlots = 1024;
static_assert(kFaultRoundChunks * kFaultChunkSlots == 6 * kFaultPeriod);
constexpr std::int64_t kStallSlots = 512;
constexpr std::int64_t kRejoinAfterSlots = 2048;
constexpr std::int64_t kDegradeSlots = 1024;
constexpr std::int64_t kBlackoutSlots = 256;

// ring-partition: each episode splits off an arc of N/7 stations at
// kPartitionAt.  Once the SAT loss has been detected the engine starts a
// re-formation; its search over the larger side fails (about 0.35 s of
// wall time at N = 64) and is retried every rebuild_base_slots.  The bench
// heals the partition after kFailedSearches such failures, so every episode
// does the same work whatever the SAT's position at the split; a fixed hold
// time gave 2 to 4 failures per episode and a seed-dependent run time.
// One failure per episode keeps an episode, the timed block, short.
// kMaxHoldSlots heals an episode whose ring never starts to re-form.
constexpr std::int64_t kPartitionChunkSlots = 32;
constexpr std::int64_t kEpisodeSlots =
    kPartitionEpisodeChunks * kPartitionChunkSlots;
constexpr std::int64_t kPartitionAt = 1024;
constexpr std::int64_t kFailedSearches = 1;
constexpr std::int64_t kMaxHoldSlots = 2048;

struct Shape {
  std::size_t stations;
  std::int64_t chunk_slots;
};

Shape shape_of(RingKind kind, bool smoke) {
  switch (kind) {
    case RingKind::kClean: return {smoke ? 256U : 1024U, 1024};
    case RingKind::kFaults: return {64, kFaultChunkSlots};
    case RingKind::kPartition: return {64, kPartitionChunkSlots};
  }
  return {64, 1024};
}

wrtring::Config ring_config(RingKind kind) {
  wrtring::Config config;
  if (kind == RingKind::kFaults) {
    config.rap_policy = wrtring::RapPolicy::kRotating;
    config.auto_rejoin = true;
    config.channel.data = fault::GeParams::bursty(0.001, 8.0);
    config.channel.sat = fault::GeParams::iid(0.0005);
    config.channel.control = fault::GeParams::iid(0.01);
  }
  return config;
}

fault::FaultEvent event_at(std::int64_t slot, fault::FaultKind kind,
                           NodeId a = kInvalidNode, NodeId b = kInvalidNode) {
  fault::FaultEvent event;
  event.slot = slot;
  event.kind = kind;
  event.a = a;
  event.b = b;
  return event;
}

/// Cyclic self-healing plan: one fault every kFaultPeriod slots, healed
/// before the next, on a seeded station.  Each round of six periods runs
/// each kind once in a seeded order, so every seed gets the same mix:
/// stall/resume, leave/join, crash/join, degrade/heal, blackout/heal
/// (a link that loses 99 % of frames) and a SAT drop.  A hard link break
/// is left out: a re-formation during one can fail its Hamiltonian search
/// for the whole break (one seed spent 8.7 s in one chunk), which
/// ring-partition measures under control instead.
fault::FaultPlan cyclic_fault_plan(std::uint64_t seed, std::size_t n,
                                   std::int64_t horizon) {
  using fault::FaultKind;
  util::RngStream rng(seed, kPlanStream);
  fault::FaultPlan plan;
  std::array<int, 6> round = {0, 1, 2, 3, 4, 5};
  std::size_t next = round.size();
  for (std::int64_t t = kFaultAt; t - kFaultAt + kFaultPeriod <= horizon;
       t += kFaultPeriod) {
    if (next == round.size()) {
      rng.shuffle(round);
      next = 0;
    }
    const auto a = static_cast<NodeId>(1 + rng.uniform_int(n - 1));
    const auto b = static_cast<NodeId>((a + 1) % n);
    switch (round[next++]) {
      case 0:
        plan.add(event_at(t, FaultKind::kStall, a));
        plan.add(event_at(t + kStallSlots, FaultKind::kResume, a));
        break;
      case 1:
        plan.add(event_at(t, FaultKind::kLeave, a));
        plan.add(event_at(t + kRejoinAfterSlots, FaultKind::kJoin, a));
        break;
      case 2:
        plan.add(event_at(t, FaultKind::kCrash, a));
        plan.add(event_at(t + kRejoinAfterSlots, FaultKind::kJoin, a));
        break;
      case 3:
      case 4: {
        const bool blackout = round[next - 1] == 4;
        fault::FaultEvent degrade = event_at(t, FaultKind::kLinkDegrade, a, b);
        degrade.ge = blackout ? fault::GeParams::iid(0.99)
                              : fault::GeParams::bursty(0.2, 8.0);
        plan.add(degrade);
        plan.add(event_at(t + (blackout ? kBlackoutSlots : kDegradeSlots),
                          FaultKind::kLinkHeal, a, b));
        break;
      }
      default:
        plan.add(event_at(t, FaultKind::kDropSat));
        break;
    }
  }
  return plan;
}

/// The arc each ring-partition episode splits off.  The arcs start at
/// evenly spaced positions from a seeded offset, because the cost of a
/// failed search varies by about 10 % with the arc's position.
std::vector<std::vector<NodeId>> partition_arcs(std::uint64_t seed,
                                                std::size_t n,
                                                std::int64_t horizon) {
  util::RngStream rng(seed, kPlanStream);
  const auto episodes = static_cast<std::size_t>(horizon / kEpisodeSlots);
  const auto offset = static_cast<std::size_t>(rng.uniform_int(n));
  std::vector<std::vector<NodeId>> arcs(episodes);
  for (std::size_t e = 0; e < episodes; ++e) {
    const std::size_t first = offset + e * n / episodes;
    for (std::size_t i = 0; i < n / 7; ++i) {
      arcs[e].push_back(static_cast<NodeId>((first + i) % n));
    }
  }
  return arcs;
}

class RingWorkload final : public Workload {
 public:
  RingWorkload(RingKind kind, const RunSpec& spec, Tracer& tracer)
      : tracer_(tracer),
        kind_(kind),
        shape_(shape_of(kind, spec.smoke)),
        chunks_(spec.chunks),
        topology_(bench::ring_room(shape_.stations)),
        engine_(&topology_, ring_config(kind),
                derive_seed(spec.seed, 1)) {
    const std::size_t n = shape_.stations;
    {
      Span span(tracer_, "wrtring.init");
      if (!engine_.init().ok()) throw std::runtime_error("ring init failed");
    }
    deadline_ = analysis::access_time_bound(engine_.ring_params(), 0, 0) +
                static_cast<std::int64_t>(n);
    const std::int64_t horizon = chunks_ * shape_.chunk_slots;
    cutoff_ = horizon - 1 - deadline_;
    {
      Span span(tracer_, "traffic.attach");
      util::RngStream rng(derive_seed(spec.seed, kTrafficStream),
                          kTrafficStream);
      const auto period = static_cast<std::int64_t>(4 * n);
      for (std::size_t s = 0; s < n; ++s) {
        traffic::FlowSpec rt;
        rt.id = static_cast<FlowId>(s);
        rt.src = static_cast<NodeId>(s);
        rt.dst = static_cast<NodeId>((s + n / 2) % n);
        rt.cls = TrafficClass::kRealTime;
        rt.kind = traffic::ArrivalKind::kCbr;
        rt.period_slots = static_cast<double>(period);
        rt.deadline_slots = deadline_;
        rt.start_slot = static_cast<std::int64_t>(
            rng.uniform_int(static_cast<std::uint64_t>(period)));
        engine_.add_source(rt);
        if (cutoff_ >= rt.start_slot) {
          rt_offered_ +=
              static_cast<std::uint64_t>((cutoff_ - rt.start_slot) / period) +
              1;
        }
        if (s % 2 == 1) {
          traffic::FlowSpec be;
          be.id = static_cast<FlowId>(n + s);
          be.src = static_cast<NodeId>(s);
          be.dst = static_cast<NodeId>((s + 1 + rng.uniform_int(n - 1)) % n);
          be.cls = TrafficClass::kBestEffort;
          engine_.add_saturated_source(be, 8);
        }
      }
    }
    engine_.set_delivery_tap(
        [this](const traffic::Packet& packet, NodeId, Tick now) {
          if (packet.cls != TrafficClass::kRealTime) return;
          delays_.add(ticks_to_slots(now - packet.created));
          if (packet.created <= slots_to_ticks(cutoff_) &&
              now <= packet.deadline) {
            ++rt_on_time_;
          }
        });
    if (kind_ == RingKind::kFaults) {
      plan_ = cyclic_fault_plan(spec.seed, n, horizon);
    } else if (kind_ == RingKind::kPartition) {
      arcs_ = partition_arcs(spec.seed, n, horizon);
      // The first search runs rebuild_base_slots + rebuild_per_station_slots
      // x N after the re-formation starts, then one every rebuild_base_slots;
      // heal midway between the last failure wanted and the next search.
      // The smoke run heals before any.
      const wrtring::Config config = ring_config(kind_);
      const std::int64_t failures = spec.smoke ? 0 : kFailedSearches;
      heal_after_rebuild_ =
          config.rebuild_base_slots +
          config.rebuild_per_station_slots * static_cast<std::int64_t>(n) +
          config.rebuild_base_slots * failures - config.rebuild_base_slots / 2;
    }
    check::AuditOptions options;
    // The Theorem 1/2 oracles assume the paper's fault-free ring.
    options.theorem_oracles = kind_ == RingKind::kClean;
    auditor_ = std::make_unique<check::InvariantAuditor>(engine_, options);
  }

  RingWorkload(const RingWorkload&) = delete;
  RingWorkload& operator=(const RingWorkload&) = delete;

  [[nodiscard]] std::int64_t chunks() const override { return chunks_; }

  void run_chunk(std::int64_t chunk) override {
    const std::int64_t until = (chunk + 1) * shape_.chunk_slots;
    if (kind_ == RingKind::kClean) {
      Span span(tracer_, "wrtring.run_slots");
      engine_.run_slots(shape_.chunk_slots);
      return;
    }
    if (kind_ == RingKind::kPartition) {
      run_partition(until);
      return;
    }
    // Scenario::run restarts its action cursor on every call, so each
    // chunk gets a fresh Scenario holding only that chunk's slice.
    wrtring::Scenario scenario;
    {
      Span span(tracer_, "fault.plan_slice");
      fault::FaultPlan slice;
      while (next_event_ < plan_.events.size() &&
             plan_.events[next_event_].slot < until) {
        slice.add(plan_.events[next_event_++]);
      }
      events_applied_ += slice.events.size();
      scenario.apply_plan(slice);
    }
    Span span(tracer_, "wrtring.scenario_run");
    (void)scenario.run(engine_, topology_, until);
  }

  /// Splits, waits for the re-formation to start (stepping one slot at a
  /// time until it does), and heals, all on the topology as Scenario does.
  void run_partition(std::int64_t until) {
    Span span(tracer_, "wrtring.run_slots");
    partition_started_ = false;
    while (engine_.now_slots() < until) {
      const std::int64_t now = engine_.now_slots();
      if (!split_) {
        const std::int64_t next_split =
            next_arc_ < arcs_.size()
                ? static_cast<std::int64_t>(next_arc_) * kEpisodeSlots +
                      kPartitionAt
                : until;
        if (now < next_split) {
          engine_.run_slots(std::min(until, next_split) - now);
          continue;
        }
        topology_.set_partition({arcs_[next_arc_++]});
        split_ = true;
        heal_at_ = now + kMaxHoldSlots;
        rebuild_seen_ = false;
        partition_started_ = true;
        ++events_applied_;
      } else if (now >= heal_at_) {
        topology_.clear_partition();
        split_ = false;
        ++events_applied_;
      } else if (!rebuild_seen_) {
        engine_.run_slots(1);
        if (engine_.sat_state() == wrtring::SatState::kRebuilding) {
          rebuild_seen_ = true;
          heal_at_ = std::min(heal_at_, now + heal_after_rebuild_);
        }
      } else {
        engine_.run_slots(std::min(until, heal_at_) - now);
      }
    }
  }

  void inspect(std::int64_t, double) override {
    if (!tracer_.on() || !partition_started_) return;
    // Traced run only: the re-formation search the engine repeats while
    // the ring stays split, timed once per partition from outside.
    Span span(tracer_, "ring.build_ring_over");
    const bool ok =
        ring::build_ring_over(topology_, ring::largest_component(topology_))
            .ok();
    ++searches_;
    searches_ok_ += ok ? 1 : 0;
  }

  [[nodiscard]] std::uint64_t audit() override {
    Span span(tracer_, "check.invariants");
    std::uint64_t violations = engine_.check_invariants().ok() ? 0 : 1;
    violations += auditor_->run("chunk");
    return violations;
  }

  [[nodiscard]] bool finish(const SpanTable& spans, Outcome& outcome,
                            LayerValues& layer, std::string& why) override {
    const wrtring::EngineStats& stats = engine_.stats();
    const auto delivered = static_cast<double>(stats.sink.total_delivered());
    const std::uint64_t lost = stats.frames_lost_link +
                               stats.frames_lost_rebuild +
                               stats.frames_lost_churn +
                               stats.frames_dropped_stale;
    outcome.rt_offered = rt_offered_;
    outcome.rt_on_time = rt_on_time_;
    outcome.rt_delay = delays_;
    outcome.delivered = delivered;
    outcome.mac_slots = static_cast<double>(chunks_ * shape_.chunk_slots);
    outcome.station_slots =
        outcome.mac_slots * static_cast<double>(shape_.stations);

    layer["wrtring.ns_per_station_slot"] =
        self_ns(spans, {"wrtring.run_slots", "wrtring.scenario_run"}) /
        outcome.station_slots;
    layer["wrtring.init_ms"] = mean_us(spans, "wrtring.init") * 1e-3;
    layer["traffic.attach_ms"] = mean_us(spans, "traffic.attach") * 1e-3;
    layer["wrtring.data_tx"] = static_cast<double>(stats.data_transmissions);
    layer["wrtring.delivered"] = delivered;
    layer["wrtring.delivery_ratio"] =
        delivered / static_cast<double>(std::max<std::uint64_t>(
                        1, stats.data_transmissions));
    layer["wrtring.transit_per_delivery"] =
        static_cast<double>(stats.transit_forwards) / std::max(1.0, delivered);
    layer["wrtring.sat_rounds"] = static_cast<double>(stats.sat_rounds);
    layer["wrtring.frames_lost"] = static_cast<double>(lost);
    layer["wrtring.recoveries"] = static_cast<double>(stats.sat_recoveries);
    layer["wrtring.rebuilds"] = static_cast<double>(stats.ring_rebuilds);
    layer["wrtring.joins"] = static_cast<double>(stats.joins_completed);
    layer["wrtring.join_retries"] = static_cast<double>(stats.join_retries);
    layer["fault.events_applied"] = static_cast<double>(events_applied_);
    if (searches_ > 0) {
      layer["ring.search_ms"] = mean_us(spans, "ring.build_ring_over") * 1e-3;
      layer["ring.search_ok"] = static_cast<double>(searches_ok_) /
                                static_cast<double>(searches_);
    }

    if (const util::Status status = engine_.check_invariants();
        !status.ok()) {
      why = "engine invariant: " + status.error().message;
      return false;
    }
    if (stats.data_transmissions !=
        stats.sink.total_delivered() + lost + engine_.frames_in_flight()) {
      why = "frame accounting does not balance";
      return false;
    }
    if (kind_ == RingKind::kClean && rt_on_time_ != rt_offered_) {
      why = "Theorem-3 deadline missed on a clean ring";
      return false;
    }
    if (kind_ == RingKind::kPartition &&
        engine_.virtual_ring().size() != shape_.stations) {
      why = "ring did not re-form over every station after the last heal";
      return false;
    }
    return true;
  }

 private:
  Tracer& tracer_;
  RingKind kind_;
  Shape shape_;
  std::int64_t chunks_;
  phy::Topology topology_;
  wrtring::Engine engine_;
  std::unique_ptr<check::InvariantAuditor> auditor_;

  std::int64_t deadline_ = 0;
  std::int64_t cutoff_ = 0;  ///< last creation slot whose deadline fits
  std::uint64_t rt_offered_ = 0;
  std::uint64_t rt_on_time_ = 0;
  DelayHistogram delays_;

  fault::FaultPlan plan_;  ///< ring-faults
  std::size_t next_event_ = 0;
  std::uint64_t events_applied_ = 0;

  std::vector<std::vector<NodeId>> arcs_;  ///< ring-partition, per episode
  std::size_t next_arc_ = 0;
  bool split_ = false;
  std::int64_t heal_at_ = 0;
  std::int64_t heal_after_rebuild_ = 0;
  bool rebuild_seen_ = false;
  bool partition_started_ = false;
  std::uint64_t searches_ = 0;
  std::uint64_t searches_ok_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_ring_workload(RingKind kind,
                                             const RunSpec& spec,
                                             Tracer& tracer) {
  return std::make_unique<RingWorkload>(kind, spec, tracer);
}

}  // namespace wrt::e2e
