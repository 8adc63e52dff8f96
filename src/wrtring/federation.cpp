#include "wrtring/federation.hpp"

#include <algorithm>
#include <cassert>
#include <thread>
#include <utility>

#include "phy/topology.hpp"
#include "traffic/traffic.hpp"
#include "util/rng.hpp"
#include "wrtring/gateway.hpp"

namespace wrt::wrtring {

namespace {

constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xFFU;
    h *= kFnvPrime;
  }
}

}  // namespace

util::Status FederationConfig::validate() const {
  if (shards == 0) return util::Error::invalid_argument("shards must be >= 1");
  if (rings == 0) return util::Error::invalid_argument("rings must be >= 1");
  if (stations_per_ring < 4) {
    return util::Error::invalid_argument("stations_per_ring must be >= 4");
  }
  if (epoch_slots < 1) {
    return util::Error::invalid_argument("epoch_slots must be >= 1");
  }
  if (crossing_flows_per_ring > 0 && rings < 2) {
    return util::Error::invalid_argument(
        "crossing flows need at least 2 rings");
  }
  if (crossing_flows_per_ring > 0 && crossing_rate_per_slot <= 0.0) {
    return util::Error::invalid_argument("crossing rate must be positive");
  }
  if (!ring.members.empty()) {
    return util::Error::invalid_argument(
        "ring template must leave members empty");
  }
  return util::Status::success();
}

FederationEngine::FederationEngine(FederationConfig config,
                                   std::uint64_t seed)
    : config_(std::move(config)), seed_(seed) {}

FederationEngine::~FederationEngine() = default;

util::Status FederationEngine::init() {
  assert(!initialized_);
  if (util::Status status = config_.validate(); !status.ok()) return status;

  const std::uint32_t K = config_.shards;
  shards_.reserve(K);
  for (std::uint32_t s = 0; s < K; ++s) {
    shards_.push_back(std::make_unique<FederationShard>(
        s, K, crossing_flows_, config_.backbone_hops,
        config_.backbone_service_rate, config_.backbone_queue_capacity,
        config_.backbone_premium_capacity));
  }
  mailboxes_.resize(static_cast<std::size_t>(K) * K);
  for (std::uint32_t s = 0; s < K; ++s) {
    std::vector<Mailbox*> inbound(K);
    std::vector<Mailbox*> outbound(K);
    for (std::uint32_t p = 0; p < K; ++p) {
      inbound[p] = &mailboxes_[static_cast<std::size_t>(p) * K + s];
      outbound[p] = &mailboxes_[static_cast<std::size_t>(s) * K + p];
    }
    shards_[s]->set_mailboxes(std::move(inbound), std::move(outbound));
  }

  if (util::Status status = build_rings(); !status.ok()) return status;
  install_crossing_flows();
  initialized_ = true;
  return util::Status::success();
}

util::Status FederationEngine::build_rings() {
  const std::uint32_t K = config_.shards;
  const std::size_t n = config_.stations_per_ring;

  for (std::uint32_t r = 0; r < config_.rings; ++r) {
    auto topology = std::make_unique<phy::Topology>(phy::ring_room(n));
    auto engine = std::make_unique<Engine>(topology.get(), config_.ring,
                                           util::mix_seed(seed_, r));
    if (util::Status status = engine->init(); !status.ok()) return status;

    // Local best-effort backlog: `saturated_per_ring` always-backlogged
    // sources, gateway exempt so crossings are not starved at G1.
    const auto span = static_cast<std::uint32_t>(n - 1);
    for (std::uint32_t i = 0; i < config_.saturated_per_ring; ++i) {
      traffic::FlowSpec spec;
      spec.id = static_cast<FlowId>(r) * config_.saturated_per_ring + i;
      spec.src = 1 + (i % span);
      spec.dst = 1 + ((i + span / 2) % span);
      if (spec.dst == spec.src) spec.dst = 1 + (spec.src % span);
      spec.cls = TrafficClass::kBestEffort;
      engine->add_saturated_source(spec, /*backlog=*/4);
    }

    shards_[r % K]->add_ring(r, std::move(topology), std::move(engine));
  }
  return util::Status::success();
}

void FederationEngine::install_crossing_flows() {
  if (config_.crossing_flows_per_ring == 0) return;
  const std::uint32_t K = config_.shards;
  const auto span = static_cast<std::uint32_t>(config_.stations_per_ring - 1);
  std::int64_t deadline = config_.crossing_deadline_slots;
  if (deadline == 0) {
    // Generous enough for the epoch-quantized hand-offs (up to two epoch
    // waits) plus ring access on both sides; see DESIGN.md §12.
    deadline = 4 * config_.epoch_slots +
               8 * static_cast<std::int64_t>(config_.stations_per_ring) + 64;
  }
  // Destination rings are drawn from a dedicated stream of the federation
  // seed; discovery order cannot perturb it (satellite fix vs. the old
  // multiring `engines_.size() * 7919` scheme).
  util::RngStream rng(seed_, /*stream=*/0xFEDEull);

  for (std::uint32_t r = 0; r < config_.rings; ++r) {
    for (std::uint32_t c = 0; c < config_.crossing_flows_per_ring; ++c) {
      CrossingFlow crossing;
      crossing.flow = kCrossingFlowBase +
                      static_cast<FlowId>(r) * config_.crossing_flows_per_ring +
                      c;
      crossing.src_ring = r;
      const std::uint64_t offset = 1 + rng.uniform_int(config_.rings - 1ULL);
      crossing.dst_ring =
          static_cast<std::uint32_t>((r + offset) % config_.rings);
      crossing.src_station = 1 + (c % span);
      crossing.dst_station = 1 + ((c + span / 2) % span);

      const std::uint32_t src_shard = crossing.src_ring % K;
      const std::uint32_t dst_shard = crossing.dst_ring % K;
      const std::size_t src_slot = crossing.src_ring / K;
      const std::size_t dst_slot = crossing.dst_ring / K;

      // Three-way reservation brokering (serial): source ring, then the
      // destination shard's backbone segment + destination ring together.
      // Any refusal demotes the stream to best-effort.
      Gateway src_gateway(&shards_[src_shard]->ring_engine(src_slot),
                          &shards_[src_shard]->backbone(), kGatewayNode);
      Gateway dst_gateway(&shards_[dst_shard]->ring_engine(dst_slot),
                          &shards_[dst_shard]->backbone(), kGatewayNode);
      auto egress = src_gateway.reserve_ring_capacity(
          crossing.src_station, crossing.flow, config_.crossing_rate_per_slot);
      if (egress.ok()) {
        auto ingress = dst_gateway.reserve_backbone_to_ring(
            crossing.flow, config_.crossing_rate_per_slot);
        if (ingress.ok()) {
          crossing.admitted = true;
        } else {
          (void)src_gateway.release(crossing.flow);
        }
      }
      if (crossing.admitted) {
        ++rt_admitted_;
      } else {
        ++rt_rejected_;
      }

      traffic::FlowSpec spec;
      spec.id = crossing.flow;
      spec.src = crossing.src_station;
      spec.dst = kGatewayNode;  // first leg terminates at the egress gateway
      spec.cls = crossing.admitted ? TrafficClass::kRealTime
                                   : TrafficClass::kBestEffort;
      spec.kind = traffic::ArrivalKind::kCbr;
      spec.period_slots = 1.0 / config_.crossing_rate_per_slot;
      spec.deadline_slots = crossing.admitted ? deadline : 0;
      shards_[src_shard]->ring_engine(src_slot).add_source(spec);

      // The shards find a crossing by flow id with one subtraction.
      assert(crossing.flow == kCrossingFlowBase + crossing_flows_.size());
      crossing_flows_.push_back(crossing);
    }
  }
}

void FederationEngine::run_epochs(std::int64_t epochs) {
  assert(initialized_);
  const auto K = static_cast<std::uint32_t>(shards_.size());
  std::uint32_t W = config_.worker_threads == 0 ? K : config_.worker_threads;
  W = std::min(W, K);
  if (W == 0) W = 1;

  for (std::int64_t e = 0; e < epochs; ++e) {
    // Static shard -> worker assignment (s mod W); the assignment has no
    // semantic weight — shards never observe each other mid-epoch.  The
    // calling thread is worker 0, so W = 1 starts no thread.
    std::vector<std::thread> workers;
    workers.reserve(W - 1);
    for (std::uint32_t w = 1; w < W; ++w) {
      workers.emplace_back([this, w, W, K] {
        for (std::uint32_t s = w; s < K; s += W) {
          shards_[s]->run_epoch(config_.epoch_slots);
        }
      });
    }
    for (std::uint32_t s = 0; s < K; s += W) {
      shards_[s]->run_epoch(config_.epoch_slots);
    }
    for (std::thread& worker : workers) worker.join();

    // Barrier passed (threads joined): flip every mailbox serially so this
    // epoch's posts become next epoch's inbound.
    for (Mailbox& mailbox : mailboxes_) mailbox.flip();

    std::int64_t epoch_max_ns = 0;
    for (const auto& shard : shards_) {
      epoch_max_ns = std::max(epoch_max_ns, shard->last_epoch_busy_ns());
    }
    critical_path_ns_ += epoch_max_ns;

    now_slots_ += config_.epoch_slots;
  }
}

const Engine& FederationEngine::ring_engine(std::uint32_t ring) const {
  return shards_.at(ring % shards_.size())->ring_engine(ring / shards_.size());
}

Engine& FederationEngine::ring_engine(std::uint32_t ring) {
  return shards_.at(ring % shards_.size())->ring_engine(ring / shards_.size());
}

std::vector<Tick> FederationEngine::rt_crossing_delay_ticks() const {
  std::vector<Tick> merged;
  for (const auto& shard : shards_) {
    const auto& samples = shard->rt_crossing_delay_ticks();
    merged.insert(merged.end(), samples.begin(), samples.end());
  }
  return merged;
}

FederationStats FederationEngine::stats() const {
  FederationStats out;
  out.ring_slots = static_cast<std::uint64_t>(config_.rings) *
                   static_cast<std::uint64_t>(now_slots_);
  out.station_slots = out.ring_slots * config_.stations_per_ring;
  out.rt_admitted = rt_admitted_;
  out.rt_rejected = rt_rejected_;
  std::int64_t busy_ns = 0;
  for (const auto& shard : shards_) {
    const ShardCounters& counters = shard->counters();
    out.crossings.crossings_posted += counters.crossings_posted;
    out.crossings.crossings_received += counters.crossings_received;
    out.crossings.crossings_injected += counters.crossings_injected;
    out.crossings.crossings_delivered += counters.crossings_delivered;
    out.crossings.crossing_drops += counters.crossing_drops;
    out.backbone_tail_drops += shard->backbone().tail_drops();
    busy_ns += shard->busy_ns_total();
    for (std::size_t slot = 0; slot < shard->ring_count(); ++slot) {
      out.total_delivered +=
          shard->ring_engine(slot).stats().sink.total_delivered();
    }
  }
  out.busy_seconds = static_cast<double>(busy_ns) * 1e-9;
  out.critical_path_seconds = static_cast<double>(critical_path_ns_) * 1e-9;
  return out;
}

std::uint64_t FederationEngine::digest() const {
  std::uint64_t h = kFnvOffset;
  fnv_mix(h, seed_);
  fnv_mix(h, config_.shards);
  fnv_mix(h, config_.rings);
  fnv_mix(h, config_.stations_per_ring);
  fnv_mix(h, static_cast<std::uint64_t>(config_.epoch_slots));
  for (std::uint32_t r = 0; r < config_.rings; ++r) {
    const EngineStats& stats = ring_engine(r).stats();
    fnv_mix(h, ring_engine(r).virtual_ring().size());
    fnv_mix(h, stats.sat_rounds);
    fnv_mix(h, stats.sat_hops);
    fnv_mix(h, stats.data_transmissions);
    fnv_mix(h, stats.transit_forwards);
    fnv_mix(h, stats.frames_lost_link);
    fnv_mix(h, stats.frames_lost_rebuild);
    fnv_mix(h, stats.frames_lost_churn);
    fnv_mix(h, stats.frames_dropped_stale);
    fnv_mix(h, stats.sink.total_delivered());
    const auto& rt = stats.sink.by_class(TrafficClass::kRealTime);
    fnv_mix(h, rt.delivered);
    fnv_mix(h, rt.deadline_misses);
    fnv_mix(h, stats.sink.by_class(TrafficClass::kBestEffort).delivered);
    fnv_mix(h, stats.sat_recoveries);
    fnv_mix(h, stats.ring_rebuilds);
  }
  for (const auto& shard : shards_) {
    const ShardCounters& counters = shard->counters();
    fnv_mix(h, counters.crossings_posted);
    fnv_mix(h, counters.crossings_received);
    fnv_mix(h, counters.crossings_injected);
    fnv_mix(h, counters.crossings_delivered);
    fnv_mix(h, counters.crossing_drops);
    fnv_mix(h, shard->backbone().tail_drops());
    fnv_mix(h, shard->in_flight());
    const auto& rt_samples = shard->rt_crossing_delay_ticks();
    fnv_mix(h, rt_samples.size());
    for (const Tick tick : rt_samples) {
      fnv_mix(h, static_cast<std::uint64_t>(tick));
    }
    const auto& be_samples = shard->be_crossing_delay_ticks();
    fnv_mix(h, be_samples.size());
    for (const Tick tick : be_samples) {
      fnv_mix(h, static_cast<std::uint64_t>(tick));
    }
  }
  fnv_mix(h, rt_admitted_);
  fnv_mix(h, rt_rejected_);
  return h;
}

}  // namespace wrt::wrtring
