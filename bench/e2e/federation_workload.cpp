// federation: 64 rings x 64 stations on K = 8 shards in epochs of 64
// slots; one chunk is one epoch (shard compute, mailbox flip, backbone).
// Each ring carries two saturated best-effort sources and one crossing
// stream to a seeded remote ring, brokered RT or demoted to best-effort at
// init.
//
// The measured passes step the shards on one worker.  With W = 4 workers
// on a 4-CPU virtual machine the epoch rate spread by 25-37 % between
// runs (up to 1.8x), at every fabric size and epoch length tried, against
// 3-5 % for one worker; 256 or 1,024 rings on one worker spread 15-25 %
// as they stream 100-400 MB.  The traced run adds
// federation.speedup, the wall-time ratio of W = 1 to W = min(K, CPUs) on
// this fabric, and every run checks the digest across the two.
#include <sched.h>

#include <algorithm>
#include <stdexcept>

#include "workload.hpp"
#include "wrtring/federation.hpp"

namespace wrt::e2e {
namespace {

constexpr std::uint32_t kShards = 8;
constexpr std::int64_t kEpochSlots = 64;
constexpr std::int64_t kSpeedupEpochs = 300;

/// CPUs this process may run on (what nproc reports), at least 1.
std::uint32_t available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return static_cast<std::uint32_t>(std::max(1, CPU_COUNT(&set)));
}

wrtring::FederationConfig federation_config(std::uint32_t rings,
                                            std::uint32_t stations,
                                            std::uint32_t workers) {
  wrtring::FederationConfig config;
  config.shards = kShards;
  config.worker_threads = workers;
  config.epoch_slots = kEpochSlots;
  config.rings = rings;
  config.stations_per_ring = stations;
  config.saturated_per_ring = 2;
  config.crossing_flows_per_ring = 1;
  config.crossing_rate_per_slot = 0.02;
  config.backbone_service_rate = 8.0;
  config.backbone_premium_capacity = 2.0;
  return config;
}

/// The deadline FederationEngine derives for admitted crossings.
std::int64_t crossing_deadline(const wrtring::FederationConfig& config) {
  return 4 * config.epoch_slots +
         8 * static_cast<std::int64_t>(config.stations_per_ring) + 64;
}

class FederationWorkload final : public Workload {
 public:
  FederationWorkload(const RunSpec& spec, Tracer& tracer)
      : tracer_(tracer),
        seed_(spec.seed),
        chunks_(spec.chunks),
        parallel_workers_(std::min(kShards, available_cpus())),
        config_(federation_config(spec.smoke ? 32 : 64,
                                  spec.smoke ? 16 : 64, 1)),
        federation_(config_, seed_) {
    Span span(tracer_, "federation.init");
    if (!federation_.init().ok()) {
      throw std::runtime_error("federation init failed");
    }
  }

  [[nodiscard]] std::int64_t chunks() const override { return chunks_; }

  void run_chunk(std::int64_t) override {
    Span span(tracer_, "federation.run_epochs");
    federation_.run_epochs(1);
  }

  void inspect(std::int64_t, double chunk_ms) override {
    std::int64_t busy = 0;
    std::int64_t slowest = 0;
    std::size_t in_flight = 0;
    std::size_t backbone = 0;
    for (std::uint32_t s = 0; s < federation_.shard_count(); ++s) {
      const wrtring::FederationShard& shard = federation_.shard(s);
      busy += shard.last_epoch_busy_ns();
      slowest = std::max(slowest, shard.last_epoch_busy_ns());
      in_flight += shard.in_flight();
      backbone += shard.backbone().queue_depth();
    }
    const double mean_busy = static_cast<double>(busy) / kShards;
    busy_ms_ += static_cast<double>(busy) * 1e-6;
    critical_ms_ += static_cast<double>(slowest) * 1e-6;
    imbalance_ += mean_busy > 0.0 ? static_cast<double>(slowest) / mean_busy
                                  : 1.0;
    wall_ms_ += chunk_ms;
    in_flight_max_ = std::max(in_flight_max_, in_flight);
    backbone_max_ = std::max(backbone_max_, backbone);
  }

  [[nodiscard]] std::uint64_t audit() override {
    Span span(tracer_, "check.invariants");
    std::uint64_t violations = 0;
    for (std::uint32_t r = 0; r < federation_.ring_count(); ++r) {
      if (!federation_.ring_engine(r).check_invariants().ok()) ++violations;
    }
    return violations;
  }

  [[nodiscard]] bool finish(const SpanTable& spans, Outcome& outcome,
                            LayerValues& layer, std::string& why) override {
    const wrtring::FederationStats stats = federation_.stats();
    const std::int64_t deadline_ticks =
        slots_to_ticks(crossing_deadline(config_));
    std::uint64_t on_time = 0;
    for (const Tick delay : federation_.rt_crossing_delay_ticks()) {
      outcome.rt_delay.add(ticks_to_slots(delay));
      on_time += delay <= deadline_ticks ? 1 : 0;
    }
    // Settled RT crossings: delivered or dropped (still in flight at the
    // end counts as neither).
    outcome.rt_offered = outcome.rt_delay.total() + stats.crossings.crossing_drops;
    outcome.rt_on_time = on_time;
    outcome.delivered = static_cast<double>(stats.total_delivered);
    outcome.mac_slots = static_cast<double>(stats.ring_slots);
    outcome.station_slots = static_cast<double>(stats.station_slots);

    const double epochs = std::max<double>(1.0, static_cast<double>(chunks_));
    const double init_us = mean_us(spans, "federation.init");
    // The rings step inside the shards, so the WRT-Ring cost seen from
    // outside is the shards' thread-CPU busy time, and a ring's set-up is
    // its share of the federation's.  shard_frac is the share of an
    // epoch's wall time spent inside shards; the rest is the serial
    // mailbox flip and backbone.
    layer["wrtring.ns_per_station_slot"] =
        busy_ms_ * 1e6 / std::max(1.0, outcome.station_slots);
    layer["wrtring.init_ms"] = init_us * 1e-3 / config_.rings;
    layer["federation.init_s"] = init_us * 1e-6;
    layer["federation.shard_busy_ms"] = busy_ms_ / epochs;
    layer["federation.critical_ms"] = critical_ms_ / epochs;
    layer["federation.imbalance"] = imbalance_ / epochs;
    layer["federation.shard_frac"] = busy_ms_ / std::max(1e-9, wall_ms_);
    if (tracer_.on()) layer["federation.speedup"] = speedup();
    layer["federation.crossings_posted"] =
        static_cast<double>(stats.crossings.crossings_posted);
    layer["federation.crossings_delivered"] =
        static_cast<double>(stats.crossings.crossings_delivered);
    layer["federation.crossing_drops"] =
        static_cast<double>(stats.crossings.crossing_drops);
    layer["federation.rt_admit_ratio"] =
        static_cast<double>(stats.rt_admitted) /
        static_cast<double>(std::max(1U, stats.rt_admitted + stats.rt_rejected));
    layer["federation.in_flight_max"] = static_cast<double>(in_flight_max_);
    layer["diffserv.backbone_depth_max"] = static_cast<double>(backbone_max_);
    layer["diffserv.tail_drops"] =
        static_cast<double>(stats.backbone_tail_drops);
    double data_tx = 0.0;
    double transit = 0.0;
    double sat_rounds = 0.0;
    double lost = 0.0;
    double recoveries = 0.0;
    double rebuilds = 0.0;
    for (std::uint32_t r = 0; r < federation_.ring_count(); ++r) {
      const wrtring::EngineStats& ring = federation_.ring_engine(r).stats();
      data_tx += static_cast<double>(ring.data_transmissions);
      transit += static_cast<double>(ring.transit_forwards);
      sat_rounds += static_cast<double>(ring.sat_rounds);
      lost += static_cast<double>(ring.frames_lost_link +
                                  ring.frames_lost_rebuild +
                                  ring.frames_lost_churn +
                                  ring.frames_dropped_stale);
      recoveries += static_cast<double>(ring.sat_recoveries);
      rebuilds += static_cast<double>(ring.ring_rebuilds);
    }
    layer["wrtring.data_tx"] = data_tx;
    layer["wrtring.delivered"] = outcome.delivered;
    layer["wrtring.delivery_ratio"] = outcome.delivered / std::max(1.0, data_tx);
    layer["wrtring.transit_per_delivery"] =
        transit / std::max(1.0, outcome.delivered);
    layer["wrtring.sat_rounds"] = sat_rounds;
    layer["wrtring.frames_lost"] = lost;
    layer["wrtring.recoveries"] = recoveries;
    layer["wrtring.rebuilds"] = rebuilds;

    if (stats.crossings.crossings_delivered > stats.crossings.crossings_posted) {
      why = "more crossings delivered than posted";
      return false;
    }
    return digests_agree(why);
  }

 private:
  /// The determinism contract: same (seed, K), any worker count, same
  /// digest.  Checked on a small fabric with W = 1 and this run's W.
  bool digests_agree(std::string& why) const {
    std::uint64_t digests[2] = {0, 0};
    const std::uint32_t workers[2] = {1, parallel_workers_};
    for (int i = 0; i < 2; ++i) {
      wrtring::FederationConfig config = federation_config(16, 8, workers[i]);
      config.epoch_slots = 16;
      wrtring::FederationEngine small(config, seed_);
      if (!small.init().ok()) {
        why = "digest-check federation failed to initialise";
        return false;
      }
      small.run_epochs(6);
      digests[i] = small.digest();
    }
    if (digests[0] != digests[1]) {
      why = "federation digest differs between W=1 and W=" +
            std::to_string(parallel_workers_);
      return false;
    }
    return true;
  }

  /// Wall time of kSpeedupEpochs on this fabric with one worker over the
  /// same with parallel_workers_, each on a fresh federation.
  double speedup() const {
    double seconds[2] = {0.0, 0.0};
    const std::uint32_t workers[2] = {1, parallel_workers_};
    for (int i = 0; i < 2; ++i) {
      wrtring::FederationConfig config = config_;
      config.worker_threads = workers[i];
      wrtring::FederationEngine fabric(config, seed_);
      if (!fabric.init().ok()) return 0.0;
      const std::int64_t t0 = now_ns();
      fabric.run_epochs(kSpeedupEpochs);
      seconds[i] = static_cast<double>(now_ns() - t0) * 1e-9;
    }
    return seconds[0] / seconds[1];
  }

  Tracer& tracer_;
  std::uint64_t seed_;
  std::int64_t chunks_;
  std::uint32_t parallel_workers_;
  wrtring::FederationConfig config_;
  wrtring::FederationEngine federation_;

  double busy_ms_ = 0.0;
  double critical_ms_ = 0.0;
  double imbalance_ = 0.0;
  double wall_ms_ = 0.0;
  std::size_t in_flight_max_ = 0;
  std::size_t backbone_max_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_federation_workload(const RunSpec& spec,
                                                   Tracer& tracer) {
  return std::make_unique<FederationWorkload>(spec, tracer);
}

}  // namespace wrt::e2e
