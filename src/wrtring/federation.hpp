// Sharded multi-ring federation: thousands of WRT-Rings on K worker
// threads with epoch-synchronized gateway exchange.
//
// The paper scopes one ring to a small cell and sketches the rest
// ("it may form another ring", §2.4.1; the Diffserv gateway, §2.3).  The
// FederationEngine is that rest at scale: rings are partitioned into K
// shards (ring r -> shard r mod K), each shard steps its rings and its
// Diffserv backbone segment locally, and inter-ring traffic crosses only
// at epoch boundaries through double-buffered per-shard-pair mailboxes.
//
// Determinism contract: for a fixed (seed, shard count) the run is
// bit-identical for ANY worker-thread count, including 1.  K is the
// semantic partition — it decides which backbone segment a crossing
// traverses and the epoch quantization of its hand-offs; W ≤ K is pure
// execution.  This holds because (a) shards touch only their own state
// during an epoch, (b) mailbox buffers flip serially at the barrier,
// (c) mailboxes are drained in fixed producer order, and (d) nothing in
// the protocol reads a wall clock.  See DESIGN.md §12 for the argument
// and tests/concurrency/federation_determinism_test.cpp for the proof.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "util/result.hpp"
#include "util/types.hpp"
#include "wrtring/config.hpp"
#include "wrtring/mailbox.hpp"
#include "wrtring/shard.hpp"

namespace wrt::wrtring {

struct FederationConfig {
  std::uint32_t shards = 1;          ///< K: the determinism partition
  std::uint32_t worker_threads = 0;  ///< W: execution only; 0 = one per shard
  std::int64_t epoch_slots = 64;     ///< E: slots between mailbox flips

  std::uint32_t rings = 8;
  std::uint32_t stations_per_ring = 16;  ///< >= 4; station 0 is the gateway
  Config ring;  ///< per-ring template (members left empty)

  /// Best-effort backlog sources per ring (local load; station 0 exempt).
  std::uint32_t saturated_per_ring = 2;

  /// Inter-ring RT streams originating in each ring.  Each is brokered at
  /// init: admitted (RealTime) only if the source ring, the destination
  /// shard's backbone segment AND the destination ring all have budget;
  /// otherwise demoted to best-effort.
  std::uint32_t crossing_flows_per_ring = 1;
  double crossing_rate_per_slot = 0.02;  ///< per crossing stream
  /// Relative RT deadline for admitted crossings; 0 derives one generous
  /// enough for the epoch-quantized hand-offs (see DESIGN.md §12).
  std::int64_t crossing_deadline_slots = 0;

  // One Diffserv backbone segment per shard (terminating crossings whose
  // destination ring lives on that shard).
  std::size_t backbone_hops = 2;
  double backbone_service_rate = 4.0;   ///< packets/slot per segment
  std::size_t backbone_queue_capacity = 4096;
  double backbone_premium_capacity = 1.0;  ///< packets/slot per segment

  [[nodiscard]] util::Status validate() const;
};

/// Aggregate run statistics (serial, after the epoch loop).
struct FederationStats {
  std::uint64_t ring_slots = 0;     ///< Σ over rings of slots stepped
  std::uint64_t station_slots = 0;  ///< ring_slots × stations per ring
  std::uint64_t total_delivered = 0;
  ShardCounters crossings;          ///< summed over shards
  std::uint32_t rt_admitted = 0;
  std::uint32_t rt_rejected = 0;
  std::uint64_t backbone_tail_drops = 0;
  /// Σ over shards of thread-CPU busy time (total work).
  double busy_seconds = 0.0;
  /// Σ over epochs of max-shard busy time: the run's critical path, i.e.
  /// the wall time a host with ≥ K free cores would observe.
  double critical_path_seconds = 0.0;
};

class FederationEngine {
 public:
  FederationEngine(FederationConfig config, std::uint64_t seed);
  ~FederationEngine();

  FederationEngine(const FederationEngine&) = delete;
  FederationEngine& operator=(const FederationEngine&) = delete;

  /// Builds every ring (serially), wires shards and mailboxes, installs
  /// local + crossing traffic and brokers every crossing reservation.
  [[nodiscard]] util::Status init();

  /// Runs `epochs` epochs of epoch_slots slots each.  Each epoch fans
  /// shards out over W workers (the calling thread is worker 0, so W = 1
  /// starts no thread) and joins them at the barrier before the serial
  /// mailbox flip.
  void run_epochs(std::int64_t epochs);

  [[nodiscard]] std::int64_t now_slots() const noexcept { return now_slots_; }
  [[nodiscard]] std::uint32_t shard_count() const noexcept {
    return static_cast<std::uint32_t>(shards_.size());
  }
  [[nodiscard]] std::uint32_t ring_count() const noexcept {
    return config_.rings;
  }
  [[nodiscard]] const std::vector<CrossingFlow>& crossing_flows()
      const noexcept {
    return crossing_flows_;
  }

  /// Engine serving global ring r (shard r mod K, slot r div K).  The
  /// non-const overload is for the serial phases only (wiring, external
  /// brokering, post-run inspection) — never while workers are running.
  [[nodiscard]] const Engine& ring_engine(std::uint32_t ring) const;
  [[nodiscard]] Engine& ring_engine(std::uint32_t ring);
  [[nodiscard]] const FederationShard& shard(std::uint32_t index) const {
    return *shards_.at(index);
  }

  /// End-to-end RT crossing delays in ticks, merged in shard order
  /// (deterministic).
  [[nodiscard]] std::vector<Tick> rt_crossing_delay_ticks() const;

  [[nodiscard]] FederationStats stats() const;

  /// FNV-1a digest over every ring's integer protocol counters (global
  /// ring order), every shard's crossing counters and delay samples, and
  /// the brokering outcome.  Integer-only inputs; bit-identical for a
  /// fixed (seed, shard count) regardless of worker-thread count.
  [[nodiscard]] std::uint64_t digest() const;

 private:
  [[nodiscard]] util::Status build_rings();
  void install_crossing_flows();

  FederationConfig config_;
  std::uint64_t seed_;
  /// The crossing table: entry i is flow kCrossingFlowBase + i.  Written
  /// only by init(); every shard reads it during epochs, so it is
  /// declared before (and outlives) the shards.
  std::vector<CrossingFlow> crossing_flows_;
  std::vector<std::unique_ptr<FederationShard>> shards_;
  std::vector<Mailbox> mailboxes_;  ///< K×K, [src * K + dst]
  std::uint32_t rt_admitted_ = 0;
  std::uint32_t rt_rejected_ = 0;
  std::int64_t now_slots_ = 0;
  std::int64_t critical_path_ns_ = 0;
  bool initialized_ = false;
};

}  // namespace wrt::wrtring
