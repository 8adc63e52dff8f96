// Workload interface shared by wrt_bench's driver and its five workloads.
//
// A workload is built (its set-up, timed by the driver), then advanced one
// chunk of simulated time at a time.  The driver times each run_chunk()
// call; everything else a workload does between chunks (inspection, the
// invariant audit) stays outside the chunk times.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "trace.hpp"

namespace wrt::e2e {

/// Exact distribution of delays in whole slots.  Delays below kDenseSlots
/// count in a fixed array allocated up front, longer ones in a sparse map,
/// so the instrument's memory does not follow how late a packet is.
class DelayHistogram {
 public:
  static constexpr std::int64_t kDenseSlots = std::int64_t{1} << 12;

  DelayHistogram() : dense_(static_cast<std::size_t>(kDenseSlots), 0) {}

  void add(std::int64_t slots);
  /// Nearest-rank quantile, q in (0, 1]; 0 when empty.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }

 private:
  std::vector<std::uint64_t> dense_;
  std::map<std::int64_t, std::uint64_t> sparse_;
  std::uint64_t total_ = 0;
};

/// What the simulated users saw; deterministic for a seed and run length.
struct Outcome {
  std::uint64_t rt_offered = 0;  ///< RT units due by the end of the run
  std::uint64_t rt_on_time = 0;  ///< of those, delivered by their deadline
  DelayHistogram rt_delay;       ///< delivered RT units, slots
  double delivered = 0.0;        ///< packets delivered, every class
  double mac_slots = 0.0;        ///< slots simulated, summed over MACs
  double station_slots = 0.0;    ///< mac_slots weighted by station count
};

/// Per-layer metrics a workload reports, by name (see kLayerMetrics).
using LayerValues = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;

  [[nodiscard]] virtual std::int64_t chunks() const = 0;

  /// Advances simulated time by one chunk.
  virtual void run_chunk(std::int64_t chunk) = 0;

  /// Between chunks, untimed: per-chunk bookkeeping and traced-run probes.
  virtual void inspect(std::int64_t chunk, double chunk_ms) {
    (void)chunk;
    (void)chunk_ms;
  }

  /// Audits the simulator state; returns the number of violations.
  [[nodiscard]] virtual std::uint64_t audit() = 0;

  /// After the last chunk: fills the outcome and the per-layer values, and
  /// checks the outputs.  Returns false (with `why`) when they are wrong.
  [[nodiscard]] virtual bool finish(const SpanTable& spans, Outcome& outcome,
                                    LayerValues& layer, std::string& why) = 0;
};

/// Run-length and seed inputs of one workload run.
struct RunSpec {
  std::uint64_t seed = 1;
  std::int64_t chunks = 0;
  bool smoke = false;
};

enum class RingKind { kClean, kFaults, kPartition };

/// ring-faults runs one round of six faults in this many chunks.
constexpr std::int64_t kFaultRoundChunks = 24;

/// ring-partition runs whole episodes (one partition and its heal each) of
/// this many chunks.
constexpr std::int64_t kPartitionEpisodeChunks = 128;

[[nodiscard]] std::unique_ptr<Workload> make_ring_workload(
    RingKind kind, const RunSpec& spec, Tracer& tracer);
[[nodiscard]] std::unique_ptr<Workload> make_voice_workload(
    const RunSpec& spec, Tracer& tracer);
[[nodiscard]] std::unique_ptr<Workload> make_federation_workload(
    const RunSpec& spec, Tracer& tracer);

/// Stream-separated seed for one entity of a run (splitmix64 mixing).
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::uint64_t stream,
                                        std::uint64_t index = 0);

}  // namespace wrt::e2e
