// A fixed loop timed beside the workload, to read how fast the host is
// running the benchmark's thread at that moment.
//
// The reference host's virtual CPUs share their physical cores with other
// machines' work.  While a core's other hyperthread is busy, the
// simulator's chunks on that CPU take 1.5 to 2 times as long, in stretches
// from a fraction of a second to a minute, each CPU on its own.  A loop of
// dependent multiplies does not slow with them; this loop of binary-heap
// updates and hash-table probes over 1 MB does: its time follows the
// simulator's block times with a correlation of 0.8-0.9.  Over ten seeds,
// a workload's wall time divided by the probe's spread by 1-7 % (quartile
// distance over median) where the wall time alone spread by 11-41 %.
#pragma once

#include <cstdint>
#include <vector>

namespace wrt::e2e {

class HostProbe {
 public:
  /// The timed pass's duration on the reference host while its CPU was not
  /// shared (the 5th percentile of 3,000 samples; the median was 0.46 ms),
  /// in ms.  Only a scale: a time divided by a probe time and multiplied by
  /// this reads as a time on that quiet host.
  static constexpr double kQuietMs = 0.35;

  HostProbe();

  /// Sweeps the probe's data back into cache (the workload has just
  /// evicted it), then times one fixed pass of the loop; returns ms.
  [[nodiscard]] double run_ms();

 private:
  std::vector<std::uint64_t> table_;
  std::vector<std::uint64_t> heap_;
  std::uint64_t state_ = 0x9e3779b97f4a7c15ULL;
  std::uint64_t sink_ = 0;
};

}  // namespace wrt::e2e
