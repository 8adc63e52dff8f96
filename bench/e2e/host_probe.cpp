#include "host_probe.hpp"

#include <algorithm>

#include "trace.hpp"

namespace wrt::e2e {
namespace {

constexpr std::size_t kTableWords = std::size_t{1} << 17;  // 1 MB
constexpr std::size_t kHeapWords = 4096;                    // 32 KB
constexpr int kSteps = 10000;
constexpr int kMaxProbes = 4;

std::uint64_t xorshift(std::uint64_t& state) {
  state ^= state << 13;
  state ^= state >> 7;
  state ^= state << 17;
  return state;
}

}  // namespace

HostProbe::HostProbe() : table_(kTableWords, 0) {
  heap_.reserve(kHeapWords);
  for (std::size_t i = 0; i < kHeapWords; ++i) heap_.push_back(xorshift(state_));
  std::make_heap(heap_.begin(), heap_.end());
}

double HostProbe::run_ms() {
  for (const std::uint64_t word : table_) sink_ += word;
  for (const std::uint64_t word : heap_) sink_ ^= word;
  const std::int64_t t0 = now_ns();
  for (int step = 0; step < kSteps; ++step) {
    const std::uint64_t x = xorshift(state_);
    std::pop_heap(heap_.begin(), heap_.end());
    heap_.back() ^= x;
    std::push_heap(heap_.begin(), heap_.end());
    const std::uint64_t key = x % 1000003 + 1;
    std::size_t slot = ((x * 0x9e3779b97f4a7c15ULL) >> 20) % kTableWords;
    for (int probe = 0; probe < kMaxProbes && table_[slot] != 0 &&
                        table_[slot] != key;
         ++probe) {
      slot = (slot + 1) % kTableWords;
    }
    table_[slot] = key;
    sink_ += (x & 1) != 0 ? table_[(slot * 31) % kTableWords]
                          : heap_.front() & 0xff;
  }
  return static_cast<double>(now_ns() - t0) * 1e-6;
}

}  // namespace wrt::e2e
