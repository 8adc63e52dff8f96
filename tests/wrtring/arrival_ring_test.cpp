// The SAT arrival ring: each ring position keeps its last
// SlotKernel::kArrivalSlots SAT arrivals in its column of a slot-major
// table, with a head and a count.  These tests pin the ring's order across
// the wrap, its lockstep with the station columns through every membership
// path (against a per-position deque model, through re-layouts of the
// rows), and that the engine's rotation statistics are exactly the
// consecutive differences of the arrivals it records.
#include <algorithm>
#include <cstdint>
#include <deque>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "tests/wrtring/test_helpers.hpp"
#include "wrtring/soa_kernel.hpp"

namespace wrt::wrtring {
namespace {

constexpr std::size_t kSlots = SlotKernel::kArrivalSlots;

/// Position p's arrivals, oldest first.
std::vector<Tick> history(const SlotKernel& kernel, std::size_t p) {
  const SlotKernel::ArrivalView arrivals = kernel.arrivals(p);
  std::vector<Tick> result;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    result.push_back(arrivals[i]);
  }
  return result;
}

/// Ticks first, first + step, ... (count of them).
std::vector<Tick> ticks(Tick first, Tick step, std::size_t count) {
  std::vector<Tick> result;
  for (std::size_t i = 0; i < count; ++i) {
    result.push_back(first + static_cast<Tick>(i) * step);
  }
  return result;
}

/// Appends a station and records `arrivals` at it.
void push_with_history(SlotKernel& kernel, NodeId id,
                       const std::vector<Tick>& arrivals) {
  kernel.insert_station(kernel.size(), id, Quota{1, 1}, 0, 0);
  for (const Tick arrival : arrivals) {
    kernel.record_arrival(kernel.size() - 1, arrival);
  }
}

/// The newest kSlots of `arrivals`.
std::vector<Tick> newest(const std::vector<Tick>& arrivals) {
  const std::size_t keep = std::min(arrivals.size(), kSlots);
  return {arrivals.end() - static_cast<std::ptrdiff_t>(keep), arrivals.end()};
}

TEST(ArrivalRing, SixtyFifthArrivalEvictsTheOldest) {
  SlotKernel kernel;
  kernel.insert_station(kernel.size(), 0, Quota{1, 1}, 0, 0);
  EXPECT_EQ(kernel.arrivals(0).size(), 0u);

  const std::vector<Tick> all = ticks(10, 10, 3 * kSlots + 5);
  for (std::size_t n = 1; n <= all.size(); ++n) {
    kernel.record_arrival(0, all[n - 1]);
    const std::vector<Tick> recorded(all.begin(),
                                     all.begin() +
                                         static_cast<std::ptrdiff_t>(n));
    // Oldest first, before, at and across every wrap of the head.
    ASSERT_EQ(history(kernel, 0), newest(recorded)) << "after " << n;
    ASSERT_EQ(kernel.newest_arrival(0), all[n - 1]);
  }
  EXPECT_EQ(kernel.arrivals(0).size(), kSlots);

  // The 65th arrival in particular drops exactly the first one.
  SlotKernel fresh;
  push_with_history(fresh, 0, ticks(1, 1, kSlots));
  ASSERT_EQ(fresh.arrivals(0)[0], 1);
  fresh.record_arrival(0, 65);
  EXPECT_EQ(fresh.arrivals(0).size(), kSlots);
  EXPECT_EQ(history(fresh, 0), ticks(2, 1, kSlots));
}

TEST(ArrivalRing, HistoriesMoveWithTheirStations) {
  // Three stations whose heads sit at different block slots: 5 arrivals,
  // a wrapped 70 and none.
  SlotKernel kernel;
  const std::vector<Tick> a = ticks(100, 3, 5);
  const std::vector<Tick> b = ticks(1000, 7, 70);
  push_with_history(kernel, 10, a);
  push_with_history(kernel, 11, b);
  push_with_history(kernel, 12, {});

  // A join (insert_station) shifts the later blocks up with their heads.
  kernel.insert_station(1, 20, Quota{1, 1}, 0, 0);
  ASSERT_EQ(kernel.size(), 4u);
  EXPECT_EQ(history(kernel, 0), a);
  EXPECT_TRUE(history(kernel, 1).empty());
  EXPECT_EQ(history(kernel, 2), newest(b));
  EXPECT_TRUE(history(kernel, 3).empty());
  kernel.record_arrival(1, 5000);
  EXPECT_EQ(history(kernel, 1), std::vector<Tick>{5000});
  EXPECT_EQ(history(kernel, 2), newest(b));

  // A cut-out (erase_station) shifts them down.
  kernel.erase_station(0);
  ASSERT_EQ(kernel.size(), 3u);
  EXPECT_EQ(kernel.ids()[1], 11u);
  EXPECT_EQ(history(kernel, 0), std::vector<Tick>{5000});
  EXPECT_EQ(history(kernel, 1), newest(b));
  EXPECT_TRUE(history(kernel, 2).empty());

  // A re-formation re-pack (adopt_station) carries each history to the
  // station's new position, in any order, and recording continues from
  // its newest arrival.
  SlotKernel repacked;
  repacked.adopt_station(kernel, 2);
  repacked.adopt_station(kernel, 1);
  repacked.adopt_station(kernel, 0);
  ASSERT_EQ(repacked.ids(), (std::vector<NodeId>{12, 11, 20}));
  EXPECT_TRUE(history(repacked, 0).empty());
  EXPECT_EQ(history(repacked, 1), newest(b));
  EXPECT_EQ(history(repacked, 2), std::vector<Tick>{5000});
  repacked.record_arrival(1, 9999);
  std::vector<Tick> b_next = b;
  b_next.push_back(9999);
  EXPECT_EQ(history(repacked, 1), newest(b_next));
  EXPECT_EQ(repacked.newest_arrival(1), 9999);

  repacked.clear_arrivals();
  for (std::size_t p = 0; p < repacked.size(); ++p) {
    EXPECT_EQ(repacked.arrivals(p).size(), 0u);
  }
}

/// The reference model of one kernel: each position's newest kSlots
/// arrivals, oldest first.
class ArrivalModel {
 public:
  void insert(std::size_t position) {
    columns_.insert(columns_.begin() + static_cast<std::ptrdiff_t>(position),
                    std::deque<Tick>{});
  }
  void erase(std::size_t position) {
    columns_.erase(columns_.begin() + static_cast<std::ptrdiff_t>(position));
  }
  void append(const std::deque<Tick>& column) { columns_.push_back(column); }
  void record(std::size_t position, Tick arrival) {
    std::deque<Tick>& column = columns_[position];
    column.push_back(arrival);
    if (column.size() > kSlots) {
      column.pop_front();
      ++evictions_;
    }
  }
  void clear() {
    for (std::deque<Tick>& column : columns_) column.clear();
  }
  [[nodiscard]] std::size_t size() const { return columns_.size(); }
  [[nodiscard]] const std::deque<Tick>& at(std::size_t p) const {
    return columns_[p];
  }
  /// Arrivals a full history has dropped.
  [[nodiscard]] std::size_t evictions() const { return evictions_; }

 private:
  std::vector<std::deque<Tick>> columns_;
  std::size_t evictions_ = 0;
};

/// Every position's arrivals equal the model's, and the newest matches.
void expect_matches(const SlotKernel& kernel, const ArrivalModel& model,
                    std::size_t call) {
  ASSERT_EQ(kernel.size(), model.size()) << "after call " << call;
  for (std::size_t p = 0; p < kernel.size(); ++p) {
    const std::deque<Tick>& want = model.at(p);
    ASSERT_EQ(history(kernel, p), std::vector<Tick>(want.begin(), want.end()))
        << "position " << p << " after call " << call;
    if (!want.empty()) {
      ASSERT_EQ(kernel.newest_arrival(p), want.back())
          << "position " << p << " after call " << call;
    }
  }
}

TEST(ArrivalRing, MatchesAPerPositionDequeModel) {
  // Seeded random membership and recording calls against the model.  The
  // kernel reserves 4 columns and grows past 100 stations, so its rows are
  // re-laid at a wider stride several times; SAT rounds fill and wrap the
  // histories, and the adopt calls copy a donor kernel's histories.
  std::mt19937_64 rng(20261019);
  const auto below = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  SlotKernel kernel;
  kernel.reserve(4);
  ArrivalModel model;
  SlotKernel donor;
  ArrivalModel donor_model;
  for (NodeId id = 0; id < 6; ++id) {
    donor.insert_station(donor.size(), id, Quota{1, 1}, 0, 0);
    donor_model.insert(donor_model.size());
  }
  Tick now = 0;
  NodeId next_id = 100;
  std::size_t max_size = 0;
  constexpr std::size_t kCalls = 4000;
  const auto erase_one = [&] {
    if (kernel.size() == 0) return;
    const std::size_t p = below(kernel.size());
    kernel.erase_station(p);
    model.erase(p);
  };
  for (std::size_t call = 0; call < kCalls; ++call) {
    // Membership grows to 120 stations, then churns around that size.
    const bool grow = kernel.size() < 120;
    switch (below(8)) {
      case 0:
        if (!grow) {
          erase_one();
          break;
        }
        kernel.insert_station(kernel.size(), next_id++, Quota{1, 1}, 0, now);
        model.insert(model.size());
        break;
      case 1:
        erase_one();
        break;
      case 2: {
        if (!grow) {
          erase_one();
          break;
        }
        // At the front, in the middle or at the end.
        const std::size_t n = kernel.size();
        const std::size_t choice = below(3);
        const std::size_t p = choice == 0 ? 0
                              : choice == 2 || n == 0 ? n
                                                      : below(n + 1);
        kernel.insert_station(p, next_id++, Quota{1, 1}, 0, now);
        model.insert(p);
        break;
      }
      case 3: {
        if (!grow) {
          erase_one();
          break;
        }
        const std::size_t from = below(donor.size());
        kernel.adopt_station(donor, from);
        model.append(donor_model.at(from));
        break;
      }
      case 4:
        // A SAT round over the donor, so adopted histories wrap too.
        for (std::size_t p = 0; p < donor.size(); ++p) {
          donor.record_arrival(p, ++now);
          donor_model.record(p, now);
        }
        break;
      case 5:
      case 6:
        // A SAT round: every position records once, in ring order.
        for (std::size_t p = 0; p < kernel.size(); ++p) {
          kernel.record_arrival(p, ++now);
          model.record(p, now);
        }
        break;
      default:
        if (below(64) == 0) {
          kernel.clear_arrivals();
          model.clear();
        } else if (kernel.size() != 0) {
          const std::size_t p = below(kernel.size());
          kernel.record_arrival(p, ++now);
          model.record(p, now);
        }
        break;
    }
    max_size = std::max(max_size, kernel.size());
    expect_matches(kernel, model, call);
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(max_size, 100u);  // grown well past the reserved stride
  EXPECT_GT(model.evictions(), 0u);        // histories wrapped
  EXPECT_GT(donor_model.evictions(), 0u);  // and adopted ones too
}

TEST(ArrivalRing, RotationSamplesAreTheConsecutiveDifferences) {
  // A clean ring stopped before any station holds a full ring: every SAT
  // arrival since init() is still recorded, so the rotation statistics
  // must hold exactly the consecutive differences, one per later arrival.
  testing::Harness h(8, Config{});
  h.engine.add_source(testing::rt_flow(0, 0, 8));
  h.engine.add_source(testing::be_flow(1, 3, 8));
  h.engine.run_slots(300);

  std::vector<double> expected;
  for (std::size_t p = 0; p < h.engine.virtual_ring().size(); ++p) {
    const std::vector<Tick> arrivals =
        h.engine.sat_arrival_history(h.engine.virtual_ring().station_at(p));
    ASSERT_GE(arrivals.size(), 2u);
    ASSERT_LT(arrivals.size(), kSlots) << "position " << p << " wrapped";
    for (std::size_t i = 1; i < arrivals.size(); ++i) {
      expected.push_back(ticks_to_slots_real(arrivals[i] - arrivals[i - 1]));
    }
  }
  std::sort(expected.begin(), expected.end());

  const sim::Moments& samples = h.engine.stats().sat_rotation_slots;
  ASSERT_EQ(samples.count(), expected.size());
  EXPECT_EQ(samples.min(), expected.front());
  EXPECT_EQ(samples.max(), expected.back());
  // The engine added the samples in arrival order, not sorted, so the
  // Welford sums may differ in the last bits.
  sim::Moments want;
  for (const double sample : expected) want.add(sample);
  EXPECT_NEAR(samples.mean(), want.mean(), 1e-9);
  EXPECT_NEAR(samples.variance(), want.variance(), 1e-9);
}

TEST(ArrivalRing, ReformationClearsEveryHistory) {
  testing::Harness h(24, Config{});
  h.engine.run_slots(500);
  std::size_t before = 0;
  for (const NodeId node : h.engine.virtual_ring().order()) {
    before += h.engine.sat_arrival_history(node).size();
  }
  ASSERT_GT(before, 0u);

  // Six stations walled off: no cut-out bridges the gap, so the ring
  // re-forms over the other eighteen.  Step until the re-formation ends.
  h.topology.set_partition({{0, 1, 2, 3, 4, 5}});
  bool rebuilding = false;
  Tick step_start = 0;
  for (int i = 0; i < 20000; ++i) {
    step_start = h.engine.now();
    h.engine.step();
    if (h.engine.sat_state() == SatState::kRebuilding) {
      rebuilding = true;
    } else if (rebuilding) {
      break;
    }
  }
  ASSERT_TRUE(rebuilding);
  ASSERT_NE(h.engine.sat_state(), SatState::kRebuilding);
  ASSERT_GE(h.engine.stats().ring_rebuilds, 1u);

  // Nothing the old ring recorded survives, in adopted stations or new.
  for (const NodeId node : h.engine.virtual_ring().order()) {
    for (const Tick arrival : h.engine.sat_arrival_history(node)) {
      EXPECT_GE(arrival, step_start) << "station " << node;
    }
  }
}

}  // namespace
}  // namespace wrt::wrtring
