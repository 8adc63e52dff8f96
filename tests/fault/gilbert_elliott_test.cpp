// Gilbert–Elliott channel unit tests: parameter algebra, chain statistics,
// burstiness, the LinkLossField determinism contract (per-purpose,
// per-link streams; zero draws when disabled), and offers by key and by
// handle against a reference copy of the field that searched a map of
// lazily created processes on every offer.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "fault/gilbert_elliott.hpp"
#include "util/flat_map.hpp"
#include "util/rng.hpp"

namespace wrt::fault {
namespace {

TEST(GeParams, DefaultIsDisabledAndValid) {
  const GeParams params;
  EXPECT_FALSE(params.enabled());
  EXPECT_DOUBLE_EQ(params.average_loss(), 0.0);
  EXPECT_TRUE(params.validate().ok());
}

TEST(GeParams, IidIsTheDegenerateCase) {
  const GeParams params = GeParams::iid(0.25);
  EXPECT_TRUE(params.enabled());
  EXPECT_DOUBLE_EQ(params.average_loss(), 0.25);
  EXPECT_TRUE(params.validate().ok());
  EXPECT_FALSE(GeParams::iid(0.0).enabled());
}

TEST(GeParams, BurstyHitsTargetStationaryLoss) {
  for (const double avg : {0.01, 0.1, 0.4}) {
    for (const double dwell : {1.0, 4.0, 32.0}) {
      const GeParams params = GeParams::bursty(avg, dwell);
      ASSERT_TRUE(params.validate().ok())
          << "avg=" << avg << " dwell=" << dwell;
      EXPECT_NEAR(params.average_loss(), avg, 1e-9)
          << "avg=" << avg << " dwell=" << dwell;
      EXPECT_NEAR(1.0 / params.p_bad_to_good, dwell, 1e-9);
    }
  }
}

TEST(GeParams, ValidateRejectsNonProbabilities) {
  GeParams params;
  params.loss_good = 1.5;
  EXPECT_FALSE(params.validate().ok());
  params = GeParams{};
  params.p_good_to_bad = -0.1;
  EXPECT_FALSE(params.validate().ok());
  // NaN fails every range comparison, so each field needs its own case.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double GeParams::*field :
       {&GeParams::p_good_to_bad, &GeParams::p_bad_to_good,
        &GeParams::loss_good, &GeParams::loss_bad}) {
    params = GeParams::bursty(0.1, 4.0);
    params.*field = nan;
    EXPECT_FALSE(params.validate().ok());
  }
}

TEST(GeProcess, EmpiricalLossMatchesStationaryRate) {
  GeProcess process(GeParams::bursty(0.2, 8.0), 42, 7);
  std::size_t lost = 0;
  constexpr std::size_t kOffers = 200000;
  for (std::size_t i = 0; i < kOffers; ++i) {
    if (process.offer()) ++lost;
  }
  EXPECT_NEAR(static_cast<double>(lost) / kOffers, 0.2, 0.01);
}

TEST(GeProcess, SameSeedSameSequence) {
  GeProcess a(GeParams::bursty(0.3, 4.0), 99, 5);
  GeProcess b(GeParams::bursty(0.3, 4.0), 99, 5);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.offer(), b.offer()) << "diverged at offer " << i;
  }
}

/// Same average loss, longer Bad dwell => longer loss bursts.  This is the
/// property the i.i.d. knobs cannot express.
TEST(GeProcess, DwellControlsBurstLength) {
  const auto mean_burst = [](double dwell) {
    GeProcess process(GeParams::bursty(0.1, dwell), 4242, 1);
    std::size_t bursts = 0;
    std::size_t lost = 0;
    bool in_burst = false;
    for (std::size_t i = 0; i < 300000; ++i) {
      const bool loss = process.offer();
      if (loss) {
        ++lost;
        if (!in_burst) ++bursts;
      }
      in_burst = loss;
    }
    return static_cast<double>(lost) / static_cast<double>(bursts);
  };
  const double short_dwell = mean_burst(1.0);
  const double long_dwell = mean_burst(32.0);
  EXPECT_LT(short_dwell, 2.0);
  EXPECT_GT(long_dwell, 4.0 * short_dwell);
}

TEST(ChannelConfig, AnyEnabledAndValidate) {
  ChannelConfig config;
  EXPECT_FALSE(config.any_enabled());
  EXPECT_TRUE(config.validate().ok());
  config.sat = GeParams::iid(0.01);
  EXPECT_TRUE(config.any_enabled());
  config.data.loss_good = 2.0;
  EXPECT_FALSE(config.validate().ok());
}

TEST(LinkLossField, DisabledPurposeNeverLoses) {
  LinkLossField field;
  ChannelConfig config;
  config.data = GeParams::iid(1.0);
  field.configure(config, 1);
  EXPECT_TRUE(field.enabled(LossPurpose::kData));
  EXPECT_FALSE(field.enabled(LossPurpose::kSat));
  EXPECT_FALSE(field.enabled(LossPurpose::kControl));
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(field.offer(LossPurpose::kData, 0, 1));
    EXPECT_FALSE(field.offer(LossPurpose::kSat, 0, 1));
    EXPECT_FALSE(field.offer(LossPurpose::kControl, 0, 1));
  }
}

TEST(LinkLossField, SameSeedSameOfferSequence) {
  ChannelConfig config;
  config.data = GeParams::bursty(0.2, 8.0);
  config.sat = GeParams::iid(0.05);
  LinkLossField a;
  LinkLossField b;
  a.configure(config, 77);
  b.configure(config, 77);
  for (int i = 0; i < 2000; ++i) {
    const NodeId from = static_cast<NodeId>(i % 5);
    const NodeId to = static_cast<NodeId>((i + 1) % 5);
    ASSERT_EQ(a.offer(LossPurpose::kData, from, to),
              b.offer(LossPurpose::kData, from, to));
    ASSERT_EQ(a.offer(LossPurpose::kSat, from, to),
              b.offer(LossPurpose::kSat, from, to));
  }
}

/// The per-purpose stream isolation contract: interleaving draws for one
/// purpose must not perturb another purpose's sequence.
TEST(LinkLossField, PurposesDrawFromIndependentStreams) {
  ChannelConfig sat_only;
  sat_only.sat = GeParams::iid(0.3);
  ChannelConfig sat_and_data = sat_only;
  sat_and_data.data = GeParams::bursty(0.4, 4.0);

  LinkLossField a;
  LinkLossField b;
  a.configure(sat_only, 123);
  b.configure(sat_and_data, 123);
  for (int i = 0; i < 2000; ++i) {
    (void)b.offer(LossPurpose::kData, 2, 3);  // extra draws on b only
    ASSERT_EQ(a.offer(LossPurpose::kSat, 2, 3),
              b.offer(LossPurpose::kSat, 2, 3))
        << "data draws perturbed the SAT stream at offer " << i;
  }
}

TEST(LinkLossField, LinksDrawFromIndependentStreams) {
  ChannelConfig config;
  config.data = GeParams::iid(0.5);
  LinkLossField a;
  LinkLossField b;
  a.configure(config, 9);
  b.configure(config, 9);
  // Interleave offers on another link in b only: link 0->1's sequence must
  // be unaffected.
  for (int i = 0; i < 2000; ++i) {
    (void)b.offer(LossPurpose::kData, 7, 8);
    ASSERT_EQ(a.offer(LossPurpose::kData, 0, 1),
              b.offer(LossPurpose::kData, 0, 1));
  }
}

TEST(LinkLossField, PerLinkOverrideIsDirectedAndRevertible) {
  LinkLossField field;
  field.configure(ChannelConfig{}, 5);
  EXPECT_FALSE(field.enabled(LossPurpose::kData));

  field.set_link_params(LossPurpose::kData, 1, 2, GeParams::iid(1.0));
  EXPECT_TRUE(field.enabled(LossPurpose::kData));
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(field.offer(LossPurpose::kData, 1, 2));
    EXPECT_FALSE(field.offer(LossPurpose::kData, 2, 1))
        << "override must be directed";
    EXPECT_FALSE(field.offer(LossPurpose::kData, 3, 4));
  }

  field.clear_link_params(LossPurpose::kData, 1, 2);
  EXPECT_FALSE(field.enabled(LossPurpose::kData));
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(field.offer(LossPurpose::kData, 1, 2));
  }
}

/// The loss field as it was before handles: one map of processes per
/// purpose, a process created on a link's first enabled offer and erased
/// when its override is cleared.  The real field must lose exactly the
/// offers this one loses.
class LazyReferenceField {
 public:
  void configure(const ChannelConfig& config, std::uint64_t seed) {
    config_ = config;
    seed_ = seed;
    for (std::size_t i = 0; i < kLossPurposeCount; ++i) {
      overrides_[i].clear();
      processes_[i].clear();
    }
  }

  void set_link_params(LossPurpose purpose, NodeId from, NodeId to,
                       const GeParams& params) {
    const auto i = static_cast<std::size_t>(purpose);
    overrides_[i][key(from, to)] = params;
    processes_[i][key(from, to)] =
        GeProcess(params, seed_, stream(purpose, from, to));
  }

  void clear_link_params(LossPurpose purpose, NodeId from, NodeId to) {
    const auto i = static_cast<std::size_t>(purpose);
    overrides_[i].erase(key(from, to));
    processes_[i].erase(key(from, to));
  }

  void degrade_pair(NodeId a, NodeId b, const GeParams& params) {
    for (std::size_t i = 0; i < kLossPurposeCount; ++i) {
      set_link_params(static_cast<LossPurpose>(i), a, b, params);
      set_link_params(static_cast<LossPurpose>(i), b, a, params);
    }
  }

  void heal_pair(NodeId a, NodeId b) {
    for (std::size_t i = 0; i < kLossPurposeCount; ++i) {
      clear_link_params(static_cast<LossPurpose>(i), a, b);
      clear_link_params(static_cast<LossPurpose>(i), b, a);
    }
  }

  [[nodiscard]] bool enabled(LossPurpose purpose) const {
    const auto i = static_cast<std::size_t>(purpose);
    return config_.for_purpose(purpose).enabled() || !overrides_[i].empty();
  }

  [[nodiscard]] bool offer(LossPurpose purpose, NodeId from, NodeId to) {
    if (!enabled(purpose)) return false;
    const auto i = static_cast<std::size_t>(purpose);
    const std::uint64_t k = key(from, to);
    auto it = processes_[i].find(k);
    if (it == processes_[i].end()) {
      GeParams params = config_.for_purpose(purpose);
      if (const auto ov = overrides_[i].find(k); ov != overrides_[i].end()) {
        params = ov->second;
      }
      if (!params.enabled()) return false;
      processes_[i][k] = GeProcess(params, seed_, stream(purpose, from, to));
      it = processes_[i].find(k);
    }
    return it->second.offer();
  }

 private:
  static std::uint64_t key(NodeId from, NodeId to) {
    return (static_cast<std::uint64_t>(from) << 32) | to;
  }
  static std::uint64_t stream(LossPurpose purpose, NodeId from, NodeId to) {
    return ((static_cast<std::uint64_t>(purpose) + 1) << 56) ^ key(from, to) ^
           0x6C055ULL;
  }

  ChannelConfig config_{};
  std::uint64_t seed_ = 0;
  util::FlatMap<std::uint64_t, GeParams> overrides_[kLossPurposeCount];
  util::FlatMap<std::uint64_t, GeProcess> processes_[kLossPurposeCount];
};

/// Parameter sets a random mix draws from: disabled, i.i.d., two bursty
/// chains, and a chain that changes state but can never lose.
GeParams random_params(util::RngStream& rng) {
  GeParams never_loses;
  never_loses.p_good_to_bad = 0.3;
  never_loses.p_bad_to_good = 0.5;
  switch (rng.uniform_int(5)) {
    case 0: return GeParams{};
    case 1: return GeParams::iid(0.3);
    case 2: return GeParams::bursty(0.2, 4.0);
    case 3: return GeParams::bursty(0.05, 8.0, 0.5);
    default: return never_loses;
  }
}

/// A handle taken from the real field, and the link it was taken for.
struct HeldHandle {
  LossPurpose purpose;
  NodeId from;
  NodeId to;
  LinkLossField::Handle handle;
};

/// Drives the real field and the reference through one random mix of
/// configure, override and offer calls on five nodes, and expects every
/// offer to agree.  With `by_handle` the mix also takes handles at random
/// points, before and after overrides change, and offers through them.
void expect_same_draws_as_lazy_field(std::uint64_t seed, bool by_handle) {
  util::RngStream rng(seed, 0x1A2Bu);
  LinkLossField field;
  LazyReferenceField reference;
  std::vector<HeldHandle> held;
  const auto node = [&rng] { return static_cast<NodeId>(rng.uniform_int(5)); };
  const auto purpose = [&rng] {
    return static_cast<LossPurpose>(rng.uniform_int(kLossPurposeCount));
  };
  for (int round = 0; round < 4; ++round) {
    ChannelConfig config;
    config.data = random_params(rng);
    config.sat = random_params(rng);
    config.control = random_params(rng);
    field.configure(config, seed + static_cast<std::uint64_t>(round));
    reference.configure(config, seed + static_cast<std::uint64_t>(round));
    held.clear();
    for (int op = 0; op < 3000; ++op) {
      const LossPurpose p = purpose();
      const NodeId a = node();
      const NodeId b = node();
      switch (rng.uniform_int(20)) {
        case 0: {
          const GeParams params = random_params(rng);
          field.set_link_params(p, a, b, params);
          reference.set_link_params(p, a, b, params);
          break;
        }
        case 1:
          field.clear_link_params(p, a, b);
          reference.clear_link_params(p, a, b);
          break;
        case 2: {
          const GeParams params = random_params(rng);
          field.degrade_pair(a, b, params);
          reference.degrade_pair(a, b, params);
          break;
        }
        case 3:
          field.heal_pair(a, b);
          reference.heal_pair(a, b);
          break;
        case 4:
          if (by_handle) {
            held.push_back({p, a, b, field.handle(p, a, b)});
            break;
          }
          [[fallthrough]];
        case 5:
        case 6:
        case 7:
        case 8:
          if (by_handle && !held.empty()) {
            const HeldHandle& h = held[rng.uniform_int(held.size())];
            ASSERT_EQ(field.offer(h.handle),
                      reference.offer(h.purpose, h.from, h.to))
                << "seed " << seed << " round " << round << " op " << op;
            break;
          }
          [[fallthrough]];
        default:
          ASSERT_EQ(field.enabled(p), reference.enabled(p));
          ASSERT_EQ(field.offer(p, a, b), reference.offer(p, a, b))
              << "seed " << seed << " round " << round << " op " << op;
          break;
      }
    }
  }
}

TEST(LinkLossField, KeyOffersDrawWhatTheLazyFieldDrew) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    expect_same_draws_as_lazy_field(seed, /*by_handle=*/false);
  }
}

/// A handle offer draws from the same process as a key offer, even on a
/// disabled purpose: a process that cannot lose never does, and the next
/// set or clear restarts it.
TEST(LinkLossField, HandleOffersDrawWhatTheLazyFieldDrew) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    expect_same_draws_as_lazy_field(seed, /*by_handle=*/true);
  }
}

}  // namespace
}  // namespace wrt::fault
