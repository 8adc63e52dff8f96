// Per-link bursty loss: the Gilbert–Elliott two-state channel.
//
// A global i.i.d. Bernoulli loss shared by every link is the simplest
// channel imperfection model, but real indoor channels are neither
// independent nor global: a link in a fade stays bad for a while (bursty
// loss), and different links fade independently.  The classic two-state
// Gilbert–Elliott chain captures exactly that: each directed link is in a
// Good or Bad state with per-state loss probabilities, and flips state with
// fixed transition probabilities.  I.i.d. loss with probability p is the
// degenerate case, spelled GeParams::iid(p) (one effective state).
//
// Determinism contract: every (purpose, directed link) pair owns an
// independent RngStream derived from (seed, purpose, from, to), and a draw
// happens only when that purpose's process is enabled.  Consequently
// (a) enabling data loss never perturbs the SAT or control draw sequences
// (the per-purpose-stream satellite requirement), and (b) with every loss
// knob zeroed the engine makes zero draws and its behaviour digest is
// bit-identical to a build without the fault plane.
#pragma once

#include <cstdint>
#include <vector>

#include "util/flat_map.hpp"
#include "util/result.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace wrt::fault {

/// Two-state Gilbert–Elliott parameters.  The chain advances one step per
/// message offered to the link, so dwell times are measured in offered
/// messages (≈ slots on a busy ring link).
struct GeParams {
  double p_good_to_bad = 0.0;  ///< per-offer transition Good -> Bad
  double p_bad_to_good = 1.0;  ///< per-offer transition Bad -> Good
  double loss_good = 0.0;      ///< loss probability in Good
  double loss_bad = 0.0;       ///< loss probability in Bad

  /// Degenerate i.i.d. case: a single effective state losing with `p`.
  [[nodiscard]] static GeParams iid(double p) noexcept {
    GeParams params;
    params.loss_good = p;
    return params;
  }

  /// Bursty channel with a target stationary loss rate.  `mean_bad_dwell`
  /// is the expected number of offers spent in Bad per visit (>= 1);
  /// `loss_bad` the loss probability while Bad (Good is loss-free).
  /// Requires avg_loss < loss_bad so the stationary equation is solvable.
  [[nodiscard]] static GeParams bursty(double avg_loss, double mean_bad_dwell,
                                       double loss_bad = 1.0) noexcept;

  /// True when this process can ever lose a message (and thus draws RNG).
  [[nodiscard]] bool enabled() const noexcept {
    return loss_good > 0.0 || (loss_bad > 0.0 && p_good_to_bad > 0.0);
  }

  /// Stationary loss rate of the chain.
  [[nodiscard]] double average_loss() const noexcept;

  [[nodiscard]] util::Status validate() const;
};

/// One directed link's chain: state + its private RNG stream.
class GeProcess {
 public:
  /// Default state is a disabled (never-losing) process.
  GeProcess() = default;

  GeProcess(const GeParams& params, std::uint64_t seed,
            std::uint64_t stream) noexcept
      : params_(params), rng_(seed, stream) {}

  /// Offers one message to the link: samples loss in the current state,
  /// then advances the chain.  Returns true when the message is lost.
  [[nodiscard]] bool offer() noexcept;

  [[nodiscard]] const GeParams& params() const noexcept { return params_; }

 private:
  GeParams params_{};
  util::RngStream rng_{0, 0};
  bool bad_ = false;
};

/// What kind of message a loss draw is for.  Each purpose draws from its
/// own per-link streams so loss models compose without interference.
enum class LossPurpose : std::uint8_t {
  kData = 0,     ///< data frames on ring links
  kSat = 1,      ///< SAT / SAT_REC hops (including cut-out re-addressing)
  kControl = 2,  ///< join handshake: NEXT_FREE / JOIN_REQ / JOIN_ACK
};
inline constexpr std::size_t kLossPurposeCount = 3;

[[nodiscard]] const char* to_string(LossPurpose purpose) noexcept;

/// Channel-wide defaults, one process parameterisation per purpose.
struct ChannelConfig {
  GeParams data;
  GeParams sat;
  GeParams control;

  [[nodiscard]] const GeParams& for_purpose(LossPurpose p) const noexcept {
    switch (p) {
      case LossPurpose::kData: return data;
      case LossPurpose::kSat: return sat;
      case LossPurpose::kControl: return control;
    }
    return data;
  }

  [[nodiscard]] bool any_enabled() const noexcept {
    return data.enabled() || sat.enabled() || control.enabled();
  }

  [[nodiscard]] util::Status validate() const;
};

/// The field of per-(purpose, directed link) Gilbert–Elliott processes an
/// engine draws from.  A link's process is created on its first offer or
/// handle(), so idle links cost nothing, and keeps its slot until the next
/// configure(): set_link_params and clear_link_params restart it in place.
/// An engine resolves the links it offers every slot to handles once and
/// then draws by index.  Per-link parameter overrides support the
/// FaultPlan's link-degrade events.
class LinkLossField {
 public:
  /// Index of one (purpose, directed link) process; valid until the next
  /// configure().
  using Handle = std::uint32_t;

  LinkLossField() = default;

  /// Installs channel defaults and the master seed.  Existing per-link
  /// state and every handle are discarded (call once at engine init).
  void configure(const ChannelConfig& config, std::uint64_t seed);

  /// Overrides `from -> to` for one purpose (FaultPlan link-degrade).  The
  /// link's process restarts in Good with the new parameters.
  void set_link_params(LossPurpose purpose, NodeId from, NodeId to,
                       const GeParams& params);

  /// Removes a per-link override; the link's process restarts under the
  /// channel default (link-heal).
  void clear_link_params(LossPurpose purpose, NodeId from, NodeId to);

  /// Overrides the undirected link a <-> b for every purpose: data frames,
  /// SAT/token hops and control messages degrade together, as a fading
  /// radio link would.  An engine that never offers a purpose never draws
  /// from its override.
  void degrade_pair(NodeId a, NodeId b, const GeParams& params);

  /// Removes a degrade_pair override in both directions and every purpose.
  void heal_pair(NodeId a, NodeId b);

  /// True when offers for this purpose can be lost anywhere.
  [[nodiscard]] bool enabled(LossPurpose purpose) const noexcept {
    const auto i = static_cast<std::size_t>(purpose);
    return default_enabled_[i] || !overrides_[i].empty();
  }

  /// The process of `from -> to` for one purpose, created as a first offer
  /// creates it (the link's override, else the channel default) when the
  /// link has none yet.  Creating a process makes no RNG draw.
  [[nodiscard]] Handle handle(LossPurpose purpose, NodeId from, NodeId to);

  /// Offers one message to the process behind `h`; true when it is lost.
  /// A process whose parameters cannot lose never does.
  [[nodiscard]] bool offer(Handle h) noexcept { return processes_[h].offer(); }

  /// Offers one message on `from -> to`; true when it is lost.  Makes no
  /// RNG draw when the purpose is entirely disabled.
  [[nodiscard]] bool offer(LossPurpose purpose, NodeId from, NodeId to) {
    return enabled(purpose) && offer(handle(purpose, from, to));
  }

 private:
  using LinkKey = std::uint64_t;
  [[nodiscard]] static LinkKey key(NodeId from, NodeId to) noexcept {
    return (static_cast<LinkKey>(from) << 32) | to;
  }
  [[nodiscard]] std::uint64_t stream_for(LossPurpose purpose, NodeId from,
                                         NodeId to) const noexcept;

  ChannelConfig config_{};
  std::uint64_t seed_ = 0;
  bool default_enabled_[kLossPurposeCount] = {false, false, false};
  util::FlatMap<LinkKey, GeParams> overrides_[kLossPurposeCount];
  util::FlatMap<LinkKey, Handle> handles_[kLossPurposeCount];
  std::vector<GeProcess> processes_;  ///< indexed by Handle
};

}  // namespace wrt::fault
