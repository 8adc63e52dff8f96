// Slotted CDMA channel model.
//
// Reproduces Figure 1 of the paper: within one TDMA slot, any number of
// stations may transmit simultaneously; a listener tuned to code c decodes
// exactly the transmissions spread with c that reach it.  Two or more
// same-code transmissions arriving at one listener in the same slot collide
// and destroy each other (this is what happens "if CDMA would not be used",
// and what a broken code assignment produces).  Per-slot operation:
//
//     channel.begin_slot(now);
//     channel.transmit(sender, code, payload);   // any number of calls
//     channel.end_slot();                        // resolves receptions
//     for (auto& rx : channel.receptions(node)) ...
//
// The channel is templated on the payload so each MAC keeps its own frame
// type; the interference logic only depends on topology and codes.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "phy/topology.hpp"
#include "util/types.hpp"

namespace wrt::cdma {

template <typename Payload>
class Channel {
 public:
  struct Reception {
    NodeId sender = kInvalidNode;
    CdmaCode code = kInvalidCode;
    Payload payload{};
  };

  explicit Channel(const phy::Topology* topology) : topology_(topology) {}

  /// Registers the codes `node` listens on (its own receive code plus the
  /// broadcast code, normally).  Replaces any previous registration.
  void set_listen_codes(NodeId node, std::vector<CdmaCode> codes) {
    if (node >= listeners_.size()) listeners_.resize(node + 1);
    listeners_[node] = std::move(codes);
  }

  void begin_slot(Tick now) {
    now_ = now;
    transmissions_.clear();
    for (auto& bucket : receptions_) bucket.clear();
  }

  /// `sender` spreads `payload` with `code` this slot.
  void transmit(NodeId sender, CdmaCode code, Payload payload) {
    transmissions_.push_back({sender, code, std::move(payload)});
  }

  /// Resolves all receptions for the current slot.  Returns the number of
  /// code collisions observed (same-code frames overlapping at a listener).
  std::size_t end_slot() {
    if (receptions_.size() < listeners_.size()) {
      receptions_.resize(listeners_.size());
    }
    std::size_t collisions = 0;
    for (NodeId node = 0; node < listeners_.size(); ++node) {
      if (listeners_[node].empty() || !topology_->alive(node)) continue;
      for (const CdmaCode code : listeners_[node]) {
        const Reception* heard = nullptr;
        bool collided = false;
        for (const auto& tx : transmissions_) {
          if (tx.code != code) continue;
          if (!topology_->reachable(tx.sender, node)) continue;
          if (heard != nullptr) {
            collided = true;
            break;
          }
          heard = &tx;
        }
        if (collided) {
          ++collisions;
          total_collisions_ += 1;
        } else if (heard != nullptr) {
          receptions_[node].push_back(*heard);
          total_deliveries_ += 1;
        }
      }
    }
    return collisions;
  }

  /// Frames successfully decoded by `node` in the slot just ended.
  [[nodiscard]] const std::vector<Reception>& receptions(NodeId node) const {
    static const std::vector<Reception> kEmpty;
    return node < receptions_.size() ? receptions_[node] : kEmpty;
  }

  [[nodiscard]] std::uint64_t total_collisions() const noexcept {
    return total_collisions_;
  }
  [[nodiscard]] std::uint64_t total_deliveries() const noexcept {
    return total_deliveries_;
  }
  [[nodiscard]] Tick now() const noexcept { return now_; }

 private:
  const phy::Topology* topology_;
  Tick now_ = 0;
  std::vector<Reception> transmissions_;
  std::vector<std::vector<Reception>> receptions_;
  std::vector<std::vector<CdmaCode>> listeners_;
  std::uint64_t total_collisions_ = 0;
  std::uint64_t total_deliveries_ = 0;
};

}  // namespace wrt::cdma
