#include "fault/gilbert_elliott.hpp"

#include <algorithm>

namespace wrt::fault {

GeParams GeParams::bursty(double avg_loss, double mean_bad_dwell,
                          double loss_bad) noexcept {
  GeParams params;
  if (avg_loss <= 0.0 || loss_bad <= 0.0) return params;  // disabled
  params.loss_bad = std::min(loss_bad, 1.0);
  // Mean Bad dwell is geometric: E[dwell] = 1 / p_bad_to_good.
  const double dwell = std::max(mean_bad_dwell, 1.0);
  params.p_bad_to_good = 1.0 / dwell;
  // Stationary Bad occupancy pi_b must satisfy avg = pi_b * loss_bad
  // (Good is loss-free), and pi_b = p_gb / (p_gb + p_bg).
  const double pi_b = std::min(avg_loss / params.loss_bad, 0.999);
  params.p_good_to_bad =
      std::min(pi_b * params.p_bad_to_good / (1.0 - pi_b), 1.0);
  return params;
}

double GeParams::average_loss() const noexcept {
  if (p_good_to_bad <= 0.0) return loss_good;
  const double pi_b = p_good_to_bad / (p_good_to_bad + p_bad_to_good);
  return (1.0 - pi_b) * loss_good + pi_b * loss_bad;
}

util::Status GeParams::validate() const {
  if (p_good_to_bad < 0.0 || p_good_to_bad > 1.0 || p_bad_to_good < 0.0 ||
      p_bad_to_good > 1.0) {
    return util::Error::invalid_argument(
        "GE transition probabilities must be in [0, 1]");
  }
  if (loss_good < 0.0 || loss_good >= 1.0) {
    return util::Error::invalid_argument(
        "GE loss_good must be in [0, 1) — a link losing everything in its "
        "good state never delivers");
  }
  if (loss_bad < 0.0 || loss_bad > 1.0) {
    return util::Error::invalid_argument("GE loss_bad must be in [0, 1]");
  }
  if (p_good_to_bad > 0.0 && p_bad_to_good <= 0.0) {
    return util::Error::invalid_argument(
        "GE chain would trap in the bad state (p_bad_to_good = 0); model a "
        "dead link with Topology::fail_link instead");
  }
  return util::Status::success();
}

bool GeProcess::offer() noexcept {
  const double loss = bad_ ? params_.loss_bad : params_.loss_good;
  const bool lost = loss > 0.0 && rng_.bernoulli(loss);
  if (bad_) {
    if (rng_.bernoulli(params_.p_bad_to_good)) bad_ = false;
  } else if (params_.p_good_to_bad > 0.0 &&
             rng_.bernoulli(params_.p_good_to_bad)) {
    bad_ = true;
  }
  return lost;
}

const char* to_string(LossPurpose purpose) noexcept {
  switch (purpose) {
    case LossPurpose::kData: return "data";
    case LossPurpose::kSat: return "sat";
    case LossPurpose::kControl: return "control";
  }
  return "unknown";
}

util::Status ChannelConfig::validate() const {
  if (const auto status = data.validate(); !status.ok()) return status;
  if (const auto status = sat.validate(); !status.ok()) return status;
  return control.validate();
}

void LinkLossField::configure(const ChannelConfig& config,
                              std::uint64_t seed) {
  config_ = config;
  seed_ = seed;
  for (std::size_t i = 0; i < kLossPurposeCount; ++i) {
    overrides_[i].clear();
    processes_[i].clear();
  }
  default_enabled_[static_cast<std::size_t>(LossPurpose::kData)] =
      config.data.enabled();
  default_enabled_[static_cast<std::size_t>(LossPurpose::kSat)] =
      config.sat.enabled();
  default_enabled_[static_cast<std::size_t>(LossPurpose::kControl)] =
      config.control.enabled();
}

std::uint64_t LinkLossField::stream_for(LossPurpose purpose, NodeId from,
                                        NodeId to) const noexcept {
  // Distinct stream per (purpose, directed link): the purpose occupies the
  // top bits so data/SAT/control streams on the same link never collide.
  return (static_cast<std::uint64_t>(purpose) + 1) << 56 ^ key(from, to) ^
         0x6C055ULL;
}

void LinkLossField::set_link_params(LossPurpose purpose, NodeId from,
                                    NodeId to, const GeParams& params) {
  const auto i = static_cast<std::size_t>(purpose);
  const LinkKey k = key(from, to);
  overrides_[i][k] = params;
  // Restart the link's process under the new parameters (fresh Good state,
  // same per-link stream so the rest of the run stays deterministic).
  processes_[i][k] = GeProcess(params, seed_, stream_for(purpose, from, to));
}

void LinkLossField::clear_link_params(LossPurpose purpose, NodeId from,
                                      NodeId to) {
  const auto i = static_cast<std::size_t>(purpose);
  const LinkKey k = key(from, to);
  overrides_[i].erase(k);
  processes_[i].erase(k);  // rematerialised from defaults on next offer
}

void LinkLossField::degrade_pair(NodeId a, NodeId b, const GeParams& params) {
  for (std::size_t i = 0; i < kLossPurposeCount; ++i) {
    const auto purpose = static_cast<LossPurpose>(i);
    set_link_params(purpose, a, b, params);
    set_link_params(purpose, b, a, params);
  }
}

void LinkLossField::heal_pair(NodeId a, NodeId b) {
  for (std::size_t i = 0; i < kLossPurposeCount; ++i) {
    const auto purpose = static_cast<LossPurpose>(i);
    clear_link_params(purpose, a, b);
    clear_link_params(purpose, b, a);
  }
}

bool LinkLossField::offer(LossPurpose purpose, NodeId from, NodeId to) {
  const auto i = static_cast<std::size_t>(purpose);
  if (!default_enabled_[i] && overrides_[i].empty()) return false;
  const LinkKey k = key(from, to);
  auto it = processes_[i].find(k);
  if (it == processes_[i].end()) {
    const GeParams* params = &config_.for_purpose(purpose);
    if (const auto ov = overrides_[i].find(k); ov != overrides_[i].end()) {
      params = &ov->second;
    }
    if (!params->enabled()) return false;
    processes_[i][k] =
        GeProcess(*params, seed_, stream_for(purpose, from, to));
    it = processes_[i].find(k);
  }
  return it->second.offer();
}

}  // namespace wrt::fault
