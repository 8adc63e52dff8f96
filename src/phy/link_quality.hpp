// Link-quality models: from geometry to packet error rate.
//
// The paper's analysis assumes an error-free channel; real indoor radios
// are not.  This module provides the standard log-distance path-loss /
// SNR / BER chain so experiments can derive a principled per-hop frame
// loss probability p (fed into the channel as
// `config.channel.data = fault::GeParams::iid(p)`) instead of picking
// magic numbers:
//
//   path loss  PL(d) = PL(d0) + 10 n log10(d / d0)          [dB]
//   SNR        = P_tx - PL(d) - noise_floor                 [dB]
//   BER        ~ Q(sqrt(2 SNR_linear))   (BPSK, AWGN)
//   PER        = 1 - (1 - BER)^bits
//
// The numbers are textbook indoor values; what matters to the MAC is the
// shape — PER rising steeply past a distance knee — which these reproduce.
#pragma once

#include <cstdint>

namespace wrt::phy {

struct LinkBudget {
  double tx_power_dbm = 0.0;      ///< typical low-power WLAN card
  double path_loss_d0_db = 40.0;  ///< loss at the 1 m reference distance
  double path_loss_exponent = 3.0;///< indoor with obstructions: 2.7-3.5
  double noise_floor_dbm = -90.0;
  std::uint32_t frame_bits = 1024;///< MAC frame size
};

/// Path loss in dB at `distance_m` (>= 0.1 m enforced).
[[nodiscard]] double path_loss_db(const LinkBudget& budget,
                                  double distance_m);

/// Signal-to-noise ratio in dB at the receiver.
[[nodiscard]] double snr_db(const LinkBudget& budget, double distance_m);

/// BPSK-over-AWGN bit error rate for the given SNR (in dB).
[[nodiscard]] double bpsk_ber(double snr_db_value);

/// Frame/packet error rate at `distance_m` for `budget.frame_bits` bits.
[[nodiscard]] double frame_error_rate(const LinkBudget& budget,
                                      double distance_m);

/// The distance at which PER crosses `target_per` (bisection); useful for
/// choosing radio ranges that match a loss budget.
[[nodiscard]] double distance_for_per(const LinkBudget& budget,
                                      double target_per);

}  // namespace wrt::phy
