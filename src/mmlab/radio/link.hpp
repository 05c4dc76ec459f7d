// Link-level quantities: RSRP, RSRQ, SINR, and the layer-3 measurement
// filter (TS 36.331 §5.5.3.2) the UE applies before evaluating events.
#pragma once

#include <cstdint>
#include <vector>

#include "mmlab/radio/propagation.hpp"
#include "mmlab/util/rng.hpp"

namespace mmlab::radio {

/// Radio attributes of a transmitter as the channel model needs them.
struct Transmitter {
  std::uint32_t id = 0;       ///< cell identity (keys the shadowing field)
  geo::Point position;
  double tx_power_dbm = 15.0; ///< reference-signal power per resource element
  double freq_mhz = 2000.0;
};

/// RSRP (per-RE received power) at `ue` from `tx`.
double rsrp_dbm(const Transmitter& tx, geo::Point ue, const PathLossModel& pl,
                const ShadowingField& shadowing);

/// dBm -> mW.
double dbm_to_mw(double dbm);

/// Noise plus co-channel power per RE in mW: dbm_to_mw(kNoisePerReDbm),
/// then each interferer added in the given order.  The denominator of
/// sinr_db and the "others" term of rsrq_db; callers that sum the same
/// interferers themselves must add them in the same order, starting from
/// the noise term, to get the same bits.
double noise_plus_interference_mw(
    const std::vector<double>& interferer_rsrp_dbm);

/// Wideband SINR given serving per-RE power and co-channel interferer
/// per-RE powers (all dBm); noise per kNoisePerReDbm.
double sinr_db(double serving_rsrp_dbm,
               const std::vector<double>& interferer_rsrp_dbm);
/// sinr_db with the noise-plus-interference power already summed.
double sinr_db_mw(double serving_rsrp_dbm, double noise_interference_mw);

/// RSRQ from serving power and total co-channel power.  Uses the TS 36.214
/// definition N*RSRP/RSSI with a 50 %-loaded RSSI model, which lands values
/// in the familiar [-19.5, -3] window.
double rsrq_db(double serving_rsrp_dbm,
               const std::vector<double>& interferer_rsrp_dbm);
/// rsrq_db with the noise-plus-interference power already summed.
double rsrq_db_mw(double serving_rsrp_dbm, double noise_interference_mw);

/// Layer-3 exponential filter: F_n = (1-a) F_{n-1} + a M_n, a = 1/2^(k/4).
/// Default filter coefficient k = 4 gives a = 1/2.
class L3Filter {
 public:
  explicit L3Filter(int k = 4);

  /// Feed one raw sample, get the filtered value.
  double update(double sample);
  /// Filtered value; valid only after at least one update.
  double value() const { return value_; }
  bool initialized() const { return initialized_; }
  void reset();

 private:
  double a_;
  double value_ = 0.0;
  bool initialized_ = false;
};

/// AR(1) measurement perturbation reproducing the paper's observation that
/// ~3 dB of sample-to-sample dynamics is common even on a filtered series.
class MeasurementNoise {
 public:
  MeasurementNoise(std::uint64_t seed, double sigma_db, double rho = 0.8)
      : rng_(seed), sigma_db_(sigma_db), rho_(rho) {}

  double next() {
    state_ = rho_ * state_ +
             std::sqrt(1.0 - rho_ * rho_) * rng_.normal(0.0, sigma_db_);
    return state_;
  }

 private:
  Rng rng_;
  double sigma_db_;
  double rho_;
  double state_ = 0.0;
};

}  // namespace mmlab::radio
