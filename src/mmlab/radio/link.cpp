#include "mmlab/radio/link.hpp"

#include <cmath>

namespace mmlab::radio {

namespace {
double to_dbm(double mw) { return 10.0 * std::log10(mw); }
}  // namespace

double dbm_to_mw(double dbm) { return std::pow(10.0, dbm / 10.0); }

double rsrp_dbm(const Transmitter& tx, geo::Point ue, const PathLossModel& pl,
                const ShadowingField& shadowing) {
  const double d = geo::distance(tx.position, ue);
  return tx.tx_power_dbm - pl.loss_db(tx.freq_mhz, d) +
         shadowing.sample_db(tx.id, ue);
}

double noise_plus_interference_mw(
    const std::vector<double>& interferer_rsrp_dbm) {
  double sum = dbm_to_mw(kNoisePerReDbm);
  for (double i : interferer_rsrp_dbm) sum += dbm_to_mw(i);
  return sum;
}

double sinr_db(double serving_rsrp_dbm,
               const std::vector<double>& interferer_rsrp_dbm) {
  return sinr_db_mw(serving_rsrp_dbm,
                    noise_plus_interference_mw(interferer_rsrp_dbm));
}

double sinr_db_mw(double serving_rsrp_dbm, double noise_interference_mw) {
  return to_dbm(dbm_to_mw(serving_rsrp_dbm) / noise_interference_mw);
}

double rsrq_db(double serving_rsrp_dbm,
               const std::vector<double>& interferer_rsrp_dbm) {
  return rsrq_db_mw(serving_rsrp_dbm,
                    noise_plus_interference_mw(interferer_rsrp_dbm));
}

double rsrq_db_mw(double serving_rsrp_dbm, double noise_interference_mw) {
  // RSSI per RE with ~50 % subframe loading: the serving cell contributes
  // all 12 subcarriers on reference symbols but only half elsewhere.
  const double s = dbm_to_mw(serving_rsrp_dbm);
  const double others = noise_interference_mw;
  const double rssi_per_re = 0.5 * 12.0 * (s + others) + 0.5 * (s + others);
  const double rsrq = 10.0 * std::log10(s / rssi_per_re) + 10.0 * std::log10(1.0);
  // Clamp into the reportable window.
  return std::fmax(-19.5, std::fmin(-3.0, rsrq));
}

L3Filter::L3Filter(int k) : a_(1.0 / std::pow(2.0, static_cast<double>(k) / 4.0)) {}

double L3Filter::update(double sample) {
  if (!initialized_) {
    value_ = sample;
    initialized_ = true;
  } else {
    value_ = (1.0 - a_) * value_ + a_ * sample;
  }
  return value_;
}

void L3Filter::reset() {
  initialized_ = false;
  value_ = 0.0;
}

}  // namespace mmlab::radio
