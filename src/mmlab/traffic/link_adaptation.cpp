#include "mmlab/traffic/link_adaptation.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

namespace mmlab::traffic {

namespace {

// SINR (dB) at which each CQI becomes usable (10 % BLER switching points).
constexpr std::array<double, 16> kCqiSinrDb = {
    -9e9,  -6.7, -4.7, -2.3, 0.2, 2.4, 4.3, 5.9,
    8.1,   10.3, 11.7, 14.1, 16.3, 18.7, 21.0, 22.7};

// Spectral efficiency per CQI (bits/s/Hz), TS 36.213 Table 7.2.3-1.
constexpr std::array<double, 16> kCqiEfficiency = {
    0.0,    0.1523, 0.2344, 0.3770, 0.6016, 0.8770, 1.1758, 1.4766,
    1.9141, 2.4063, 2.7305, 3.3223, 3.9023, 4.5234, 5.1152, 5.5547};

constexpr double kPrbBandwidthHz = 180'000.0;
constexpr double kProtocolEfficiency = 0.86;  // CP + control overhead

}  // namespace

int cqi_from_sinr(double sinr_db) {
  int cqi = 0;
  for (int i = 1; i < 16; ++i)
    if (sinr_db >= kCqiSinrDb[i]) cqi = i;
  return cqi;
}

double spectral_efficiency(int cqi) {
  if (cqi < 0 || cqi > 15) return 0.0;
  return kCqiEfficiency[cqi];
}

double downlink_throughput_bps(double sinr_db, int bandwidth_prbs,
                               double load_factor) {
  const double se = spectral_efficiency(cqi_from_sinr(sinr_db));
  return se * kPrbBandwidthHz * bandwidth_prbs * kProtocolEfficiency *
         std::clamp(load_factor, 0.0, 1.0);
}

namespace {

std::vector<ThroughputSample>::const_iterator first_at_or_after(
    const std::vector<ThroughputSample>& samples, SimTime from) {
  return std::lower_bound(
      samples.begin(), samples.end(), from,
      [](const ThroughputSample& s, SimTime t) { return s.t < t; });
}

}  // namespace

double mean_throughput_bps(const std::vector<ThroughputSample>& samples,
                           SimTime from, SimTime to) {
  double sum = 0.0;
  std::size_t n = 0;
  for (auto it = first_at_or_after(samples, from);
       it != samples.end() && it->t < to; ++it) {
    sum += it->bps;
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

double min_binned_throughput_bps(const std::vector<ThroughputSample>& samples,
                                 SimTime from, SimTime to, Millis bin_ms) {
  if (bin_ms <= 0)
    throw std::invalid_argument("min_binned_throughput_bps: bin_ms <= 0");
  double best = -1.0;
  auto it = first_at_or_after(samples, from);
  while (it != samples.end() && it->t < to) {
    // The bin holding the next sample; the bins before it are empty.
    const SimTime bin = from + (it->t - from) / bin_ms * bin_ms;
    const SimTime end{std::min(bin.ms + bin_ms, to.ms)};
    double sum = 0.0;
    std::size_t n = 0;
    for (; it != samples.end() && it->t < end; ++it) {
      sum += it->bps;
      ++n;
    }
    const double m = sum / static_cast<double>(n);
    if (best < 0.0 || m < best) best = m;
  }
  return best < 0.0 ? 0.0 : best;
}

double mean_throughput_bps_reference(
    const std::vector<ThroughputSample>& samples, SimTime from, SimTime to) {
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& s : samples) {
    if (s.t >= from && s.t < to) {
      sum += s.bps;
      ++n;
    }
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

double min_binned_throughput_bps_reference(
    const std::vector<ThroughputSample>& samples, SimTime from, SimTime to,
    Millis bin_ms) {
  if (bin_ms <= 0)
    throw std::invalid_argument(
        "min_binned_throughput_bps_reference: bin_ms <= 0");
  double best = -1.0;
  for (SimTime bin = from; bin < to; bin += bin_ms) {
    const SimTime end{std::min(bin.ms + bin_ms, to.ms)};
    bool any = false;
    for (const auto& s : samples) {
      if (s.t >= bin && s.t < end) {
        any = true;
        break;
      }
    }
    if (!any) continue;
    const double m = mean_throughput_bps_reference(samples, bin, end);
    if (best < 0.0 || m < best) best = m;
  }
  return best < 0.0 ? 0.0 : best;
}

}  // namespace mmlab::traffic
