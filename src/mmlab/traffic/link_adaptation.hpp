// Downlink link adaptation: SINR -> CQI -> spectral efficiency -> throughput.
//
// The paper's Type-II experiments measure how configured handoff timing maps
// into user throughput; what matters is the monotone collapse of capacity as
// the serving signal decays before a (late) handoff.  We use the TS 36.213
// Table 7.2.3-1 CQI ladder with the conventional SINR switching points and
// an 86 % protocol-efficiency factor.
#pragma once

#include <vector>

#include "mmlab/util/clock.hpp"

namespace mmlab::traffic {

/// CQI index 0..15 for a wideband SINR. CQI 0 = out of range (no service).
int cqi_from_sinr(double sinr_db);

/// Spectral efficiency (bits/s/Hz) of a CQI index, TS 36.213 Table 7.2.3-1.
double spectral_efficiency(int cqi);

/// Physical-layer downlink throughput in bits/s over `bandwidth_prbs` PRBs
/// (180 kHz each), scaled by scheduler share `load_factor` in (0, 1].
double downlink_throughput_bps(double sinr_db, int bandwidth_prbs,
                               double load_factor = 1.0);

/// One throughput observation.
struct ThroughputSample {
  SimTime t;
  double bps = 0.0;
};

/// Average of samples whose timestamp falls in [from, to); 0 when none
/// does.  `samples` must be ordered by time (ties allowed), as the apps
/// record them: a binary search finds `from` and one pass sums the window.
double mean_throughput_bps(const std::vector<ThroughputSample>& samples,
                           SimTime from, SimTime to);

/// Minimum of per-bin mean throughput over `bin_ms` bins within [from, to) —
/// the paper's "minimum throughput before handoff" metric (Fig 8).  Bins
/// start at from, from + bin_ms, ...; the last one ends at `to`; bins with
/// no sample are skipped; 0 when every bin is empty.  `samples` must be
/// ordered by time; one pass over the window, O(log n + window samples).
/// Throws std::invalid_argument when bin_ms <= 0.
double min_binned_throughput_bps(const std::vector<ThroughputSample>& samples,
                                 SimTime from, SimTime to, Millis bin_ms);

/// The original full scans, for any sample order: the test oracles.  On
/// time-ordered samples they return the same bits as the functions above.
double mean_throughput_bps_reference(
    const std::vector<ThroughputSample>& samples, SimTime from, SimTime to);
double min_binned_throughput_bps_reference(
    const std::vector<ThroughputSample>& samples, SimTime from, SimTime to,
    Millis bin_ms);

}  // namespace mmlab::traffic
