// Type-II measurements (paper §4): drive a UE along a route with a workload
// and record handoffs, throughput and the device diag log — dataset D1.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "mmlab/mobility/route.hpp"
#include "mmlab/net/deployment.hpp"
#include "mmlab/traffic/apps.hpp"
#include "mmlab/ue/ue.hpp"

namespace mmlab::sim {

enum class Workload {
  kNone,       ///< idle drive (idle-state handoffs only)
  kSpeedtest,  ///< continuous full-buffer download
  kIperf5k,    ///< constant-rate 5 kbps
  kIperf1M,    ///< constant-rate 1 Mbps
  kPing,       ///< ping every 5 s
};

struct DriveTestOptions {
  std::uint64_t seed = 1;
  net::CarrierId carrier = 0;
  Workload workload = Workload::kSpeedtest;
  spectrum::BandSupport band_support = spectrum::BandSupport::all();
  Millis tick_ms = 100;
  SimTime start_time{0};
};

struct DriveTestResult {
  std::vector<ue::HandoffRecord> handoffs;
  std::vector<std::pair<SimTime, ue::HandoffFailure>> handoff_failures;
  std::vector<traffic::ThroughputSample> throughput;  ///< empty for kPing/kNone
  std::vector<traffic::PingApp::Probe> probes;        ///< kPing only
  std::vector<std::uint8_t> diag_log;
  std::size_t radio_link_failures = 0;
  double route_length_m = 0.0;
  Millis duration = 0;
};

/// Throws std::invalid_argument when options.tick_ms <= 0.
DriveTestResult run_drive_test(const net::Deployment& network,
                               const mobility::Route& route,
                               const DriveTestOptions& options);

/// A handoff annotated with its local performance context (Fig 7-9).
///
/// Window contract at route boundaries: the nominal windows — 10 s before
/// the decisive report, [exec+100 ms, exec+5 s) after execution — are
/// CLAMPED to the drive's recorded throughput span.  A clamped window keeps
/// its numeric value (computed over the intersection; an empty intersection
/// yields 0.0 bps, the historical sentinel) and raises the matching
/// *_truncated flag, so consumers that need full-window statistics (CDFs of
/// pre-handoff minima, for instance) can filter instead of silently mixing
/// 2 s-deep minima from a drive's first handoff with true 10 s minima.
struct HandoffPerf {
  ue::HandoffRecord rec;
  /// Minimum 100 ms-binned throughput in the 10 s before the decisive
  /// report — the paper's Fig 7 fine-grained metric.
  double min_thpt_before_bps = 0.0;
  /// Same with 1 s bins (the paper's Fig 8 metric; robust to the 50 ms
  /// execution gap and momentary fades).
  double min_thpt_before_1s_bps = 0.0;
  /// Mean throughput in the 5 s after execution.
  double mean_thpt_after_bps = 0.0;
  /// The before-window started before the drive's first throughput sample
  /// and was clamped (early handoff): the minima above cover < 10 s.
  bool before_window_truncated = false;
  /// The after-window ran past the drive's last throughput sample and was
  /// clamped (handoff near the route end): the mean covers < 4.9 s.
  bool after_window_truncated = false;
};

std::vector<HandoffPerf> annotate_handoffs(const DriveTestResult& result);

/// A batch of drives: several city drives plus highway crossings in the
/// given cities, mirroring the paper's D1 collection.
struct CampaignOptions {
  std::uint64_t seed = 1;
  net::CarrierId carrier = 0;
  Workload workload = Workload::kSpeedtest;
  std::vector<geo::CityId> cities = {0, 2, 4};  ///< paper: 3 US cities
  int city_drives_per_city = 4;
  int highway_drives_per_city = 2;
  Millis city_drive_duration = 20 * kMillisPerMinute;
  spectrum::BandSupport band_support = spectrum::BandSupport::all();
  /// Worker threads for the drive fan-out: 0 = one per hardware thread,
  /// 1 = run the drives inline.  The result is bit-identical for every
  /// value (see run_campaign).
  unsigned threads = 0;
};

struct CampaignResult {
  std::vector<HandoffPerf> handoffs;  ///< annotated, all drives pooled
  std::size_t drives = 0;
  double total_km = 0.0;
  std::size_t radio_link_failures = 0;
  std::size_t handoff_failures = 0;  ///< decisions that produced no switch
  /// Campaign-wide throughput aggregate (the optimizer's objective input):
  /// sum and count of every per-tick throughput sample across all drives,
  /// folded in serial drive order so the double sum is bit-identical for
  /// every thread count.  Zero for workloads without throughput samples.
  double throughput_sum_bps = 0.0;
  std::size_t throughput_samples = 0;

  double mean_throughput_bps() const {
    return throughput_samples == 0
               ? 0.0
               : throughput_sum_bps / static_cast<double>(throughput_samples);
  }
};

/// Runs every (city × drive) of the campaign as an independent WorkerPool
/// job.  Each drive derives its route and UE seeds from Rng::fork of the
/// campaign seed with a (city, kind, index) salt — never from a shared
/// advancing stream — and writes into a pre-allocated per-job slot; the
/// slots are folded in the serial drive order afterwards.  The network is
/// only read.  Together that makes the CampaignResult (handoff annotations,
/// km totals, failure counts) bit-identical for every thread count, the
/// same contract as sim::run_crawl (pinned by the CampaignParallel suite).
CampaignResult run_campaign(const net::Deployment& network,
                            const CampaignOptions& options);

}  // namespace mmlab::sim
