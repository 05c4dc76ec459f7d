#include "mmlab/sim/drive_test.hpp"

#include <stdexcept>

#include "mmlab/util/worker_pool.hpp"

namespace mmlab::sim {

DriveTestResult run_drive_test(const net::Deployment& network,
                               const mobility::Route& route,
                               const DriveTestOptions& options) {
  if (options.tick_ms <= 0)
    throw std::invalid_argument("run_drive_test: tick_ms <= 0");
  ue::UeOptions ue_opts;
  ue_opts.seed = options.seed;
  ue_opts.carrier = options.carrier;
  ue_opts.band_support = options.band_support;
  ue_opts.active_mode = options.workload != Workload::kNone;
  ue_opts.log_radio_snapshots = true;
  ue::Ue device(network, ue_opts);

  traffic::SpeedtestApp speedtest;
  traffic::ConstantRateApp iperf(options.workload == Workload::kIperf5k
                                     ? 5e3
                                     : 1e6);
  traffic::PingApp ping;

  const Millis duration = route.duration();
  for (Millis t = 0; t <= duration; t += options.tick_ms) {
    const SimTime now = options.start_time + t;
    device.step(route.position_at(t), now);
    const auto& tick = device.link_tick();
    switch (options.workload) {
      case Workload::kSpeedtest: speedtest.on_tick(tick); break;
      case Workload::kIperf5k:
      case Workload::kIperf1M: iperf.on_tick(tick); break;
      case Workload::kPing: ping.on_tick(tick); break;
      case Workload::kNone: break;
    }
  }

  DriveTestResult result;
  result.handoffs = device.handoffs();
  result.handoff_failures = device.handoff_failures();
  switch (options.workload) {
    case Workload::kSpeedtest: result.throughput = speedtest.samples(); break;
    case Workload::kIperf5k:
    case Workload::kIperf1M: result.throughput = iperf.samples(); break;
    case Workload::kPing: result.probes = ping.probes(); break;
    case Workload::kNone: break;
  }
  result.diag_log = device.take_diag_log();
  result.radio_link_failures = device.radio_link_failures();
  result.route_length_m = route.length_m();
  result.duration = duration;
  return result;
}

std::vector<HandoffPerf> annotate_handoffs(const DriveTestResult& result) {
  std::vector<HandoffPerf> out;
  out.reserve(result.handoffs.size());
  // The recorded throughput span (samples are appended tick by tick, so the
  // vector is time-ordered).  Windows are clamped to it — see the
  // HandoffPerf contract; +1 ms makes the half-open end include the last
  // sample.
  const SimTime span_begin =
      result.throughput.empty() ? SimTime{0} : result.throughput.front().t;
  const SimTime span_end = result.throughput.empty()
                               ? SimTime{0}
                               : result.throughput.back().t + 1;
  for (const auto& rec : result.handoffs) {
    HandoffPerf hp;
    hp.rec = rec;
    if (!result.throughput.empty()) {
      SimTime before_from = rec.report_time - 10'000;
      if (before_from < span_begin) {
        before_from = span_begin;
        hp.before_window_truncated = true;
      }
      hp.min_thpt_before_bps = traffic::min_binned_throughput_bps(
          result.throughput, before_from, rec.report_time, 100);
      hp.min_thpt_before_1s_bps = traffic::min_binned_throughput_bps(
          result.throughput, before_from, rec.report_time, 1'000);
      const SimTime after_from = rec.exec_time + 100;
      SimTime after_to = rec.exec_time + 5'000;
      if (after_to > span_end) {
        after_to = span_end;
        hp.after_window_truncated = true;
      }
      hp.mean_thpt_after_bps =
          traffic::mean_throughput_bps(result.throughput, after_from, after_to);
    }
    out.push_back(hp);
  }
  return out;
}

namespace {

/// One campaign drive, fully annotated — the unit the fan-out parallelizes.
struct DriveOutcome {
  std::vector<HandoffPerf> handoffs;
  std::size_t radio_link_failures = 0;
  std::size_t handoff_failures = 0;
  double throughput_sum_bps = 0.0;
  std::size_t throughput_samples = 0;
  double km = 0.0;
};

DriveOutcome summarize_drive(const DriveTestResult& drive) {
  DriveOutcome out;
  out.handoffs = annotate_handoffs(drive);
  out.radio_link_failures = drive.radio_link_failures;
  out.handoff_failures = drive.handoff_failures.size();
  for (const auto& s : drive.throughput) out.throughput_sum_bps += s.bps;
  out.throughput_samples = drive.throughput.size();
  out.km = drive.route_length_m / 1000.0;
  return out;
}

DriveOutcome run_city_drive(const net::Deployment& network,
                            const CampaignOptions& options,
                            const Rng& campaign_rng, const geo::City& city,
                            int index) {
  Rng route_rng = campaign_rng.fork(0x1000u + city.id * 64u + index);
  const auto route = mobility::manhattan_drive(
      route_rng, city, mobility::kph(40), options.city_drive_duration);
  DriveTestOptions dopts;
  dopts.seed = route_rng.next_u64();
  dopts.carrier = options.carrier;
  dopts.workload = options.workload;
  dopts.band_support = options.band_support;
  return summarize_drive(run_drive_test(network, route, dopts));
}

DriveOutcome run_highway_drive(const net::Deployment& network,
                               const CampaignOptions& options,
                               const Rng& campaign_rng, const geo::City& city,
                               int index) {
  Rng route_rng = campaign_rng.fork(0x2000u + city.id * 64u + index);
  // Diagonal crossing at highway speed (90-120 km/h).
  const double inset = 0.05 * city.extent_m;
  const geo::Point a{city.origin.x + inset,
                     city.origin.y + inset +
                         route_rng.uniform(0.0, 0.3) * city.extent_m};
  const geo::Point b{city.origin.x + city.extent_m - inset,
                     city.origin.y + city.extent_m - inset -
                         route_rng.uniform(0.0, 0.3) * city.extent_m};
  const auto route = mobility::highway_drive(
      a, b, mobility::kph(route_rng.uniform(90.0, 120.0)));
  DriveTestOptions dopts;
  dopts.seed = route_rng.next_u64();
  dopts.carrier = options.carrier;
  dopts.workload = options.workload;
  dopts.band_support = options.band_support;
  return summarize_drive(run_drive_test(network, route, dopts));
}

}  // namespace

CampaignResult run_campaign(const net::Deployment& network,
                            const CampaignOptions& options) {
  // Plan: enumerate the (city × kind × index) drives in the serial order.
  // Cities are validated up front so an unknown id throws before any drive
  // runs, whatever the thread count.
  struct DriveJob {
    const geo::City* city;
    bool highway;
    int index;
  };
  std::vector<DriveJob> jobs;
  for (geo::CityId city_id : options.cities) {
    const geo::City* city = network.find_city(city_id);
    if (!city) throw std::invalid_argument("run_campaign: unknown city");
    for (int i = 0; i < options.city_drives_per_city; ++i)
      jobs.push_back({city, false, i});
    for (int i = 0; i < options.highway_drives_per_city; ++i)
      jobs.push_back({city, true, i});
  }

  // Execute: each drive is an independent job.  The campaign rng is never
  // advanced (fork is const), the network is only read, and every job
  // writes its own pre-allocated slot.
  const Rng campaign_rng(options.seed);
  std::vector<DriveOutcome> outcomes(jobs.size());
  parallel_for_index(options.threads, jobs.size(), [&](std::size_t j) {
    const DriveJob& job = jobs[j];
    outcomes[j] = job.highway
                      ? run_highway_drive(network, options, campaign_rng,
                                          *job.city, job.index)
                      : run_city_drive(network, options, campaign_rng,
                                       *job.city, job.index);
  });

  // Fold in job (= serial drive) order, so the pooled handoff list and the
  // floating-point km accumulation match the single-threaded walk exactly.
  CampaignResult result;
  for (auto& outcome : outcomes) {
    for (auto& hp : outcome.handoffs) result.handoffs.push_back(hp);
    result.radio_link_failures += outcome.radio_link_failures;
    result.handoff_failures += outcome.handoff_failures;
    result.throughput_sum_bps += outcome.throughput_sum_bps;
    result.throughput_samples += outcome.throughput_samples;
    result.total_km += outcome.km;
    ++result.drives;
  }
  return result;
}

}  // namespace mmlab::sim
