// drive_campaign: the D1 batch job.  Each operation is one round of
// sim::run_campaign over the four US carriers (cities {0,2,4}, speedtest
// traffic) in the paper-scale world, the shape of the paper's drive tests.
// City drives only: a highway crossing runs several times longer than a
// city drive, so with them each campaign's time would be set by its single
// longest drive.  Equal drives keep the four worker threads evenly loaded.
// It is the only workload dominated by the ue event engine, radio and
// traffic: it writes diag logs but never parses them, and never touches the
// store.
#include <optional>

#include "bench.hpp"
#include "mmlab/netgen/generator.hpp"
#include "mmlab/sim/drive_test.hpp"

namespace mmbench {
namespace {

using namespace mmlab;

constexpr std::uint64_t kWorldSeed = 42;
constexpr double kWorldScale = 1.0;
constexpr int kSetupRepeats = 15;

struct RoundOutput {
  double seconds = 0.0;
  Samples campaigns;  ///< seconds of each carrier's campaign
  std::size_t handoffs = 0;
  Digest digest;  ///< drives, handoffs and throughput sums, per carrier
};

class DriveCampaign {
 public:
  DriveCampaign(const Args& args, Tracer& tracer)
      : args_(args), tracer_(tracer) {}

  double setup() {
    netgen::WorldOptions wopts;
    wopts.seed = kWorldSeed;
    wopts.scale = kWorldScale;
    world_.reset();
    const double s = time_call([&] {
      world_.emplace(traced(tracer_, "netgen.generate_world",
                            [&] { return netgen::generate_world(wopts); }));
    });
    carriers_.clear();
    for (const auto& c : world_->network.carriers())
      if (c.country == "US") carriers_.push_back(c.id);
    return s;
  }

  std::size_t carrier_count() const { return carriers_.size(); }

  sim::CampaignOptions options(net::CarrierId carrier, unsigned threads) const {
    sim::CampaignOptions o;
    o.seed = args_.seed * 0x9e3779b97f4a7c15ULL + carrier;
    o.carrier = carrier;
    o.workload = sim::Workload::kSpeedtest;
    o.cities = {0, 2, 4};
    o.city_drives_per_city = 4;
    o.highway_drives_per_city = 0;
    o.city_drive_duration = 40 * kMillisPerSecond;
    o.threads = threads;
    return o;
  }

  /// One campaign per US carrier.
  RoundOutput round(unsigned threads) {
    RoundOutput out;
    ScopedSpan span(tracer_, "bench.round");
    const auto t0 = Clock::now();
    for (const net::CarrierId carrier : carriers_) {
      sim::CampaignResult r;
      out.campaigns.add(time_call([&] {
        r = traced(tracer_, "sim.run_campaign", [&] {
          return sim::run_campaign(world_->network, options(carrier, threads));
        });
      }));
      out.handoffs += r.handoffs.size();
      out.digest.u64(r.drives);
      out.digest.u64(r.handoffs.size());
      out.digest.u64(r.handoff_failures);
      out.digest.u64(r.throughput_samples);
      out.digest.f64(r.throughput_sum_bps);
      out.digest.f64(r.total_km);
    }
    out.seconds = seconds_since(t0);
    return out;
  }

  /// Each city's index-0 drive of the round, run alone on one thread as a
  /// one-drive campaign (drive seeds depend only on city, kind and index).
  Samples single_drives() {
    Samples s;
    for (const net::CarrierId carrier : carriers_) {
      for (const geo::CityId city : options(carrier, 1).cities) {
        sim::CampaignOptions o = options(carrier, 1);
        o.cities = {city};
        o.city_drives_per_city = 1;
        s.add(time_call([&] {
          ScopedSpan span(tracer_, "sim.run_campaign");
          sim::run_campaign(world_->network, o);
        }));
      }
    }
    return s;
  }

 private:
  const Args& args_;
  Tracer& tracer_;
  std::optional<netgen::GeneratedWorld> world_;
  std::vector<net::CarrierId> carriers_;
};

}  // namespace

Report run_drive_campaign(const Args& args, Tracer& tracer) {
  Report report;
  DriveCampaign job(args, tracer);

  tracer.set_run(0);
  Samples setup;
  for (int i = 0; i < kSetupRepeats; ++i) setup.add(job.setup());
  if (!check(job.carrier_count() == 4, "world has the four US carriers"))
    report.operation(false);

  std::optional<std::uint64_t> first;
  auto account = [&](const RoundOutput& r) {
    if (!first) first = r.digest.value();
    report.operation(check(r.digest.value() == *first && r.handoffs > 0,
                           "campaign round is bit-identical"));
  };
  account(job.round(kThreads));  // warm-up, untimed

  const double budget = args.trace ? args.seconds / 2 : args.seconds;
  if (!args.trace) {
    Samples wall, campaigns;
    const auto deadline = deadline_after(budget);
    do {
      const RoundOutput r = job.round(kThreads);
      wall.add(r.seconds);
      campaigns.merge(r.campaigns);
      account(r);
    } while (Clock::now() < deadline);
    report.e2e["setup_s"] = setup.median();
    report.e2e["peak_rss_mb"] = peak_rss_mb();
    report.e2e["wall_ms"] = wall.median() * 1e3;
    report.name("setup_s", setup.median(), "s");
    report.name("peak_rss_mb", peak_rss_mb(), "MB");
    report.name("campaign_s", wall.median(), "s");
    report.name("carrier_campaign_p50_s", campaigns.median(), "s");
    report.name("rounds", static_cast<double>(wall.size()), "count");
    return report;
  }

  // Untraced rounds, then as many traced ones: the difference is the
  // tracing overhead.
  tracer.set_run(1);
  tracer.set_enabled(false);
  Samples plain;
  const auto deadline = deadline_after(budget);
  std::size_t handoffs = 0;
  do {
    const RoundOutput r = job.round(kThreads);
    plain.add(r.seconds);
    handoffs = r.handoffs;
    account(r);
  } while (Clock::now() < deadline);
  tracer.set_enabled(true);
  tracer.set_run(2);
  Samples traced_rounds;
  for (std::size_t i = 0; i < plain.size(); ++i) {
    const RoundOutput r = job.round(kThreads);
    traced_rounds.add(r.seconds);
    account(r);
  }
  report.layer["trace.overhead_s"] = traced_rounds.sum() - plain.sum();
  report.layer["trace.overhead_ratio"] =
      (traced_rounds.sum() - plain.sum()) / plain.sum();
  report.layer["sim.handoffs"] = static_cast<double>(handoffs);
  const auto self = tracer.layer_self_seconds(2);
  report.layer["sim.self_s"] =
      self.at("sim") / static_cast<double>(traced_rounds.size());

  tracer.set_run(3);
  const Samples drives = job.single_drives();
  report.layer["sim.drive_p50_s"] = drives.median();
  report.layer["sim.drive_max_s"] = drives.max();

  tracer.set_run(4);
  const RoundOutput serial = job.round(1);
  account(serial);
  report.layer["sim.campaign.speedup_4v1"] =
      serial.seconds / traced_rounds.median();
  const auto setup_self = tracer.layer_self_seconds(0);
  report.layer["netgen.self_s"] = setup_self.at("netgen") / kSetupRepeats;

  return report;
}

}  // namespace mmbench
