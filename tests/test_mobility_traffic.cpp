#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "mmlab/mobility/route.hpp"
#include "mmlab/traffic/apps.hpp"
#include "mmlab/util/rng.hpp"

namespace mmlab {
namespace {

using mobility::Route;
using mobility::Waypoint;

TEST(Route, RequiresTwoWaypoints) {
  EXPECT_THROW(Route::from_waypoints({{geo::Point{0, 0}, 10.0}}),
               std::invalid_argument);
}

TEST(Route, TimingFromSpeed) {
  // 1000 m at 10 m/s = 100 s.
  const auto route =
      Route::from_waypoints({{{0, 0}, 10.0}, {{1000, 0}, 10.0}});
  EXPECT_EQ(route.duration(), 100'000);
  EXPECT_DOUBLE_EQ(route.length_m(), 1000.0);
}

TEST(Route, PositionInterpolates) {
  const auto route =
      Route::from_waypoints({{{0, 0}, 10.0}, {{1000, 0}, 10.0}});
  const auto mid = route.position_at(50'000);
  EXPECT_NEAR(mid.x, 500.0, 1.0);
  EXPECT_DOUBLE_EQ(mid.y, 0.0);
}

TEST(Route, ClampsToEndpoints) {
  const auto route =
      Route::from_waypoints({{{0, 0}, 10.0}, {{100, 0}, 10.0}});
  EXPECT_EQ(route.position_at(-5), (geo::Point{0, 0}));
  EXPECT_EQ(route.position_at(10'000'000), (geo::Point{100, 0}));
}

TEST(Route, PerSegmentSpeeds) {
  // First leg at 10 m/s (10 s), second at 20 m/s (5 s).
  const auto route = Route::from_waypoints(
      {{{0, 0}, 10.0}, {{100, 0}, 20.0}, {{200, 0}, 20.0}});
  EXPECT_EQ(route.duration(), 15'000);
  EXPECT_NEAR(route.position_at(12'500).x, 150.0, 1.0);
}

TEST(Route, ManhattanStaysInCity) {
  geo::City city;
  city.origin = {1000, 2000};
  city.extent_m = 10'000;
  Rng rng(3);
  const auto route =
      mobility::manhattan_drive(rng, city, mobility::kph(40), 600'000);
  for (Millis t = 0; t <= route.duration(); t += 1000)
    EXPECT_TRUE(geo::contains(city, route.position_at(t))) << t;
}

TEST(Route, ManhattanUsesGridLegs) {
  geo::City city;
  city.origin = {0, 0};
  city.extent_m = 10'000;
  Rng rng(5);
  const auto route =
      mobility::manhattan_drive(rng, city, 10.0, 300'000, 500.0);
  for (std::size_t i = 1; i < route.waypoints().size(); ++i) {
    const auto a = route.waypoints()[i - 1].position;
    const auto b = route.waypoints()[i].position;
    // Axis-aligned legs on the 500 m grid.
    EXPECT_TRUE(a.x == b.x || a.y == b.y);
    EXPECT_NEAR(std::fmod(std::abs(b.x - a.x) + std::abs(b.y - a.y), 500.0),
                0.0, 1e-6);
  }
}

TEST(Route, HighwayIsStraight) {
  const auto route = mobility::highway_drive({0, 0}, {10'000, 0},
                                             mobility::kph(108));
  EXPECT_EQ(route.waypoints().size(), 2u);
  EXPECT_NEAR(static_cast<double>(route.duration()), 10'000 / 30.0 * 1000, 1.0);
}

TEST(Kph, Conversion) { EXPECT_NEAR(mobility::kph(36.0), 10.0, 1e-12); }

// --- traffic -----------------------------------------------------------------

using namespace traffic;

TEST(LinkAdaptation, CqiMonotone) {
  int prev = cqi_from_sinr(-20.0);
  for (double sinr = -15.0; sinr <= 30.0; sinr += 1.0) {
    const int cqi = cqi_from_sinr(sinr);
    EXPECT_GE(cqi, prev);
    prev = cqi;
  }
  EXPECT_EQ(cqi_from_sinr(-20.0), 0);
  EXPECT_EQ(cqi_from_sinr(30.0), 15);
}

TEST(LinkAdaptation, EfficiencyTable) {
  EXPECT_DOUBLE_EQ(spectral_efficiency(0), 0.0);
  EXPECT_NEAR(spectral_efficiency(15), 5.5547, 1e-4);
  EXPECT_DOUBLE_EQ(spectral_efficiency(-1), 0.0);
  EXPECT_DOUBLE_EQ(spectral_efficiency(16), 0.0);
}

TEST(LinkAdaptation, ThroughputScalesWithBandwidth) {
  const double t50 = downlink_throughput_bps(15.0, 50);
  const double t100 = downlink_throughput_bps(15.0, 100);
  EXPECT_NEAR(t100 / t50, 2.0, 1e-9);
}

TEST(LinkAdaptation, ZeroBelowCqi1) {
  EXPECT_DOUBLE_EQ(downlink_throughput_bps(-10.0, 50), 0.0);
}

TEST(LinkAdaptation, PeakRateSane) {
  // 100 PRB at peak CQI: ~86 Mbps with our overhead factor.
  const double peak = downlink_throughput_bps(30.0, 100);
  EXPECT_GT(peak, 80e6);
  EXPECT_LT(peak, 100e6);
}

TEST(LinkAdaptation, WindowedStats) {
  std::vector<ThroughputSample> samples;
  for (Millis t = 0; t < 1000; t += 100)
    samples.push_back({SimTime{t}, t < 500 ? 10e6 : 2e6});
  EXPECT_NEAR(mean_throughput_bps(samples, SimTime{0}, SimTime{1000}), 6e6,
              1e-6);
  EXPECT_NEAR(min_binned_throughput_bps(samples, SimTime{0}, SimTime{1000},
                                        100),
              2e6, 1e-6);
  EXPECT_DOUBLE_EQ(mean_throughput_bps(samples, SimTime{5000}, SimTime{6000}),
                   0.0);
}

TEST(LinkAdaptation, MinBinnedRejectsNonPositiveBin) {
  const std::vector<ThroughputSample> samples = {{SimTime{0}, 1e6}};
  for (Millis bin : {0, -1, -1'000}) {
    EXPECT_THROW(
        min_binned_throughput_bps(samples, SimTime{0}, SimTime{100}, bin),
        std::invalid_argument);
    EXPECT_THROW(min_binned_throughput_bps_reference(samples, SimTime{0},
                                                     SimTime{100}, bin),
                 std::invalid_argument);
  }
}

/// Time-ordered samples as the apps record them, with gaps (interruption
/// runs, coverage holes), repeated timestamps and irregular spacing.
std::vector<ThroughputSample> random_samples(Rng& rng) {
  std::vector<ThroughputSample> out;
  const auto n = static_cast<std::size_t>(rng.below(300));
  Millis t = rng.between(-2'000, 2'000);
  for (std::size_t i = 0; i < n; ++i) {
    switch (rng.below(8)) {
      case 0: t += rng.between(500, 5'000); break;  // a gap
      case 1: break;                                 // same timestamp
      case 2: t += rng.between(1, 99); break;
      default: t += 100; break;
    }
    const double bps = rng.chance(0.1) ? 0.0 : rng.uniform(0.0, 80e6);
    out.push_back({SimTime{t}, bps});
  }
  return out;
}

TEST(ThroughputWindows, FastMatchesReferenceOnRandomSamples) {
  Rng rng(2024);
  const Millis bins[] = {1, 7, 100, 250, 1'000, 3'333};
  for (int trial = 0; trial < 1'000; ++trial) {
    const auto samples = random_samples(rng);
    const Millis lo = samples.empty() ? 0 : samples.front().t.ms;
    const Millis hi = samples.empty() ? 0 : samples.back().t.ms;
    // Windows clipped on either side, inside, empty, inverted, and exact
    // sample timestamps.
    for (int w = 0; w < 6; ++w) {
      SimTime from{rng.between(lo - 3'000, hi + 1'000)};
      SimTime to{from.ms + (w == 1 ? rng.between(0, 400)
                                   : rng.between(-500, 12'000))};
      if (w == 0 && !samples.empty()) {
        from = samples[rng.below(samples.size())].t;
        to = samples[rng.below(samples.size())].t;
      }
      const double mean = mean_throughput_bps(samples, from, to);
      const double mean_ref = mean_throughput_bps_reference(samples, from, to);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(mean),
                std::bit_cast<std::uint64_t>(mean_ref))
          << "trial " << trial;
      for (Millis bin : bins) {
        if ((to.ms - from.ms) / bin > 500) continue;  // keep the oracle cheap
        const double got = min_binned_throughput_bps(samples, from, to, bin);
        const double want =
            min_binned_throughput_bps_reference(samples, from, to, bin);
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got),
                  std::bit_cast<std::uint64_t>(want))
            << "trial " << trial << " bin " << bin << " window [" << from.ms
            << ", " << to.ms << ")";
      }
    }
  }
}

TEST(Apps, SpeedtestTracksCapacity) {
  SpeedtestApp app;
  app.on_tick({SimTime{0}, 15.0, 50, false});
  app.on_tick({SimTime{100}, 15.0, 50, true});  // interrupted
  ASSERT_EQ(app.samples().size(), 2u);
  EXPECT_GT(app.samples()[0].bps, 0.0);
  EXPECT_DOUBLE_EQ(app.samples()[1].bps, 0.0);
}

TEST(Apps, ConstantRateCapped) {
  ConstantRateApp app(5e3);
  app.on_tick({SimTime{0}, 20.0, 100, false});
  EXPECT_DOUBLE_EQ(app.samples()[0].bps, 5e3);  // capacity far above rate
  app.on_tick({SimTime{100}, -10.0, 100, false});
  EXPECT_DOUBLE_EQ(app.samples()[1].bps, 0.0);  // no capacity
}

TEST(Apps, PingCadenceAndLoss) {
  PingApp app(5'000);
  for (Millis t = 0; t <= 20'000; t += 100) {
    const bool interrupted = t >= 10'000 && t < 10'200;
    app.on_tick({SimTime{t}, 10.0, 50, interrupted});
  }
  ASSERT_EQ(app.probes().size(), 5u);  // t = 0, 5 s, 10 s, 15 s, 20 s
  EXPECT_FALSE(app.probes()[0].lost);
  EXPECT_TRUE(app.probes()[2].lost);  // the probe at t=10 s hit the gap
  EXPECT_GT(app.probes()[0].rtt_ms, 0.0);
}

TEST(Apps, PingRttGrowsAtPoorSinr) {
  PingApp good(5'000), bad(5'000);
  good.on_tick({SimTime{0}, 20.0, 50, false});
  bad.on_tick({SimTime{0}, -2.0, 50, false});
  EXPECT_LT(good.probes()[0].rtt_ms, bad.probes()[0].rtt_ms);
}

}  // namespace
}  // namespace mmlab
