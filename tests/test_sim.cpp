#include <gtest/gtest.h>

#include "mmlab/sim/crawl.hpp"
#include "mmlab/sim/drive_test.hpp"
#include "test_helpers.hpp"

namespace mmlab::sim {
namespace {

TEST(DriveTest, SpeedtestProducesHandoffsAndThroughput) {
  auto net = test::two_cell_corridor(test::a3_event(3.0));
  const auto route = mobility::highway_drive({0, 0}, {2000, 0}, 15.0);
  DriveTestOptions opts;
  opts.seed = 3;
  const auto result = run_drive_test(net, route, opts);
  EXPECT_GE(result.handoffs.size(), 1u);
  EXPECT_FALSE(result.throughput.empty());
  EXPECT_FALSE(result.diag_log.empty());
  EXPECT_GT(result.route_length_m, 1999.0);
  // Throughput samples cover the whole drive at tick cadence.
  EXPECT_NEAR(static_cast<double>(result.throughput.size()),
              static_cast<double>(result.duration / 100 + 1), 2.0);
}

TEST(DriveTest, RejectsNonPositiveTick) {
  auto net = test::two_cell_corridor(test::a3_event(3.0));
  const auto route = mobility::highway_drive({0, 0}, {2000, 0}, 15.0);
  DriveTestOptions opts;
  for (Millis tick : {0, -100}) {
    opts.tick_ms = tick;
    EXPECT_THROW(run_drive_test(net, route, opts), std::invalid_argument);
  }
}

TEST(DriveTest, IdleDriveHasNoThroughput) {
  auto net = test::two_cell_corridor(test::a3_event(3.0));
  const auto route = mobility::highway_drive({0, 0}, {2000, 0}, 15.0);
  DriveTestOptions opts;
  opts.workload = Workload::kNone;
  const auto result = run_drive_test(net, route, opts);
  EXPECT_TRUE(result.throughput.empty());
  EXPECT_GE(result.handoffs.size(), 1u);
  EXPECT_FALSE(result.handoffs[0].active_state);
}

TEST(DriveTest, PingWorkloadCollectsProbes) {
  auto net = test::two_cell_corridor(test::a3_event(3.0));
  const auto route = mobility::highway_drive({0, 0}, {2000, 0}, 15.0);
  DriveTestOptions opts;
  opts.workload = Workload::kPing;
  const auto result = run_drive_test(net, route, opts);
  // ~133 s drive, one probe per 5 s.
  EXPECT_GE(result.probes.size(), 20u);
  EXPECT_TRUE(result.throughput.empty());
}

TEST(DriveTest, IperfRateCapRespected) {
  auto net = test::two_cell_corridor(test::a3_event(3.0));
  const auto route = mobility::highway_drive({0, 0}, {2000, 0}, 15.0);
  DriveTestOptions opts;
  opts.workload = Workload::kIperf5k;
  const auto result = run_drive_test(net, route, opts);
  for (const auto& s : result.throughput) EXPECT_LE(s.bps, 5e3 + 1.0);
}

TEST(DriveTest, AnnotateComputesPreHandoffMinimum) {
  auto net = test::two_cell_corridor(test::a3_event(3.0));
  const auto route = mobility::highway_drive({0, 0}, {2000, 0}, 15.0);
  DriveTestOptions opts;
  opts.seed = 5;
  const auto result = run_drive_test(net, route, opts);
  const auto annotated = annotate_handoffs(result);
  ASSERT_EQ(annotated.size(), result.handoffs.size());
  for (const auto& hp : annotated) {
    EXPECT_GT(hp.min_thpt_before_bps, 0.0);
    EXPECT_GT(hp.mean_thpt_after_bps, 0.0);
    // The pre-handoff minimum is a minimum: no larger than the mean after
    // a successful handoff to a stronger cell in this clean corridor.
    EXPECT_LE(hp.min_thpt_before_bps, hp.mean_thpt_after_bps * 1.5);
  }
}

TEST(DriveTest, LateHandoffHurtsMinThroughput) {
  auto net_early = test::two_cell_corridor(test::a3_event(3.0, 320, 0.5));
  auto net_late = test::two_cell_corridor(test::a3_event(12.0, 320, 0.5));
  const auto route = mobility::highway_drive({0, 0}, {2000, 0}, 15.0);
  double early_min = 0.0, late_min = 0.0;
  int early_n = 0, late_n = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    DriveTestOptions opts;
    opts.seed = seed;
    for (const auto& hp : annotate_handoffs(run_drive_test(net_early, route, opts))) {
      early_min += hp.min_thpt_before_bps;
      ++early_n;
    }
    for (const auto& hp : annotate_handoffs(run_drive_test(net_late, route, opts))) {
      late_min += hp.min_thpt_before_bps;
      ++late_n;
    }
  }
  ASSERT_GT(early_n, 0);
  ASSERT_GT(late_n, 0);
  // The paper's Fig 7/8 shape: ∆A3 = 12 dB collapses pre-handoff throughput
  // versus ∆A3 = 3-5 dB.
  EXPECT_LT(late_min / late_n, (early_min / early_n) * 0.7);
}

TEST(Campaign, PoolsDrivesAcrossCities) {
  netgen::WorldOptions wopts;
  wopts.seed = 3;
  wopts.scale = 0.05;
  auto world = netgen::generate_world(wopts);
  CampaignOptions opts;
  opts.carrier = 0;
  opts.cities = {2};  // Indianapolis
  opts.city_drives_per_city = 1;
  opts.highway_drives_per_city = 1;
  opts.city_drive_duration = 5 * kMillisPerMinute;
  const auto result = run_campaign(world.network, opts);
  EXPECT_EQ(result.drives, 2u);
  EXPECT_GT(result.total_km, 5.0);
}

TEST(Crawl, CoversEveryCell) {
  netgen::WorldOptions wopts;
  wopts.seed = 5;
  wopts.scale = 0.02;
  auto world = netgen::generate_world(wopts);
  CrawlOptions copts;
  const auto result = run_crawl(world, copts);
  EXPECT_EQ(result.logs.size(), 30u);
  EXPECT_GE(result.total_camps, world.network.cells().size());
  std::size_t bytes = 0;
  for (const auto& log : result.logs) bytes += log.diag_log.size();
  EXPECT_GT(bytes, 0u);
}

TEST(Crawl, Deterministic) {
  netgen::WorldOptions wopts;
  wopts.seed = 5;
  wopts.scale = 0.01;
  auto world1 = netgen::generate_world(wopts);
  auto world2 = netgen::generate_world(wopts);
  CrawlOptions copts;
  const auto r1 = run_crawl(world1, copts);
  const auto r2 = run_crawl(world2, copts);
  ASSERT_EQ(r1.logs.size(), r2.logs.size());
  for (std::size_t i = 0; i < r1.logs.size(); ++i)
    EXPECT_EQ(r1.logs[i].diag_log, r2.logs[i].diag_log);
}

}  // namespace
}  // namespace mmlab::sim
