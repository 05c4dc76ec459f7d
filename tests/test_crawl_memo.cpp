// Oracle for the crawl's camp-frame memo (DESIGN.md §8): sim::run_crawl
// encodes each cell's broadcast and measConfig once per configuration and
// logs later camps from those bytes.  Its logs must equal, byte for byte, a
// reference walk that re-encodes everything on every camp through the
// unmemoized Ue::force_camp — on the default world, under heavy
// reconfiguration (where a stale entry would show) and on a world with
// non-dense, interleaved carrier ids, at one and four threads.  A golden
// CRC-16 pins the logs of a small world as the engine wrote them before the
// memo existed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "mmlab/netgen/generator.hpp"
#include "mmlab/netgen/profile.hpp"
#include "mmlab/sim/crawl.hpp"
#include "mmlab/ue/broadcast.hpp"
#include "mmlab/ue/ue.hpp"
#include "mmlab/util/crc.hpp"
#include "test_helpers.hpp"

namespace mmlab::sim {
namespace {

// run_crawl's visit-round draw, restated so the reference walk plans the
// same visits from the same Rng stream.
int draw_rounds(Rng& rng, double mean_rounds) {
  if (rng.chance(0.52)) return 1;
  const double remaining_mean = (mean_rounds - 0.52) / 0.48;
  const double p = 1.0 / std::max(1.5, remaining_mean - 1.0);
  int n = 2;
  while (n < 24 && rng.chance(1.0 - p)) ++n;
  return n;
}

// One carrier at a time, every camp encoded afresh.
CrawlResult reference_crawl(netgen::GeneratedWorld& world,
                            const CrawlOptions& options) {
  const auto& network = world.network;
  Rng rng(options.seed);
  std::vector<std::pair<double, std::uint32_t>> visits;
  for (std::uint32_t i = 0; i < network.cells().size(); ++i) {
    const int rounds = draw_rounds(rng, options.mean_rounds);
    for (int r = 0; r < rounds; ++r)
      visits.emplace_back(rng.uniform(0.0, world.options.window_days), i);
  }
  std::sort(visits.begin(), visits.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  CrawlResult result;
  for (std::size_t pos = 0; pos < network.carriers().size(); ++pos) {
    const net::Carrier& carrier = network.carriers()[pos];
    ue::UeOptions opts;
    opts.seed = rng.fork(carrier.id).next_u64();
    opts.carrier = carrier.id;
    opts.active_mode = true;
    ue::Ue crawler(network, opts);
    std::vector<std::size_t> next_update(network.cells().size(), 0);
    for (const auto& [day, index] : visits) {
      const net::Cell& cell = network.cells()[index];
      if (network.carrier_position(cell.carrier) != pos) continue;
      const auto& schedule = world.update_schedule[index];
      auto& cursor = next_update[index];
      for (; cursor < schedule.size() && schedule[cursor].day <= day; ++cursor)
        netgen::apply_config_update(world, index, schedule[cursor]);
      crawler.force_camp(cell, cell.position, SimTime::from_days(day));
      ++result.total_camps;
    }
    result.logs.push_back({carrier.id, carrier.acronym,
                           crawler.take_diag_log()});
  }
  return result;
}

void expect_same_crawl(const CrawlResult& want, const CrawlResult& got) {
  EXPECT_EQ(want.total_camps, got.total_camps);
  ASSERT_EQ(want.logs.size(), got.logs.size());
  for (std::size_t i = 0; i < want.logs.size(); ++i) {
    EXPECT_EQ(want.logs[i].carrier, got.logs[i].carrier);
    EXPECT_EQ(want.logs[i].acronym, got.logs[i].acronym);
    EXPECT_EQ(want.logs[i].diag_log, got.logs[i].diag_log) << "carrier " << i;
  }
}

netgen::GeneratedWorld small_world() {
  netgen::WorldOptions wopts;
  wopts.seed = 11;
  wopts.scale = 0.02;
  return netgen::generate_world(wopts);
}

// Every cell reconfigures six times, alternating SIB and measConfig
// redraws, so most revisits find their cached frames stale.
netgen::GeneratedWorld heavy_reconfiguration_world() {
  auto world = small_world();
  for (std::size_t i = 0; i < world.update_schedule.size(); ++i) {
    auto& schedule = world.update_schedule[i];
    schedule.clear();
    for (int k = 0; k < 6; ++k)
      schedule.push_back({5.0 + 80.0 * k + 0.01 * static_cast<double>(i),
                          (static_cast<std::size_t>(k) + i) % 2 == 0});
  }
  return world;
}

// Carrier ids 7 and 3 (non-dense, not in id order), cells alternating
// between them, each cell reconfigured twice.
netgen::GeneratedWorld interleaved_world() {
  netgen::GeneratedWorld world;
  world.options.seed = 9;
  world.options.window_days = 540.0;
  auto& net = world.network;
  net.set_shadowing(3, 0.0, 50.0);
  net.add_carrier({7, "CarrierSeven", "S", "US"});
  net.add_carrier({3, "CarrierThree", "T", "US"});
  geo::City city{.id = 0,
                 .name = "Testville",
                 .code = "T0",
                 .country = "US",
                 .origin = {-1000, -1000},
                 .extent_m = 8000};
  net.add_city(city);
  for (std::uint32_t i = 0; i < 12; ++i)
    net.add_cell(test::lte_cell(
        100 + i, (i % 2 == 0) ? 7 : 3,
        {static_cast<double>(i) * 400.0, (i % 2 == 0) ? 0.0 : 300.0}, 850,
        test::basic_lte_config()));
  world.update_schedule.assign(net.cells().size(), {});
  for (std::size_t i = 0; i < net.cells().size(); ++i)
    world.update_schedule[i] = {{30.0 + static_cast<double>(i), i % 2 == 0},
                                {200.0 + static_cast<double>(i), i % 3 == 0}};
  const auto& profiles = netgen::standard_carrier_profiles();
  world.profiles = {&profiles[0], &profiles[1]};
  return world;
}

// run_crawl mutates its world, so every run gets a fresh one.
template <typename MakeWorld>
void expect_memo_matches_reference(MakeWorld make_world, CrawlOptions copts) {
  auto reference_world = make_world();
  const auto want = reference_crawl(reference_world, copts);
  ASSERT_GT(want.total_camps, 0u);
  for (unsigned threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    copts.threads = threads;
    auto world = make_world();
    expect_same_crawl(want, run_crawl(world, copts));
  }
}

TEST(CrawlParallel, MemoMatchesReferenceWalkDefaultWorld) {
  expect_memo_matches_reference(small_world, CrawlOptions{});
}

TEST(CrawlParallel, MemoMatchesReferenceWalkHeavyReconfiguration) {
  expect_memo_matches_reference(heavy_reconfiguration_world, CrawlOptions{});
}

TEST(CrawlParallel, MemoMatchesReferenceWalkInterleavedCarriers) {
  CrawlOptions copts;
  copts.mean_rounds = 4.0;
  expect_memo_matches_reference(interleaved_world, copts);
}

// The logs of small_world() under the default options, as the engine wrote
// them when every camp was encoded afresh.
TEST(CrawlParallel, GoldenLogCrc) {
  for (unsigned threads : {1u, 4u}) {
    auto world = small_world();
    CrawlOptions copts;
    copts.threads = threads;
    const auto result = run_crawl(world, copts);
    std::uint16_t state = kCrc16CcittInit;
    std::size_t bytes = 0;
    for (const auto& log : result.logs) {
      state = crc16_ccitt_update(state, log.diag_log.data(),
                                 log.diag_log.size());
      bytes += log.diag_log.size();
    }
    EXPECT_EQ(result.total_camps, 1960u);
    EXPECT_EQ(bytes, 329485u);
    EXPECT_EQ(crc16_ccitt_finalize(state), 0x5C44);
  }
}

// A prebuilt frame set logs what a fresh encode logs, for an idle UE (the
// broadcast only) and an active one (plus the measConfig), on LTE and
// legacy cells alike.
TEST(CampFrames, ForceCampMatchesFreshEncode) {
  const auto world = small_world();
  const auto& network = world.network;
  std::size_t legacy = 0;
  for (bool active : {false, true}) {
    ue::UeOptions opts;
    opts.active_mode = active;
    ue::Ue fresh(network, opts);
    ue::Ue prebuilt(network, opts);
    for (std::size_t i = 0; i < network.cells().size(); i += 7) {
      const net::Cell& cell = network.cells()[i];
      legacy += !cell.is_lte();
      const SimTime t{static_cast<std::int64_t>(i)};
      fresh.force_camp(cell, cell.position, t);
      prebuilt.force_camp(cell, ue::encode_camp_frames(cell), cell.position, t);
    }
    EXPECT_EQ(fresh.diag_log().bytes(), prebuilt.diag_log().bytes());
    EXPECT_EQ(fresh.diag_log().record_count(),
              prebuilt.diag_log().record_count());
  }
  EXPECT_GT(legacy, 0u);
}

}  // namespace
}  // namespace mmlab::sim
