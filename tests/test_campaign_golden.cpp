// Golden pins of the drive engine: sim::run_campaign on a small seeded world,
// for two campaign seeds and two workloads (speedtest and idle), pinned down
// to the bit patterns of its doubles, plus the diag log of one drive.
//
// Any engine change that claims identical results (memoised radio, cached
// per-cell constants, a different summation schedule) must leave every pin
// below untouched.  A change that moves the radio on purpose re-pins here
// and says why.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "mmlab/mobility/route.hpp"
#include "mmlab/netgen/generator.hpp"
#include "mmlab/sim/drive_test.hpp"
#include "mmlab/util/crc.hpp"

namespace mmlab::sim {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// FNV-1a over 64-bit words.
struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
};

/// Hash of the pooled handoff list: endpoints, times and trigger of each
/// handoff, plus the radio values it recorded and its throughput windows.
std::uint64_t handoff_hash(const std::vector<HandoffPerf>& handoffs) {
  Fnv f;
  for (const auto& hp : handoffs) {
    const auto& r = hp.rec;
    f.u64(r.from);
    f.u64(r.to);
    f.u64(static_cast<std::uint64_t>(r.report_time.ms));
    f.u64(static_cast<std::uint64_t>(r.exec_time.ms));
    f.u64(static_cast<std::uint64_t>(r.trigger));
    f.u64(r.active_state);
    f.u64(bits(r.old_rsrp_dbm));
    f.u64(bits(r.new_rsrp_dbm));
    f.u64(bits(r.old_rsrq_db));
    f.u64(bits(r.new_rsrq_db));
    f.u64(bits(hp.min_thpt_before_bps));
    f.u64(bits(hp.min_thpt_before_1s_bps));
    f.u64(bits(hp.mean_thpt_after_bps));
  }
  return f.h;
}

struct CampaignPin {
  std::uint64_t campaign_seed;
  Workload workload;
  std::size_t handoffs;
  std::uint64_t handoff_hash;
  std::uint64_t throughput_sum_bits;
  std::size_t throughput_samples;
  std::uint64_t total_km_bits;
  std::size_t radio_link_failures;
  std::size_t handoff_failures;
  std::size_t diag_bytes;
  std::uint16_t diag_crc16;
};

std::string describe(const CampaignPin& p) {
  char buf[320];
  std::snprintf(buf, sizeof buf,
                "{%llu, Workload::%s, %zu, 0x%016llxULL, 0x%016llxULL, %zu, "
                "0x%016llxULL, %zu, %zu, %zu, %u},",
                static_cast<unsigned long long>(p.campaign_seed),
                p.workload == Workload::kNone ? "kNone" : "kSpeedtest",
                p.handoffs, static_cast<unsigned long long>(p.handoff_hash),
                static_cast<unsigned long long>(p.throughput_sum_bits),
                p.throughput_samples,
                static_cast<unsigned long long>(p.total_km_bits),
                p.radio_link_failures, p.handoff_failures, p.diag_bytes,
                static_cast<unsigned>(p.diag_crc16));
  return buf;
}

const netgen::GeneratedWorld& golden_world() {
  static const auto world = [] {
    netgen::WorldOptions wopts;
    wopts.seed = 6;
    wopts.scale = 0.02;
    return netgen::generate_world(wopts);
  }();
  return world;
}

CampaignPin pin_campaign(std::uint64_t seed, Workload workload) {
  const auto& world = golden_world();
  const net::CarrierId carrier = world.network.carriers().front().id;

  CampaignOptions opts;
  opts.seed = seed;
  opts.carrier = carrier;
  opts.workload = workload;
  opts.cities = {0, 2};
  opts.city_drives_per_city = 2;
  opts.highway_drives_per_city = 1;
  opts.city_drive_duration = 2 * kMillisPerMinute;
  opts.threads = 2;
  const auto r = run_campaign(world.network, opts);

  // One drive on its own, for its diag log (the campaign keeps none).
  Rng route_rng(seed);
  const auto route =
      mobility::manhattan_drive(route_rng, *world.network.find_city(0),
                                mobility::kph(40), kMillisPerMinute);
  DriveTestOptions dopts;
  dopts.seed = route_rng.next_u64();
  dopts.carrier = carrier;
  dopts.workload = workload;
  const auto drive = run_drive_test(world.network, route, dopts);

  return {seed,
          workload,
          r.handoffs.size(),
          handoff_hash(r.handoffs),
          bits(r.throughput_sum_bps),
          r.throughput_samples,
          bits(r.total_km),
          r.radio_link_failures,
          r.handoff_failures,
          drive.diag_log.size(),
          crc16_ccitt(drive.diag_log.data(), drive.diag_log.size())};
}

void expect_pin(const CampaignPin& expected) {
  const CampaignPin actual =
      pin_campaign(expected.campaign_seed, expected.workload);
  SCOPED_TRACE(describe(actual));
  EXPECT_EQ(actual.handoffs, expected.handoffs);
  EXPECT_EQ(actual.handoff_hash, expected.handoff_hash);
  EXPECT_EQ(actual.throughput_sum_bits, expected.throughput_sum_bits);
  EXPECT_EQ(actual.throughput_samples, expected.throughput_samples);
  EXPECT_EQ(actual.total_km_bits, expected.total_km_bits);
  EXPECT_EQ(actual.radio_link_failures, expected.radio_link_failures);
  EXPECT_EQ(actual.handoff_failures, expected.handoff_failures);
  EXPECT_EQ(actual.diag_bytes, expected.diag_bytes);
  EXPECT_EQ(actual.diag_crc16, expected.diag_crc16);
}

TEST(CampaignGolden, SpeedtestSeed21) {
  expect_pin({21, Workload::kSpeedtest, 141, 0x93b1ab1cd261bc2bULL,
              0x4264b69e3ea06000ULL, 22083, 0x404a2245eb584726ULL, 1, 0,
              38114, 18734});
}

TEST(CampaignGolden, SpeedtestSeed8) {
  expect_pin({8, Workload::kSpeedtest, 168, 0x8c1a4771fb6cd308ULL,
              0x42656db83e04a000ULL, 22959, 0x404b2da7b34e97c5ULL, 2, 0,
              47847, 14553});
}

TEST(CampaignGolden, IdleSeed21) {
  expect_pin({21, Workload::kNone, 183, 0x147a382518640afcULL, 0, 0,
              0x404a2245eb584726ULL, 0, 0, 38803, 61965});
}

TEST(CampaignGolden, IdleSeed8) {
  expect_pin({8, Workload::kNone, 172, 0x3aff8b423cb2ce5aULL, 0, 0,
              0x404b2da7b34e97c5ULL, 0, 0, 47701, 28266});
}

}  // namespace
}  // namespace mmlab::sim
