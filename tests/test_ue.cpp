#include "mmlab/ue/ue.hpp"

#include <gtest/gtest.h>

#include "mmlab/rrc/codec.hpp"
#include "mmlab/ue/broadcast.hpp"
#include "test_helpers.hpp"

namespace mmlab::ue {
namespace {

UeOptions active_opts(std::uint64_t seed = 1) {
  UeOptions opts;
  opts.seed = seed;
  opts.carrier = 0;
  opts.active_mode = true;
  opts.log_radio_snapshots = true;
  opts.measurement_noise_db = 0.5;
  return opts;
}

/// Drive a UE from x=0 to x=2000 across the two-cell corridor.
void drive_corridor(net::Deployment& /*net*/, Ue& device, Millis duration = 180'000) {
  for (Millis t = 0; t <= duration; t += 100) {
    const double frac =
        static_cast<double>(t) / static_cast<double>(duration);
    device.step({2000.0 * frac, 0.0}, SimTime{t});
  }
}

TEST(Broadcast, LteSibsCoverConfig) {
  auto net = test::two_cell_corridor(test::a3_event(3.0));
  auto cfg = test::basic_lte_config();
  cfg.neighbor_freqs.push_back({{spectrum::Rat::kUmts, 4435}, 2});
  cfg.neighbor_freqs.push_back({{spectrum::Rat::kLte, 1975}, 4});
  cfg.forbidden_cells = {42};
  const auto cell = test::lte_cell(9, 0, {0, 0}, 850, cfg);
  const auto msgs = broadcast_system_information(cell);
  // SIB1, SIB3, SIB4, SIB5 (LTE inter-freq), SIB6 (UMTS).
  ASSERT_EQ(msgs.size(), 5u);
  EXPECT_TRUE(std::holds_alternative<rrc::Sib1>(msgs[0]));
  EXPECT_TRUE(std::holds_alternative<rrc::Sib3>(msgs[1]));
  EXPECT_TRUE(std::holds_alternative<rrc::Sib4>(msgs[2]));
  EXPECT_TRUE(std::holds_alternative<rrc::Sib5>(msgs[3]));
  EXPECT_TRUE(std::holds_alternative<rrc::Sib6>(msgs[4]));
}

TEST(Broadcast, LegacyCellEmitsOneMessage) {
  net::Cell cell;
  cell.id = 5;
  cell.channel = {spectrum::Rat::kUmts, 4435};
  cell.legacy_config.rat = spectrum::Rat::kUmts;
  const auto msgs = broadcast_system_information(cell);
  ASSERT_EQ(msgs.size(), 1u);
  EXPECT_TRUE(std::holds_alternative<rrc::LegacySystemInfo>(msgs[0]));
}

TEST(Broadcast, AllMessagesEncodable) {
  auto net = test::two_cell_corridor(test::a3_event(3.0));
  for (const auto& cell : net.cells())
    for (const auto& msg : broadcast_system_information(cell))
      EXPECT_NO_THROW(rrc::encode(msg));
}

TEST(Ue, AttachPicksStrongestCell) {
  auto net = test::two_cell_corridor(test::a3_event(3.0));
  Ue device(net, active_opts());
  ASSERT_TRUE(device.attach({100, 0}, SimTime{0}));
  EXPECT_EQ(device.serving_cell()->id, 1u);
  Ue device2(net, active_opts());
  ASSERT_TRUE(device2.attach({1900, 0}, SimTime{0}));
  EXPECT_EQ(device2.serving_cell()->id, 2u);
}

TEST(Ue, AttachFailsOutOfCoverage) {
  auto net = test::two_cell_corridor(test::a3_event(3.0));
  Ue device(net, active_opts());
  EXPECT_FALSE(device.attach({500'000, 500'000}, SimTime{0}));
  EXPECT_EQ(device.serving_cell(), nullptr);
}

TEST(Ue, ActiveDriveHandsOff) {
  auto net = test::two_cell_corridor(test::a3_event(3.0));
  Ue device(net, active_opts());
  drive_corridor(net, device);
  ASSERT_GE(device.handoffs().size(), 1u);
  const auto& ho = device.handoffs().front();
  EXPECT_TRUE(ho.active_state);
  EXPECT_EQ(ho.from, 1u);
  EXPECT_EQ(ho.to, 2u);
  EXPECT_EQ(ho.trigger, config::EventType::kA3);
  EXPECT_EQ(device.serving_cell()->id, 2u);
}

TEST(Ue, DecisionDelayWithinPaperRange) {
  auto net = test::two_cell_corridor(test::a3_event(3.0));
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Ue device(net, active_opts(seed));
    drive_corridor(net, device);
    for (const auto& ho : device.handoffs()) {
      const Millis delay = ho.exec_time - ho.report_time;
      EXPECT_GE(delay, 80);
      EXPECT_LE(delay, 330);  // 230 ms max delay + one 100 ms tick
    }
  }
}

TEST(Ue, LargerA3OffsetDefersHandoff) {
  auto net_small = test::two_cell_corridor(test::a3_event(3.0, 320, 0.5));
  auto net_large = test::two_cell_corridor(test::a3_event(12.0, 320, 0.5));
  Ue ue_small(net_small, active_opts(7));
  Ue ue_large(net_large, active_opts(7));
  drive_corridor(net_small, ue_small);
  drive_corridor(net_large, ue_large);
  ASSERT_GE(ue_small.handoffs().size(), 1u);
  ASSERT_GE(ue_large.handoffs().size(), 1u);
  // ∆A3 = 12 dB waits until the new cell is much stronger => later handoff
  // and weaker serving signal at handoff time.
  EXPECT_LT(ue_small.handoffs()[0].exec_time, ue_large.handoffs()[0].exec_time);
  EXPECT_GT(ue_small.handoffs()[0].old_rsrp_dbm,
            ue_large.handoffs()[0].old_rsrp_dbm);
}

TEST(Ue, A3HandoffImprovesRsrp) {
  auto net = test::two_cell_corridor(test::a3_event(3.0));
  Ue device(net, active_opts(3));
  drive_corridor(net, device);
  for (const auto& ho : device.handoffs())
    EXPECT_GT(ho.new_rsrp_dbm, ho.old_rsrp_dbm - 1.0);
}

TEST(Ue, IdleDriveReselects) {
  auto net = test::two_cell_corridor(test::a3_event(3.0));
  UeOptions opts = active_opts();
  opts.active_mode = false;
  Ue device(net, opts);
  drive_corridor(net, device);
  ASSERT_GE(device.handoffs().size(), 1u);
  EXPECT_FALSE(device.handoffs()[0].active_state);
  EXPECT_EQ(device.serving_cell()->id, 2u);
}

TEST(Ue, IdleEqualPriorityReselectionImprovesRsrp) {
  auto net = test::two_cell_corridor(test::a3_event(3.0));
  UeOptions opts = active_opts();
  opts.active_mode = false;
  Ue device(net, opts);
  drive_corridor(net, device);
  for (const auto& ho : device.handoffs())
    EXPECT_GT(ho.new_rsrp_dbm, ho.old_rsrp_dbm);
}

TEST(Ue, ForceCampLogsSibs) {
  auto net = test::two_cell_corridor(test::a3_event(3.0));
  UeOptions opts = active_opts();
  opts.active_mode = false;
  Ue device(net, opts);
  ASSERT_TRUE(device.force_camp(2, {1900, 0}, SimTime{100}));
  EXPECT_EQ(device.serving_cell()->id, 2u);
  EXPECT_FALSE(device.force_camp(99, {0, 0}, SimTime{200}));

  diag::Parser parser(device.diag_log().bytes());
  const auto records = parser.all();
  ASSERT_GE(records.size(), 3u);  // camp + SIB1 + SIB3 at least
  EXPECT_EQ(records[0].code, diag::LogCode::kServingCellInfo);
  diag::CampEvent ev;
  ASSERT_TRUE(decode_camp_event(records[0].payload, ev));
  EXPECT_EQ(ev.cell_identity, 2u);
  EXPECT_EQ(static_cast<diag::CampCause>(ev.cause),
            diag::CampCause::kForcedSwitch);
  // The SIB records decode back to the cell's actual configuration.
  auto sib3_seen = false;
  for (std::size_t i = 1; i < records.size(); ++i) {
    auto msg = rrc::decode(records[i].payload);
    ASSERT_TRUE(msg.ok());
    if (const auto* sib3 = std::get_if<rrc::Sib3>(&msg.value())) {
      EXPECT_EQ(sib3->serving, net.cells()[1].lte_config.serving);
      sib3_seen = true;
    }
  }
  EXPECT_TRUE(sib3_seen);
}

TEST(Ue, BandSupportBlocksUnsupportedCells) {
  // Corridor where the far cell is on band 30 (EARFCN 9820).
  net::Deployment net;
  net.set_shadowing(1, 0.0, 50.0);
  net.add_carrier({0, "A", "A", "US"});
  geo::City city;
  city.origin = {-1000, -1000};
  city.extent_m = 5000;
  net.add_city(city);
  auto cfg = test::basic_lte_config();
  cfg.report_configs = {test::a3_event(3.0)};
  config::NeighborFreqConfig nf;
  nf.channel = {spectrum::Rat::kLte, 9820};
  nf.priority = 6;
  cfg.neighbor_freqs.push_back(nf);
  net.add_cell(test::lte_cell(1, 0, {0, 0}, 850, cfg));
  net.add_cell(test::lte_cell(2, 0, {2000, 0}, 9820, cfg));

  UeOptions no30 = active_opts();
  no30.band_support = spectrum::BandSupport::all_except({30});
  Ue device(net, no30);
  drive_corridor(net, device);
  // The UE can never move to cell 2: no handoff to it, ending in RLF or
  // still on cell 1.
  for (const auto& ho : device.handoffs()) EXPECT_NE(ho.to, 2u);

  UeOptions with30 = active_opts();
  Ue device2(net, with30);
  drive_corridor(net, device2);
  bool reached = false;
  for (const auto& ho : device2.handoffs()) reached |= ho.to == 2u;
  EXPECT_TRUE(reached);
}

TEST(Ue, DiagLogFullyParseable) {
  auto net = test::two_cell_corridor(test::a3_event(3.0));
  Ue device(net, active_opts());
  drive_corridor(net, device);
  diag::Parser parser(device.diag_log().bytes());
  const auto records = parser.all();
  EXPECT_GT(records.size(), 100u);
  EXPECT_EQ(parser.stats().crc_failures, 0u);
  EXPECT_EQ(parser.stats().malformed, 0u);
  // Every RRC payload decodes.
  for (const auto& rec : records) {
    if (rec.code == diag::LogCode::kLteRrcOta ||
        rec.code == diag::LogCode::kLegacyRrcOta) {
      EXPECT_TRUE(rrc::decode(rec.payload).ok());
    }
  }
}

TEST(Ue, LinkTickReflectsBandwidth) {
  auto net = test::two_cell_corridor(test::a3_event(3.0));
  Ue device(net, active_opts());
  device.step({100, 0}, SimTime{0});
  EXPECT_EQ(device.link_tick().bandwidth_prbs, 50);
  EXPECT_GT(device.link_tick().sinr_db, -10.0);
}

TEST(Ue, A5WithNoServingRequirementCanPickWeakerCell) {
  // AT&T-style A5: ΘA5,S = -44 (ignore serving), ΘA5,C = -114.
  config::EventConfig a5;
  a5.type = config::EventType::kA5;
  a5.threshold1 = -44.0;
  a5.threshold2 = -114.0;
  a5.hysteresis_db = 1.0;
  a5.time_to_trigger = 320;
  auto net = test::two_cell_corridor(a5);
  int weaker = 0, total = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Ue device(net, active_opts(seed));
    drive_corridor(net, device);
    for (const auto& ho : device.handoffs()) {
      ++total;
      if (ho.new_rsrp_dbm < ho.old_rsrp_dbm) ++weaker;
    }
  }
  ASSERT_GT(total, 0);
  // A decent share of A5 handoffs land on a weaker cell (Fig 6's ~48 %).
  EXPECT_GT(static_cast<double>(weaker) / total, 0.15);
}

}  // namespace
}  // namespace mmlab::ue
