#include <gtest/gtest.h>

#include "mmlab/rrc/describe.hpp"
#include "mmlab/ue/event_engine.hpp"
#include "mmlab/util/rng.hpp"

namespace mmlab {
namespace {

TEST(Describe, Sib3) {
  rrc::Sib3 sib3;
  sib3.serving.priority = 3;
  const auto text = rrc::describe(rrc::Message{sib3});
  EXPECT_NE(text.find("SIB3"), std::string::npos);
  EXPECT_NE(text.find("prio=3"), std::string::npos);
  EXPECT_NE(text.find("sIntra=62dB"), std::string::npos);
}

TEST(Describe, MeasurementReportListsNeighbors) {
  rrc::MeasurementReport report;
  report.trigger = config::EventType::kA5;
  report.serving_pci = 77;
  report.neighbors.push_back(
      {201, {spectrum::Rat::kLte, 5780}, -101.0, -11.0});
  const auto text = rrc::describe(rrc::Message{report});
  EXPECT_NE(text.find("A5"), std::string::npos);
  EXPECT_NE(text.find("pci=77"), std::string::npos);
  EXPECT_NE(text.find("pci=201"), std::string::npos);
  EXPECT_NE(text.find("LTE/5780"), std::string::npos);
}

TEST(Describe, HandoffCommand) {
  rrc::RrcConnectionReconfiguration cmd;
  cmd.mobility = rrc::MobilityControlInfo{42, {spectrum::Rat::kLte, 9820}};
  const auto text = rrc::describe(rrc::Message{cmd});
  EXPECT_NE(text.find("handoff"), std::string::npos);
  EXPECT_NE(text.find("pci=42"), std::string::npos);
}

TEST(Describe, EveryAlternativeProducesText) {
  const rrc::Message messages[] = {
      rrc::Message{rrc::Sib1{}},
      rrc::Message{rrc::Sib3{}},
      rrc::Message{rrc::Sib4{}},
      rrc::Message{rrc::Sib5{}},
      rrc::Message{rrc::Sib6{}},
      rrc::Message{rrc::Sib7{}},
      rrc::Message{rrc::Sib8{}},
      rrc::Message{rrc::RrcConnectionReconfiguration{}},
      rrc::Message{rrc::MeasurementReport{}},
      rrc::Message{rrc::LegacySystemInfo{}},
  };
  for (const auto& msg : messages) EXPECT_FALSE(rrc::describe(msg).empty());
}

// --- event-engine invariants (property sweep) --------------------------------

class EventInvariantSweep
    : public ::testing::TestWithParam<config::EventType> {};

TEST_P(EventInvariantSweep, EntryAndLeaveMutuallyExclusive) {
  // With positive hysteresis, the entry and leave conditions of an event
  // must never hold simultaneously (TS 36.331's hysteresis guarantee).
  const auto type = GetParam();
  Rng rng(static_cast<std::uint64_t>(type) + 99);
  for (int trial = 0; trial < 2'000; ++trial) {
    config::EventConfig ev;
    ev.type = type;
    ev.hysteresis_db = rng.uniform(0.5, 5.0);
    ev.threshold1 = rng.uniform(-140.0, -44.0);
    ev.threshold2 = rng.uniform(-140.0, -44.0);
    ev.offset_db = rng.uniform(-15.0, 15.0);
    const double serving = rng.uniform(-140.0, -44.0);
    const double neighbor = rng.uniform(-140.0, -44.0);
    EXPECT_FALSE(ue::event_entry_condition(ev, serving, neighbor) &&
                 ue::event_leave_condition(ev, serving, neighbor))
        << "type=" << config::event_name(type) << " s=" << serving
        << " n=" << neighbor;
  }
}

TEST_P(EventInvariantSweep, StrongerNeighborNeverLeavesEarlier) {
  // Monotonicity: if the entry condition holds for a neighbour at level x,
  // it must also hold at any level above x (serving fixed).
  const auto type = GetParam();
  if (type == config::EventType::kA1 || type == config::EventType::kA2)
    GTEST_SKIP() << "serving-only event";
  Rng rng(static_cast<std::uint64_t>(type) + 7);
  for (int trial = 0; trial < 1'000; ++trial) {
    config::EventConfig ev;
    ev.type = type;
    ev.hysteresis_db = rng.uniform(0.0, 3.0);
    ev.threshold1 = rng.uniform(-130.0, -60.0);
    ev.threshold2 = rng.uniform(-130.0, -60.0);
    ev.offset_db = rng.uniform(-10.0, 10.0);
    const double serving = rng.uniform(-130.0, -60.0);
    const double weak = rng.uniform(-130.0, -60.0);
    const double strong = weak + rng.uniform(0.0, 20.0);
    if (ue::event_entry_condition(ev, serving, weak)) {
      EXPECT_TRUE(ue::event_entry_condition(ev, serving, strong));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllEvents, EventInvariantSweep,
    ::testing::Values(config::EventType::kA1, config::EventType::kA2,
                      config::EventType::kA3, config::EventType::kA4,
                      config::EventType::kA5, config::EventType::kB1,
                      config::EventType::kB2),
    [](const auto& param_info) {
      return std::string(config::event_name(param_info.param));
    });

}  // namespace
}  // namespace mmlab
