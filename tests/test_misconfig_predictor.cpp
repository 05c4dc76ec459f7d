#include <gtest/gtest.h>

#include "mmlab/core/misconfig.hpp"
#include "mmlab/core/predictor.hpp"
#include "test_helpers.hpp"

namespace mmlab::core {
namespace {

using config::ParamId;

std::vector<config::ParamObservation> obs(
    std::initializer_list<std::pair<ParamId, double>> list) {
  std::vector<config::ParamObservation> out;
  for (const auto& [id, v] : list) out.push_back({config::lte_param(id), v});
  return out;
}

std::size_t count_kind(const std::vector<Finding>& findings, FindingKind kind) {
  std::size_t n = 0;
  for (const auto& f : findings)
    if (f.kind == kind) ++n;
  return n;
}

TEST(Misconfig, NegativeA3Offset) {
  ConfigDatabase db;
  db.add_snapshot("T", 1, spectrum::Rat::kLte, 1975, {0, 0}, SimTime{0},
                  obs({{ParamId::kA3Offset, -1.0}}));
  db.add_snapshot("T", 2, spectrum::Rat::kLte, 1975, {0, 0}, SimTime{0},
                  obs({{ParamId::kA3Offset, 3.0}}));
  const auto findings = detect_misconfigurations(db);
  EXPECT_EQ(count_kind(findings, FindingKind::kNegativeA3Offset), 1u);
}

TEST(Misconfig, PrematureMeasurementGap) {
  ConfigDatabase db;
  db.add_snapshot("A", 1, spectrum::Rat::kLte, 850, {0, 0}, SimTime{0},
                  obs({{ParamId::kSIntraSearch, 62.0},
                       {ParamId::kThreshServingLow, 6.0}}));
  const auto findings = detect_misconfigurations(db);
  ASSERT_EQ(count_kind(findings, FindingKind::kPrematureMeasurement), 1u);
  for (const auto& f : findings)
    if (f.kind == FindingKind::kPrematureMeasurement) {
      EXPECT_DOUBLE_EQ(f.value, 56.0);
    }
}

TEST(Misconfig, LateNonIntraMeasurement) {
  ConfigDatabase db;
  db.add_snapshot("A", 1, spectrum::Rat::kLte, 850, {0, 0}, SimTime{0},
                  obs({{ParamId::kSNonIntraSearch, 4.0},
                       {ParamId::kThreshServingLow, 6.0}}));
  const auto findings = detect_misconfigurations(db);
  EXPECT_EQ(count_kind(findings, FindingKind::kLateNonIntraMeasure), 1u);
}

TEST(Misconfig, SwappedSearchGates) {
  ConfigDatabase db;
  db.add_snapshot("CU", 1, spectrum::Rat::kLte, 1300, {0, 0}, SimTime{0},
                  obs({{ParamId::kSIntraSearch, 8.0},
                       {ParamId::kSNonIntraSearch, 28.0}}));
  const auto findings = detect_misconfigurations(db);
  EXPECT_EQ(count_kind(findings, FindingKind::kSwappedSearchGates), 1u);
}

TEST(Misconfig, PriorityConflictPerChannel) {
  ConfigDatabase db;
  db.add_snapshot("A", 1, spectrum::Rat::kLte, 1975, {0, 0}, SimTime{0},
                  obs({{ParamId::kServingPriority, 3.0}}));
  db.add_snapshot("A", 2, spectrum::Rat::kLte, 1975, {0, 0}, SimTime{0},
                  obs({{ParamId::kServingPriority, 4.0}}));
  db.add_snapshot("A", 3, spectrum::Rat::kLte, 850, {0, 0}, SimTime{0},
                  obs({{ParamId::kServingPriority, 3.0}}));
  const auto findings = detect_misconfigurations(db);
  EXPECT_EQ(count_kind(findings, FindingKind::kPriorityConflict), 1u);
}

TEST(Misconfig, Band30TopPriority) {
  ConfigDatabase db;
  db.add_snapshot("A", 1, spectrum::Rat::kLte, 9820, {0, 0}, SimTime{0},
                  obs({{ParamId::kServingPriority, 5.0}}));
  db.add_snapshot("A", 2, spectrum::Rat::kLte, 850, {0, 0}, SimTime{0},
                  obs({{ParamId::kServingPriority, 3.0}}));
  const auto findings = detect_misconfigurations(db);
  ASSERT_EQ(count_kind(findings, FindingKind::kUnsupportedTopPriority), 1u);
}

TEST(Misconfig, A5IgnoresServing) {
  ConfigDatabase db;
  db.add_snapshot("A", 1, spectrum::Rat::kLte, 850, {0, 0}, SimTime{0},
                  obs({{ParamId::kA5Threshold1, -44.0}}));
  const auto findings = detect_misconfigurations(db);
  EXPECT_EQ(count_kind(findings, FindingKind::kNoServingRequirement), 1u);
}

TEST(Misconfig, CleanConfigNoFindings) {
  ConfigDatabase db;
  db.add_snapshot("A", 1, spectrum::Rat::kLte, 850, {0, 0}, SimTime{0},
                  obs({{ParamId::kServingPriority, 3.0},
                       {ParamId::kSIntraSearch, 30.0},
                       {ParamId::kSNonIntraSearch, 8.0},
                       {ParamId::kThreshServingLow, 6.0},
                       {ParamId::kA3Offset, 3.0},
                       {ParamId::kA5Threshold1, -112.0}}));
  EXPECT_TRUE(detect_misconfigurations(db).empty());
}

TEST(Misconfig, SummarizeCounts) {
  std::vector<Finding> findings;
  findings.push_back({FindingKind::kNegativeA3Offset, "T", 1, 0, -1.0, ""});
  findings.push_back({FindingKind::kNegativeA3Offset, "T", 2, 0, 0.0, ""});
  findings.push_back({FindingKind::kPriorityConflict, "A", 0, 1975, 2.0, ""});
  const auto summary = summarize(findings);
  EXPECT_EQ(summary.at(FindingKind::kNegativeA3Offset), 2u);
  EXPECT_EQ(summary.at(FindingKind::kPriorityConflict), 1u);
  EXPECT_STREQ(finding_kind_name(FindingKind::kNegativeA3Offset),
               "negative-a3-offset");
}

// --- predictor ---------------------------------------------------------------

ue::CellMeas meas(std::uint32_t id, double rsrp) {
  return ue::CellMeas{id, {spectrum::Rat::kLte, 850}, rsrp, -10.0};
}

TEST(Predictor, FlagsImminentHandoffDuringTtt) {
  config::CellConfig cfg;
  cfg.report_configs = {test::a3_event(3.0, /*ttt=*/640, 1.0)};
  HandoffPredictor predictor(cfg, 150);
  // Neighbour clears the A3 entry condition at t=0.
  auto p = predictor.update(SimTime{0}, meas(1, -100), {meas(2, -90)});
  EXPECT_TRUE(p.imminent);
  EXPECT_EQ(p.expected_trigger, config::EventType::kA3);
  EXPECT_EQ(p.expected_target, 2u);
  EXPECT_EQ(p.eta_ms, 640 + 150);
  // Half the TTT later the ETA has shrunk accordingly.
  p = predictor.update(SimTime{320}, meas(1, -100), {meas(2, -90)});
  EXPECT_EQ(p.eta_ms, 320 + 150);
}

TEST(Predictor, NoFalsePositiveOnStableRadio) {
  config::CellConfig cfg;
  cfg.report_configs = {test::a3_event(3.0, 320, 1.0)};
  HandoffPredictor predictor(cfg, 150);
  for (Millis t = 0; t < 5000; t += 100) {
    const auto p = predictor.update(SimTime{t}, meas(1, -80), {meas(2, -95)});
    EXPECT_FALSE(p.imminent) << t;
  }
}

TEST(Predictor, LeaveConditionClearsState) {
  config::CellConfig cfg;
  cfg.report_configs = {test::a3_event(3.0, 640, 1.0)};
  HandoffPredictor predictor(cfg, 150);
  predictor.update(SimTime{0}, meas(1, -100), {meas(2, -90)});
  // Neighbour collapses: leave condition met, countdown cancelled.
  auto p = predictor.update(SimTime{100}, meas(1, -100), {meas(2, -105)});
  EXPECT_FALSE(p.imminent);
  // Re-entry restarts the full TTT.
  p = predictor.update(SimTime{200}, meas(1, -100), {meas(2, -90)});
  EXPECT_EQ(p.eta_ms, 640 + 150);
}

TEST(Predictor, IgnoresNonNominatingEvents) {
  config::CellConfig cfg;
  config::EventConfig a2;
  a2.type = config::EventType::kA2;
  a2.threshold1 = -100.0;
  cfg.report_configs = {a2};
  HandoffPredictor predictor(cfg, 150);
  const auto p = predictor.update(SimTime{0}, meas(1, -120), {});
  EXPECT_FALSE(p.imminent);
}

TEST(Predictor, ReconfigureInstallsNewPolicy) {
  config::CellConfig strict;
  strict.report_configs = {test::a3_event(12.0, 320, 1.0)};
  HandoffPredictor predictor(strict, 150);
  EXPECT_FALSE(
      predictor.update(SimTime{0}, meas(1, -100), {meas(2, -92)}).imminent);
  config::CellConfig lax;
  lax.report_configs = {test::a3_event(3.0, 320, 1.0)};
  predictor.reconfigure(lax);
  EXPECT_TRUE(
      predictor.update(SimTime{100}, meas(1, -100), {meas(2, -92)}).imminent);
}

}  // namespace
}  // namespace mmlab::core
