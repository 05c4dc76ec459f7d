#include "mmlab/core/analysis.hpp"

#include <gtest/gtest.h>

namespace mmlab::core {
namespace {

using config::ParamId;

std::vector<config::ParamObservation> obs(
    std::initializer_list<std::pair<ParamId, double>> list) {
  std::vector<config::ParamObservation> out;
  for (const auto& [id, v] : list) out.push_back({config::lte_param(id), v});
  return out;
}

/// Small hand-built database: carrier "A" with a diverse parameter and a
/// fixed one, split over two channels and two cities.
ConfigDatabase small_db() {
  ConfigDatabase db;
  // City 0 cells (positions near origin), channel 850, priority 3.
  for (std::uint32_t id = 1; id <= 4; ++id)
    db.add_snapshot("A", id, spectrum::Rat::kLte, 850,
                    {100.0 * id, 100.0}, SimTime{0},
                    obs({{ParamId::kServingPriority, 3.0},
                         {ParamId::kQHyst, 4.0},
                         {ParamId::kSIntraSearch, 62.0},
                         {ParamId::kSNonIntraSearch, 8.0},
                         {ParamId::kThreshServingLow, 6.0}}));
  // City 1 cells, channel 9820, priority 5 (one conflicting cell at 4).
  for (std::uint32_t id = 5; id <= 8; ++id)
    db.add_snapshot("A", id, spectrum::Rat::kLte, 9820,
                    {10'000.0 + 100.0 * id, 100.0}, SimTime{0},
                    obs({{ParamId::kServingPriority, id == 8 ? 4.0 : 5.0},
                         {ParamId::kQHyst, 4.0},
                         {ParamId::kSIntraSearch, 62.0},
                         {ParamId::kSNonIntraSearch, 4.0},
                         {ParamId::kThreshServingLow, 10.0}}));
  return db;
}

std::vector<geo::City> two_cities() {
  geo::City c0;
  c0.id = 0;
  c0.origin = {0, 0};
  c0.extent_m = 5000;
  geo::City c1;
  c1.id = 1;
  c1.origin = {10'000, 0};
  c1.extent_m = 5000;
  return {c0, c1};
}

TEST(Analysis, DiversitySortedBySimpson) {
  const auto db = small_db();
  const auto diversity = diversity_by_param(db, "A");
  ASSERT_GE(diversity.size(), 4u);
  for (std::size_t i = 1; i < diversity.size(); ++i)
    EXPECT_LE(diversity[i - 1].measures.simpson,
              diversity[i].measures.simpson);
  // Hs is single-valued => Simpson 0; priority is diverse.
  for (const auto& d : diversity) {
    if (d.key == config::lte_param(ParamId::kQHyst)) {
      EXPECT_DOUBLE_EQ(d.measures.simpson, 0.0);
    }
    if (d.key == config::lte_param(ParamId::kServingPriority)) {
      EXPECT_GT(d.measures.simpson, 0.5);
    }
  }
}

TEST(Analysis, FrequencyDependence) {
  const auto db = small_db();
  const auto deps = frequency_dependence(db, "A");
  double prio_zeta = -1.0, qhyst_zeta = -1.0;
  for (const auto& d : deps) {
    if (d.key == config::lte_param(ParamId::kServingPriority))
      prio_zeta = d.zeta_simpson;
    if (d.key == config::lte_param(ParamId::kQHyst))
      qhyst_zeta = d.zeta_simpson;
  }
  // Priority is almost fully explained by channel: zeta near the pooled D.
  EXPECT_GT(prio_zeta, 0.3);
  // Hs has no diversity at all: zeta 0.
  EXPECT_DOUBLE_EQ(qhyst_zeta, 0.0);
}

TEST(Analysis, PriorityByChannel) {
  const auto db = small_db();
  const auto by_channel = priority_by_channel(db, "A", false);
  ASSERT_EQ(by_channel.size(), 2u);
  EXPECT_EQ(by_channel.at(850).richness(), 1u);
  EXPECT_EQ(by_channel.at(9820).richness(), 2u);  // the conflict
}

TEST(Analysis, MultiPriorityFraction) {
  const auto db = small_db();
  // Channel 9820 has 4 cells, one holding the non-modal value 4.
  EXPECT_NEAR(multi_priority_cell_fraction(db, "A"), 1.0 / 8.0, 1e-9);
}

TEST(Analysis, PriorityByCity) {
  const auto db = small_db();
  const auto by_city = priority_by_city(db, "A", two_cities());
  ASSERT_EQ(by_city.size(), 2u);
  EXPECT_DOUBLE_EQ(by_city.at(0).mode(), 3.0);
  EXPECT_DOUBLE_EQ(by_city.at(1).mode(), 5.0);
}

TEST(Analysis, SpatialDiversityDetectsLocalVariation) {
  const auto db = small_db();
  const auto cities = two_cities();
  // City 0: all cells share priority 3 -> spatial Simpson 0 everywhere.
  const auto uniform = spatial_diversity(
      db, "A", config::lte_param(ParamId::kServingPriority), cities[0], 500.0);
  for (const double v : uniform) EXPECT_DOUBLE_EQ(v, 0.0);
  // City 1 harbours the conflicting cell -> some clusters diverse.
  const auto diverse = spatial_diversity(
      db, "A", config::lte_param(ParamId::kServingPriority), cities[1], 500.0);
  bool any_positive = false;
  for (const double v : diverse) any_positive |= v > 0.0;
  EXPECT_TRUE(any_positive);
}

TEST(Analysis, MeasurementGaps) {
  const auto db = small_db();
  const auto gaps = measurement_decision_gaps(db, "A");
  ASSERT_EQ(gaps.intra_minus_nonintra.size(), 8u);
  for (const double g : gaps.intra_minus_nonintra) EXPECT_GE(g, 0.0);
  // City-0 cells: 62 - 6 = 56; city-1 cells: 62 - 10 = 52.
  for (const double g : gaps.intra_minus_slow) EXPECT_GE(g, 52.0);
  // Pooled across carriers works too.
  EXPECT_EQ(measurement_decision_gaps(db).intra_minus_slow.size(), 8u);
}

TEST(Analysis, TemporalDynamics) {
  ConfigDatabase db;
  // Cell 1: two visits, no change. Cell 2: two visits, idle param changed.
  // Cell 3: two visits, active param changed. Cell 4: single visit.
  db.add_snapshot("A", 1, spectrum::Rat::kLte, 850, {0, 0}, SimTime{0},
                  obs({{ParamId::kServingPriority, 3.0},
                       {ParamId::kA3Offset, 3.0}}));
  db.add_snapshot("A", 1, spectrum::Rat::kLte, 850, {0, 0},
                  SimTime::from_days(100),
                  obs({{ParamId::kServingPriority, 3.0},
                       {ParamId::kA3Offset, 3.0}}));
  db.add_snapshot("A", 2, spectrum::Rat::kLte, 850, {0, 0}, SimTime{0},
                  obs({{ParamId::kServingPriority, 3.0},
                       {ParamId::kSNonIntraSearch, 8.0}}));
  db.add_snapshot("A", 2, spectrum::Rat::kLte, 850, {0, 0},
                  SimTime::from_days(30),
                  obs({{ParamId::kServingPriority, 3.0},
                       {ParamId::kSNonIntraSearch, 28.0}}));
  db.add_snapshot("A", 3, spectrum::Rat::kLte, 850, {0, 0}, SimTime{0},
                  obs({{ParamId::kServingPriority, 3.0},
                       {ParamId::kA3Offset, 3.0}}));
  db.add_snapshot("A", 3, spectrum::Rat::kLte, 850, {0, 0},
                  SimTime::from_days(60),
                  obs({{ParamId::kServingPriority, 3.0},
                       {ParamId::kA3Offset, 5.0}}));
  db.add_snapshot("A", 4, spectrum::Rat::kLte, 850, {0, 0}, SimTime{0},
                  obs({{ParamId::kServingPriority, 3.0}}));

  const auto ts = temporal_dynamics(db, "A");
  EXPECT_DOUBLE_EQ(ts.fraction_multi_sample, 0.75);
  EXPECT_NEAR(ts.idle_update_fraction, 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(ts.active_update_fraction, 1.0 / 3.0, 1e-9);
  EXPECT_EQ(ts.samples_per_cell_histogram[0], 1u);  // one single-sample cell
  EXPECT_EQ(ts.samples_per_cell_histogram[1], 3u);  // three two-sample cells

  // Horizon breakdown: the idle change was visible across a 30-day gap,
  // the active change across a 60-day gap.
  ASSERT_GE(ts.by_horizon.size(), 6u);
  const auto& day7 = ts.by_horizon[2];
  EXPECT_DOUBLE_EQ(day7.days, 7.0);
  EXPECT_DOUBLE_EQ(day7.idle_fraction, 0.0);
  EXPECT_DOUBLE_EQ(day7.active_fraction, 0.0);
  const auto& day30 = ts.by_horizon[3];
  EXPECT_NEAR(day30.idle_fraction, 1.0 / 3.0, 1e-9);
  EXPECT_DOUBLE_EQ(day30.active_fraction, 0.0);
  const auto& day180 = ts.by_horizon[4];
  EXPECT_NEAR(day180.active_fraction, 1.0 / 3.0, 1e-9);
  const auto& any = ts.by_horizon.back();
  EXPECT_NEAR(any.idle_fraction, 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(any.active_fraction, 1.0 / 3.0, 1e-9);
}

TEST(Analysis, RatBreakdown) {
  ConfigDatabase db;
  db.add_snapshot("A", 1, spectrum::Rat::kLte, 850, {0, 0}, SimTime{0},
                  obs({{ParamId::kServingPriority, 3.0}}));
  db.add_snapshot("A", 2, spectrum::Rat::kLte, 850, {0, 0}, SimTime{0},
                  obs({{ParamId::kServingPriority, 3.0}}));
  std::vector<config::ParamObservation> legacy{
      {config::ParamKey{spectrum::Rat::kUmts, 0}, 2.0}};
  db.add_snapshot("A", 3, spectrum::Rat::kUmts, 4435, {0, 0}, SimTime{0},
                  legacy);
  const auto shares = rat_breakdown(db);
  ASSERT_EQ(shares.size(), 5u);
  EXPECT_EQ(shares[0].rat, spectrum::Rat::kLte);
  EXPECT_EQ(shares[0].cells, 2u);
  EXPECT_NEAR(shares[0].fraction, 2.0 / 3.0, 1e-9);
  EXPECT_EQ(shares[1].cells, 1u);  // UMTS
}

TEST(Analysis, DiversityFilterByRat) {
  ConfigDatabase db;
  db.add_snapshot("A", 1, spectrum::Rat::kLte, 850, {0, 0}, SimTime{0},
                  obs({{ParamId::kServingPriority, 3.0}}));
  std::vector<config::ParamObservation> legacy{
      {config::ParamKey{spectrum::Rat::kUmts, 0}, 2.0}};
  db.add_snapshot("A", 2, spectrum::Rat::kUmts, 4435, {0, 0}, SimTime{0},
                  legacy);
  const auto lte_only =
      diversity_by_param(db, "A", spectrum::Rat::kLte);
  for (const auto& d : lte_only) EXPECT_EQ(d.key.rat, spectrum::Rat::kLte);
  const auto umts_only =
      diversity_by_param(db, "A", spectrum::Rat::kUmts);
  ASSERT_EQ(umts_only.size(), 1u);
  EXPECT_EQ(umts_only[0].key.rat, spectrum::Rat::kUmts);
}

}  // namespace
}  // namespace mmlab::core

namespace mmlab::core {
namespace {

using config::ParamId;

std::vector<config::ParamObservation> change_obs(
    std::initializer_list<std::pair<ParamId, double>> list) {
  std::vector<config::ParamObservation> out;
  for (const auto& [id, v] : list) out.push_back({config::lte_param(id), v});
  return out;
}

TEST(Analysis, DescribeChangesFindsUpdates) {
  ConfigDatabase db;
  db.add_snapshot("A", 1, spectrum::Rat::kLte, 850, {0, 0}, SimTime{0},
                  change_obs({{ParamId::kServingPriority, 3.0},
                              {ParamId::kA3Offset, 3.0}}));
  db.add_snapshot("A", 1, spectrum::Rat::kLte, 850, {0, 0},
                  SimTime::from_days(40),
                  change_obs({{ParamId::kServingPriority, 3.0},
                              {ParamId::kA3Offset, 5.0}}));
  const auto& rec = db.cells_of("A")->at(1);
  const auto changes = describe_changes(rec);
  ASSERT_EQ(changes.size(), 1u);
  EXPECT_EQ(changes[0].key, config::lte_param(ParamId::kA3Offset));
  EXPECT_DOUBLE_EQ(changes[0].from, 3.0);
  EXPECT_DOUBLE_EQ(changes[0].to, 5.0);
  EXPECT_TRUE(changes[0].active_state);
  EXPECT_DOUBLE_EQ(changes[0].changed_at.days(), 40.0);
}

TEST(Analysis, DescribeChangesSkipsAmbiguousAndPerFreq) {
  ConfigDatabase db;
  // Two report amounts inside one snapshot (A2 + A3): ambiguous parameter.
  std::vector<config::ParamObservation> snap1{
      {config::lte_param(ParamId::kReportAmount), 2.0, -1},
      {config::lte_param(ParamId::kReportAmount), 1.0, -1},
      {config::lte_param(ParamId::kNeighborPriority), 4.0, 850},
  };
  std::vector<config::ParamObservation> snap2{
      {config::lte_param(ParamId::kReportAmount), 2.0, -1},
      {config::lte_param(ParamId::kReportAmount), 4.0, -1},
      {config::lte_param(ParamId::kNeighborPriority), 5.0, 850},
  };
  db.add_snapshot("A", 1, spectrum::Rat::kLte, 850, {0, 0}, SimTime{0}, snap1);
  db.add_snapshot("A", 1, spectrum::Rat::kLte, 850, {0, 0},
                  SimTime::from_days(10), snap2);
  const auto changes = describe_changes(db.cells_of("A")->at(1));
  EXPECT_TRUE(changes.empty());
}

TEST(Analysis, DescribeChangesStableConfigEmpty) {
  ConfigDatabase db;
  for (int round = 0; round < 5; ++round)
    db.add_snapshot("A", 1, spectrum::Rat::kLte, 850, {0, 0},
                    SimTime::from_days(round * 30.0),
                    change_obs({{ParamId::kServingPriority, 3.0}}));
  EXPECT_TRUE(describe_changes(db.cells_of("A")->at(1)).empty());
}

}  // namespace
}  // namespace mmlab::core
