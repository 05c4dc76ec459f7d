#include <gtest/gtest.h>

#include <vector>

#include "test_helpers.hpp"

namespace mmlab::net {
namespace {

TEST(Deployment, CarrierAndCityLookup) {
  Deployment net;
  const auto id = net.add_carrier({0, "AT&T", "A", "US"});
  geo::City city;
  city.id = 3;
  city.name = "Indy";
  net.add_city(city);
  ASSERT_NE(net.find_carrier(id), nullptr);
  EXPECT_EQ(net.find_carrier(id)->acronym, "A");
  EXPECT_EQ(net.find_carrier(99), nullptr);
  ASSERT_NE(net.find_city(3), nullptr);
  EXPECT_EQ(net.find_city(9), nullptr);
}

TEST(Deployment, RejectsUnknownCarrier) {
  Deployment net;
  Cell cell;
  cell.carrier = 5;
  EXPECT_THROW(net.add_cell(cell), std::invalid_argument);
}

TEST(Deployment, CellsNearFiltersByCarrier) {
  Deployment net;
  const auto a = net.add_carrier({0, "A", "A", "US"});
  const auto b = net.add_carrier({0, "B", "B", "US"});
  net.add_cell(test::lte_cell(1, a, {0, 0}, 850, test::basic_lte_config()));
  net.add_cell(test::lte_cell(2, b, {10, 0}, 850, test::basic_lte_config()));
  const auto hits_a = net.cells_near({0, 0}, 1000.0, a);
  ASSERT_EQ(hits_a.size(), 1u);
  EXPECT_EQ(net.cells()[hits_a[0]].id, 1u);
  EXPECT_EQ(net.cells_near({0, 0}, 1000.0, 42).size(), 0u);
}

TEST(Deployment, FindCell) {
  Deployment net;
  const auto a = net.add_carrier({0, "A", "A", "US"});
  net.add_cell(test::lte_cell(7, a, {0, 0}, 850, test::basic_lte_config()));
  ASSERT_NE(net.find_cell(7), nullptr);
  EXPECT_EQ(net.find_cell(8), nullptr);
}

TEST(Deployment, RejectsDuplicateCellId) {
  Deployment net;
  const auto a = net.add_carrier({0, "A", "A", "US"});
  const auto b = net.add_carrier({0, "B", "B", "US"});
  net.add_cell(test::lte_cell(7, a, {0, 0}, 850, test::basic_lte_config()));
  // Same id on another carrier and elsewhere: still a duplicate.
  EXPECT_THROW(net.add_cell(test::lte_cell(7, b, {5'000, 0}, 850,
                                           test::basic_lte_config())),
               std::invalid_argument);
  EXPECT_EQ(net.cells().size(), 1u);
  EXPECT_TRUE(net.cells_near({5'000, 0}, 100.0, b).empty());
  EXPECT_EQ(net.find_cell(7)->carrier, a);
}

TEST(Deployment, IdIndexFindsCellsAddedInAnyOrder) {
  Deployment net;
  const auto a = net.add_carrier({0, "A", "A", "US"});
  std::vector<CellId> ids;
  for (CellId id = 1; id <= 200; ++id) ids.push_back(id * 7919 % 1000);
  for (std::size_t i = 0; i < ids.size(); ++i)
    net.add_cell(test::lte_cell(ids[i], a, {static_cast<double>(i), 0}, 850,
                                test::basic_lte_config()));
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(net.cell_index(ids[i]), i);
    ASSERT_NE(net.find_cell(ids[i]), nullptr);
    EXPECT_EQ(net.index_of(*net.find_cell(ids[i])), i);
  }
  EXPECT_EQ(net.cell_index(1001), Deployment::kNoCell);
  EXPECT_EQ(net.find_cell(1001), nullptr);
  net.update_lte_config(ids[50], test::basic_lte_config(2));
  EXPECT_EQ(net.cells()[50].lte_config.serving.priority, 2);
  EXPECT_EQ(net.cells()[51].lte_config.serving.priority, 4);
}

TEST(Deployment, LteBandPrecomputedPerCell) {
  Deployment net;
  const auto a = net.add_carrier({0, "A", "A", "US"});
  net.add_cell(test::lte_cell(1, a, {0, 0}, 850, test::basic_lte_config()));
  net.add_cell(test::lte_cell(2, a, {0, 0}, 9820, test::basic_lte_config()));
  net.add_cell(test::lte_cell(3, a, {0, 0}, 60'000, test::basic_lte_config()));
  Cell umts;
  umts.id = 4;
  umts.carrier = a;
  umts.channel = {spectrum::Rat::kUmts, 850};
  net.add_cell(umts);
  EXPECT_EQ(net.lte_band(0), 2);
  EXPECT_EQ(net.lte_band(1), 30);
  EXPECT_EQ(net.lte_band(2), -1);  // outside the band table
  EXPECT_EQ(net.lte_band(3), -1);  // not LTE
}

TEST(Deployment, UpdateLteConfig) {
  Deployment net;
  const auto a = net.add_carrier({0, "A", "A", "US"});
  net.add_cell(test::lte_cell(7, a, {0, 0}, 850, test::basic_lte_config(4)));
  auto cfg = test::basic_lte_config(6);
  net.update_lte_config(7, cfg);
  EXPECT_EQ(net.find_cell(7)->lte_config.serving.priority, 6);
  EXPECT_THROW(net.update_lte_config(99, cfg), std::invalid_argument);
}

TEST(Deployment, RsrpDeterministicAndDistanceMonotone) {
  auto net = test::two_cell_corridor(test::a3_event(3.0));
  const Cell& cell = net.cells()[0];
  const double near = net.rsrp_at(cell, {100, 0});
  const double far = net.rsrp_at(cell, {1900, 0});
  EXPECT_GT(near, far);
  EXPECT_DOUBLE_EQ(net.rsrp_at(cell, {100, 0}), near);
}

TEST(Deployment, CochannelInterferenceExcludesServing) {
  auto net = test::two_cell_corridor(test::a3_event(3.0));
  const Cell& serving = net.cells()[0];
  const auto interference = net.cochannel_interference(serving, {1000, 0});
  // Only the other co-channel cell interferes.
  ASSERT_EQ(interference.size(), 1u);
  EXPECT_NEAR(interference[0], net.rsrp_at(net.cells()[1], {1000, 0}), 1e-9);
}

TEST(Deployment, CochannelIgnoresOtherChannels) {
  Deployment net;
  net.set_shadowing(1, 0.0, 50.0);
  const auto a = net.add_carrier({0, "A", "A", "US"});
  net.add_cell(test::lte_cell(1, a, {0, 0}, 850, test::basic_lte_config()));
  net.add_cell(test::lte_cell(2, a, {100, 0}, 1975, test::basic_lte_config()));
  EXPECT_TRUE(net.cochannel_interference(net.cells()[0], {50, 0}).empty());
}

TEST(Cell, IsLte) {
  Cell cell;
  cell.channel = {spectrum::Rat::kLte, 850};
  EXPECT_TRUE(cell.is_lte());
  cell.channel.rat = spectrum::Rat::kUmts;
  EXPECT_FALSE(cell.is_lte());
}

}  // namespace
}  // namespace mmlab::net
