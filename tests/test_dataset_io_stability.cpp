#include <gtest/gtest.h>

#include <limits>
#include <sstream>

#include "mmlab/core/dataset_io.hpp"
#include "mmlab/core/extractor.hpp"
#include "mmlab/core/stability.hpp"
#include "mmlab/sim/crawl.hpp"

namespace mmlab::core {
namespace {

using config::ParamId;

TEST(ParamNames, ParseRoundTripLte) {
  for (std::uint16_t i = 0; i < config::kLteParamCount; ++i) {
    const config::ParamKey key{spectrum::Rat::kLte, i};
    const auto parsed = config::parse_param_name(config::param_name(key));
    ASSERT_TRUE(parsed.has_value()) << config::param_name(key);
    EXPECT_EQ(*parsed, key);
  }
}

TEST(ParamNames, ParseRoundTripLegacy) {
  for (const auto rat : spectrum::kAllRats) {
    if (rat == spectrum::Rat::kLte) continue;
    for (std::uint16_t id : {0, 1, 2, 3, 4, 17, 63}) {
      const config::ParamKey key{rat, id};
      const auto parsed = config::parse_param_name(config::param_name(key));
      ASSERT_TRUE(parsed.has_value()) << config::param_name(key);
      EXPECT_EQ(*parsed, key);
    }
  }
}

TEST(ParamNames, ParseRejectsUnknown) {
  EXPECT_FALSE(config::parse_param_name("NotAParam").has_value());
  EXPECT_FALSE(config::parse_param_name("umts.bogus").has_value());
  EXPECT_FALSE(config::parse_param_name("gsm[xyz]").has_value());
  EXPECT_FALSE(config::parse_param_name("").has_value());
}

ConfigDatabase crawled_db() {
  auto world = netgen::generate_world({.seed = 3, .scale = 0.01});
  sim::CrawlOptions copts;
  auto crawl = sim::run_crawl(world, copts);
  ConfigDatabase db;
  for (const auto& log : crawl.logs)
    extract_configs(log.acronym, log.diag_log, db);
  return db;
}

TEST(DatasetIo, SaveLoadRoundTrip) {
  const auto db = crawled_db();
  std::stringstream buffer;
  save_dataset(db, buffer);

  ConfigDatabase loaded;
  const auto stats = load_dataset(buffer, loaded);
  ASSERT_TRUE(stats.ok()) << stats.error_message();
  EXPECT_EQ(stats.value().bad_rows, 0u);
  EXPECT_EQ(stats.value().rows, db.total_samples());

  EXPECT_EQ(loaded.total_cells(), db.total_cells());
  EXPECT_EQ(loaded.total_samples(), db.total_samples());
  // Statistics computed from the reloaded dataset match.
  for (const auto& [carrier, cells] : db.carriers()) {
    for (const auto id :
         {ParamId::kServingPriority, ParamId::kA3Offset, ParamId::kQHyst}) {
      const auto key = config::lte_param(id);
      EXPECT_DOUBLE_EQ(loaded.values(carrier, key).simpson_index(),
                       db.values(carrier, key).simpson_index())
          << carrier << " " << config::param_name(key);
    }
  }
  // Context-grouped queries survive the round trip too.
  const auto orig = db.values_by_context(
      "A", config::lte_param(ParamId::kNeighborPriority));
  const auto redo = loaded.values_by_context(
      "A", config::lte_param(ParamId::kNeighborPriority));
  EXPECT_EQ(orig.size(), redo.size());
}

TEST(DatasetIo, RoundTripIsExact) {
  // Stronger than statistics agreement: the reloaded database equals the
  // crawled one field for field (values and positions are written in
  // shortest round-trip form, so nothing drifts).
  const auto db = crawled_db();
  std::stringstream buffer;
  save_dataset(db, buffer);
  ConfigDatabase loaded;
  const auto stats = load_dataset(buffer, loaded);
  ASSERT_TRUE(stats.ok()) << stats.error_message();
  EXPECT_EQ(stats.value().bad_rows, 0u);
  EXPECT_EQ(loaded, db);
}

TEST(DatasetIo, ResaveIsByteIdentical) {
  const auto db = crawled_db();
  std::stringstream first;
  save_dataset(db, first);
  ConfigDatabase loaded;
  ASSERT_TRUE(load_dataset(first, loaded).ok());
  std::stringstream second;
  save_dataset(loaded, second);
  EXPECT_EQ(first.str(), second.str());
}

TEST(DatasetIo, ExtremeDoublesRoundTripExactly) {
  ConfigDatabase db;
  const auto ps = config::lte_param(ParamId::kServingPriority);
  const double values[] = {0.1,
                           1.0 / 3.0,
                           -1.7976931348623157e308,
                           2.2250738585072014e-308,
                           std::numeric_limits<double>::denorm_min(),
                           123456789.123456789};
  std::uint32_t cell = 1;
  for (const double v : values)
    db.add_snapshot("A", cell++, spectrum::Rat::kLte, 1975,
                    {8.7e307, -8.7e307}, SimTime{0}, {{ps, v, -1}});
  std::stringstream buffer;
  save_dataset(db, buffer);
  ConfigDatabase loaded;
  ASSERT_TRUE(load_dataset(buffer, loaded).ok());
  EXPECT_EQ(loaded, db);
}

TEST(DatasetIo, LoadRejectsBadHeader) {
  std::stringstream buffer("not,a,header\n1,2,3\n");
  ConfigDatabase db;
  EXPECT_FALSE(load_dataset(buffer, db).ok());
  // A file from the retired MMDS v1 binary format is not a CSV either.
  const char v1_head[] = {'M', 'M', 'D', 'S', 1, 0, 1, 1, 'A', 0};
  std::stringstream v1(std::string(v1_head, sizeof(v1_head)));
  EXPECT_FALSE(load_dataset(v1, db).ok());
}

TEST(DatasetIo, LoadSkipsMalformedRows) {
  std::stringstream buffer;
  buffer << "carrier,cell_id,rat,channel,x_m,y_m,t_ms,param,value,context\n"
         << "A,1,0,850,0,0,0,Ps,3,-1\n"
         << "A,1,0,850,0,0,0,NotAParam,3,-1\n"
         << "A,1,garbage,850,0,0,0,Ps,3,-1\n"
         << "short,row\n";
  ConfigDatabase db;
  const auto stats = load_dataset(buffer, db);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().rows, 4u);
  EXPECT_EQ(stats.value().bad_rows, 3u);
  EXPECT_EQ(db.total_samples(), 1u);
}

TEST(DatasetIo, LoadRejectsOutOfRangeAndNonFinite) {
  // Negative ids used to wrap through std::stoul into huge cell ids, and
  // nan/inf values used to enter the database silently; all are bad rows.
  std::stringstream buffer;
  buffer << "carrier,cell_id,rat,channel,x_m,y_m,t_ms,param,value,context\n"
         << "A,-5,0,850,0,0,0,Ps,3,-1\n"          // negative cell_id
         << "A,1,0,-850,0,0,0,Ps,3,-1\n"          // negative channel
         << "A,1,0,850,0,0,0,Ps,nan,-1\n"         // non-finite value
         << "A,1,0,850,0,0,0,Ps,inf,-1\n"         // non-finite value
         << "A,1,0,850,nan,0,0,Ps,3,-1\n"         // non-finite position
         << "A,99999999999,0,850,0,0,0,Ps,3,-1\n" // cell_id > 2^32
         << "A,1,0,850,0,0,0,Ps,3,-1\n";          // control: fine
  ConfigDatabase db;
  const auto stats = load_dataset(buffer, db);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().rows, 7u);
  EXPECT_EQ(stats.value().bad_rows, 6u);
  EXPECT_EQ(db.total_samples(), 1u);
  ASSERT_NE(db.cells_of("A"), nullptr);
  EXPECT_EQ(db.cells_of("A")->count(1), 1u);
}

// --- stability ---------------------------------------------------------------

HandoffInstance switch_at(Millis t, std::uint32_t from, std::uint32_t to) {
  HandoffInstance inst;
  inst.exec_time = SimTime{t};
  inst.from_cell = from;
  inst.to_cell = to;
  return inst;
}

TEST(Stability, DetectsPingPong) {
  const std::vector<HandoffInstance> trace = {
      switch_at(0, 1, 2), switch_at(3'000, 2, 1), switch_at(20'000, 1, 3)};
  const auto stats = analyze_pingpong(trace);
  EXPECT_EQ(stats.handoffs, 3u);
  EXPECT_EQ(stats.pingpongs, 1u);
  EXPECT_NEAR(stats.pingpong_fraction(), 1.0 / 3.0, 1e-9);
}

TEST(Stability, WindowBoundsPingPong) {
  const std::vector<HandoffInstance> trace = {switch_at(0, 1, 2),
                                              switch_at(60'000, 2, 1)};
  EXPECT_EQ(analyze_pingpong(trace, 10'000).pingpongs, 0u);
  EXPECT_EQ(analyze_pingpong(trace, 120'000).pingpongs, 1u);
}

TEST(Stability, DetectsThreeCellLoop) {
  const std::vector<HandoffInstance> trace = {
      switch_at(0, 1, 2), switch_at(2'000, 2, 3), switch_at(4'000, 3, 1)};
  const auto stats = analyze_pingpong(trace);
  EXPECT_EQ(stats.loops3, 1u);
  EXPECT_EQ(stats.pingpongs, 0u);
}

TEST(Stability, ForwardProgressIsClean) {
  const std::vector<HandoffInstance> trace = {
      switch_at(0, 1, 2), switch_at(5'000, 2, 3), switch_at(10'000, 3, 4)};
  const auto stats = analyze_pingpong(trace);
  EXPECT_EQ(stats.pingpongs, 0u);
  EXPECT_EQ(stats.loops3, 0u);
}

std::vector<config::ParamObservation> cell_view(int own_priority,
                                                std::int64_t nbr_channel,
                                                double nbr_priority) {
  return {
      {config::lte_param(ParamId::kServingPriority),
       static_cast<double>(own_priority), -1},
      {config::lte_param(ParamId::kNeighborPriority), nbr_priority,
       nbr_channel},
  };
}

TEST(Stability, DetectsPriorityLoop) {
  ConfigDatabase db;
  // Cells on 1975 say 9820 is higher; cells on 9820 say 1975 is higher.
  db.add_snapshot("A", 1, spectrum::Rat::kLte, 1975, {0, 0}, SimTime{0},
                  cell_view(3, 9820, 5));
  db.add_snapshot("A", 2, spectrum::Rat::kLte, 9820, {0, 0}, SimTime{0},
                  cell_view(4, 1975, 6));
  const auto loops = detect_priority_loops(db, "A");
  ASSERT_EQ(loops.size(), 1u);
  EXPECT_EQ(loops[0].channel_a, 1975u);
  EXPECT_EQ(loops[0].channel_b, 9820u);
  EXPECT_EQ(loops[0].cells_a, 1u);
  EXPECT_EQ(loops[0].cells_b, 1u);
}

TEST(Stability, ConsistentPrioritiesNoLoop) {
  ConfigDatabase db;
  // Both sides agree 9820 is the higher layer: no loop.
  db.add_snapshot("A", 1, spectrum::Rat::kLte, 1975, {0, 0}, SimTime{0},
                  cell_view(3, 9820, 5));
  db.add_snapshot("A", 2, spectrum::Rat::kLte, 9820, {0, 0}, SimTime{0},
                  cell_view(5, 1975, 3));
  EXPECT_TRUE(detect_priority_loops(db, "A").empty());
}

TEST(Stability, UsesLatestAdvertisedPriority) {
  ConfigDatabase db;
  // The conflicting advertisement was later corrected.
  db.add_snapshot("A", 1, spectrum::Rat::kLte, 1975, {0, 0}, SimTime{0},
                  cell_view(3, 9820, 5));
  db.add_snapshot("A", 1, spectrum::Rat::kLte, 1975, {0, 0}, SimTime{100},
                  cell_view(3, 9820, 2));
  db.add_snapshot("A", 2, spectrum::Rat::kLte, 9820, {0, 0}, SimTime{0},
                  cell_view(4, 1975, 6));
  EXPECT_TRUE(detect_priority_loops(db, "A").empty());
}

}  // namespace
}  // namespace mmlab::core
