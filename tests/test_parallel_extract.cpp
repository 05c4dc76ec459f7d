// Parallel extraction pipeline: the parallel path must be bit-identical to
// serial extraction, shard merging must be deterministic, and the crawl
// engine must cope with non-dense carrier ids.
#include "mmlab/core/parallel_extract.hpp"

#include <gtest/gtest.h>

#include "mmlab/sim/crawl.hpp"
#include "test_helpers.hpp"

namespace mmlab::core {
namespace {

using config::ParamId;

sim::CrawlResult small_crawl(double scale = 0.02, std::uint64_t seed = 5) {
  netgen::WorldOptions wopts;
  wopts.seed = seed;
  wopts.scale = scale;
  auto world = netgen::generate_world(wopts);
  sim::CrawlOptions copts;
  return sim::run_crawl(world, copts);
}

ConfigDatabase serial_extract(const sim::CrawlResult& crawl,
                              std::vector<ExtractStats>* per_log = nullptr) {
  ConfigDatabase db;
  for (const auto& log : crawl.logs) {
    const auto stats = extract_configs(log.acronym, log.diag_log, db);
    if (per_log) per_log->push_back(stats);
  }
  return db;
}

TEST(ParallelExtract, IdenticalToSerial) {
  const auto crawl = small_crawl();
  const ConfigDatabase serial = serial_extract(crawl);

  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    ConfigDatabase parallel;
    const auto stats = extract_configs_parallel(crawl.logs, parallel, threads);
    EXPECT_EQ(stats.threads, std::min<std::size_t>(threads, crawl.logs.size()));
    // Carrier set, cell set, and every observation list must match exactly.
    ASSERT_EQ(parallel.carriers().size(), serial.carriers().size());
    for (const auto& [carrier, cells] : serial.carriers()) {
      const auto* pcells = parallel.cells_of(carrier);
      ASSERT_NE(pcells, nullptr) << carrier;
      ASSERT_EQ(pcells->size(), cells.size()) << carrier;
      for (const auto& [id, rec] : cells)
        EXPECT_EQ(pcells->at(id), rec) << carrier << " cell " << id;
    }
    EXPECT_TRUE(parallel == serial);
  }
}

TEST(ParallelExtract, CellsHoldNoSpareCapacity) {
  // Pins add_snapshot's exact reserve: extract_configs hands back every
  // cell with no spare capacity, serially and through the merge.  A change
  // to amortised growth must keep this, e.g. by shrinking each log's cells.
  const auto crawl = small_crawl();
  const auto expect_tight = [](const ConfigDatabase& db, const char* what) {
    std::size_t cells = 0;
    for (const auto& [carrier, map] : db.carriers())
      for (const auto& [id, rec] : map) {
        ++cells;
        EXPECT_EQ(rec.observations.capacity(), rec.observations.size())
            << what << " " << carrier << " cell " << id;
      }
    EXPECT_GT(cells, 0u) << what;
  };
  ConfigDatabase serial;
  for (const auto& log : crawl.logs) {
    extract_configs(log.acronym, log.diag_log, serial);
    expect_tight(serial, "serial");
  }
  ConfigDatabase parallel;
  extract_configs_parallel(crawl.logs, parallel, 4);
  expect_tight(parallel, "parallel");
}

TEST(ParallelExtract, StatsAggregatePerLog) {
  const auto crawl = small_crawl();
  std::vector<ExtractStats> serial_stats;
  serial_extract(crawl, &serial_stats);

  ConfigDatabase db;
  const auto pstats = extract_configs_parallel(crawl.logs, db, 4);
  ASSERT_EQ(pstats.per_log.size(), crawl.logs.size());
  ExtractStats sum;
  for (std::size_t i = 0; i < crawl.logs.size(); ++i) {
    EXPECT_EQ(pstats.per_log[i], serial_stats[i]) << "log " << i;
    sum += pstats.per_log[i];
  }
  EXPECT_EQ(pstats.totals, sum);
  std::size_t bytes = 0;
  for (const auto& log : crawl.logs) bytes += log.diag_log.size();
  EXPECT_EQ(pstats.totals.bytes, bytes);
  EXPECT_GT(pstats.totals.records, 0u);
  EXPECT_GT(pstats.records_per_second(), 0.0);
  EXPECT_GT(pstats.bytes_per_second(), 0.0);
}

TEST(ParallelExtract, EmptyInput) {
  ConfigDatabase db;
  const auto stats = extract_configs_parallel(std::vector<LogView>{}, db, 4);
  EXPECT_EQ(stats.totals.records, 0u);
  EXPECT_EQ(db.total_cells(), 0u);
  EXPECT_EQ(stats.records_per_second(), 0.0);
}

// --- ConfigDatabase::merge ---------------------------------------------------

std::vector<config::ParamObservation> one_param(double value) {
  return {{config::lte_param(ParamId::kServingPriority), value}};
}

TEST(DatabaseMerge, MovesDisjointCarriers) {
  ConfigDatabase a, b;
  a.add_snapshot("A", 1, spectrum::Rat::kLte, 850, {0, 0}, SimTime{10},
                 one_param(3.0));
  b.add_snapshot("B", 2, spectrum::Rat::kLte, 1975, {5, 5}, SimTime{20},
                 one_param(5.0));
  a.merge(std::move(b));
  EXPECT_EQ(a.total_cells(), 2u);
  EXPECT_EQ(a.cell_count("A"), 1u);
  EXPECT_EQ(a.cell_count("B"), 1u);
  EXPECT_EQ(b.total_cells(), 0u);  // drained
}

TEST(DatabaseMerge, InterleavesSharedCellByTimestamp) {
  ConfigDatabase a, b;
  a.add_snapshot("A", 1, spectrum::Rat::kLte, 850, {0, 0}, SimTime{100},
                 one_param(3.0));
  b.add_snapshot("A", 1, spectrum::Rat::kLte, 850, {9, 9}, SimTime{50},
                 one_param(4.0));
  b.add_snapshot("A", 1, spectrum::Rat::kLte, 850, {9, 9}, SimTime{150},
                 one_param(5.0));
  a.merge(std::move(b));
  const auto& rec = a.cells_of("A")->at(1);
  ASSERT_EQ(rec.observations.size(), 3u);
  EXPECT_EQ(rec.observations[0].t, SimTime{50});
  EXPECT_EQ(rec.observations[1].t, SimTime{100});
  EXPECT_EQ(rec.observations[2].t, SimTime{150});
  // Metadata follows the earliest observation (the shard's first camp).
  EXPECT_EQ(rec.position, (geo::Point{9, 9}));
}

TEST(DatabaseMerge, DeterministicAcrossMergeOrderOfDisjointShards) {
  // Shards covering distinct carriers commute because the carrier map is
  // keyed by name.
  ConfigDatabase ab1, ab2, a, b, a2, b2;
  a.add_snapshot("A", 1, spectrum::Rat::kLte, 850, {0, 0}, SimTime{1},
                 one_param(1.0));
  b.add_snapshot("T", 7, spectrum::Rat::kLte, 850, {0, 0}, SimTime{2},
                 one_param(2.0));
  a2.add_snapshot("A", 1, spectrum::Rat::kLte, 850, {0, 0}, SimTime{1},
                  one_param(1.0));
  b2.add_snapshot("T", 7, spectrum::Rat::kLte, 850, {0, 0}, SimTime{2},
                  one_param(2.0));
  ab1.merge(std::move(a));
  ab1.merge(std::move(b));
  ab2.merge(std::move(b2));
  ab2.merge(std::move(a2));
  EXPECT_TRUE(ab1 == ab2);
}

TEST(DatabaseMerge, EqualTimestampsKeepThisBeforeOtherOrder) {
  // merge() now uses inplace_merge over the two timestamp-sorted halves;
  // the stability contract (same-timestamp observations keep this-before-
  // other order) must survive the change.
  ConfigDatabase a, b;
  a.add_snapshot("A", 1, spectrum::Rat::kLte, 850, {0, 0}, SimTime{100},
                 one_param(1.0));
  a.add_snapshot("A", 1, spectrum::Rat::kLte, 850, {0, 0}, SimTime{200},
                 one_param(2.0));
  b.add_snapshot("A", 1, spectrum::Rat::kLte, 850, {0, 0}, SimTime{100},
                 one_param(3.0));
  b.add_snapshot("A", 1, spectrum::Rat::kLte, 850, {0, 0}, SimTime{200},
                 one_param(4.0));
  a.merge(std::move(b));
  const auto& obs = a.cells_of("A")->at(1).observations;
  ASSERT_EQ(obs.size(), 4u);
  EXPECT_EQ(obs[0].value, 1.0);  // t=100: a's before b's
  EXPECT_EQ(obs[1].value, 3.0);
  EXPECT_EQ(obs[2].value, 2.0);  // t=200: a's before b's
  EXPECT_EQ(obs[3].value, 4.0);
}

TEST(DatabaseMerge, UnsortedHandBuiltShardsStillSortStably) {
  // Hand-built databases (upsert_cell with out-of-order appends) violate
  // the both-halves-sorted precondition of the O(n) merge; merge() must
  // detect that and fall back to the stable full sort.
  ConfigDatabase a, b;
  auto& ra = a.upsert_cell("A", 1);
  ra.observations = {{config::lte_param(ParamId::kServingPriority), 1.0,
                      SimTime{300}, -1},
                     {config::lte_param(ParamId::kServingPriority), 2.0,
                      SimTime{100}, -1}};
  auto& rb = b.upsert_cell("A", 1);
  rb.observations = {{config::lte_param(ParamId::kServingPriority), 3.0,
                      SimTime{200}, -1},
                     {config::lte_param(ParamId::kServingPriority), 4.0,
                      SimTime{100}, -1}};
  a.merge(std::move(b));
  const auto& obs = a.cells_of("A")->at(1).observations;
  ASSERT_EQ(obs.size(), 4u);
  // Timestamp-sorted, with the stable tie-break preserving concatenation
  // order at t=100 (a's 2.0 before b's 4.0).
  EXPECT_EQ(obs[0].value, 2.0);
  EXPECT_EQ(obs[1].value, 4.0);
  EXPECT_EQ(obs[2].value, 3.0);
  EXPECT_EQ(obs[3].value, 1.0);
}

// --- crawl with non-dense carrier ids ---------------------------------------

TEST(Crawl, SurvivesNonDenseCarrierIds) {
  // Carrier ids 3 and 7 with nothing in between: the crawl engine must not
  // use ids as vector positions.
  netgen::GeneratedWorld world;
  world.options.window_days = 30.0;

  geo::City city;
  city.id = 0;
  city.origin = {-2000, -2000};
  city.extent_m = 8000;
  world.network.add_city(city);

  net::Carrier c1;
  c1.id = 3;
  c1.acronym = "X3";
  net::Carrier c2;
  c2.id = 7;
  c2.acronym = "X7";
  ASSERT_EQ(world.network.add_carrier(c1), 3);
  ASSERT_EQ(world.network.add_carrier(c2), 7);
  EXPECT_EQ(world.network.carrier_position(3), 0u);
  EXPECT_EQ(world.network.carrier_position(7), 1u);
  EXPECT_EQ(world.network.carrier_position(0), net::Deployment::kNoCarrier);

  world.network.add_cell(test::lte_cell(1, 3, {0, 0}, 850,
                                        test::basic_lte_config(3)));
  world.network.add_cell(test::lte_cell(2, 3, {500, 0}, 850,
                                        test::basic_lte_config(4)));
  world.network.add_cell(test::lte_cell(3, 7, {0, 500}, 1975,
                                        test::basic_lte_config(5)));
  world.update_schedule.resize(world.network.cells().size());

  sim::CrawlOptions copts;
  copts.mean_rounds = 2.0;
  const auto crawl = sim::run_crawl(world, copts);
  ASSERT_EQ(crawl.logs.size(), 2u);
  EXPECT_EQ(crawl.logs[0].carrier, 3);
  EXPECT_EQ(crawl.logs[0].acronym, "X3");
  EXPECT_EQ(crawl.logs[1].carrier, 7);
  EXPECT_EQ(crawl.logs[1].acronym, "X7");

  ConfigDatabase db;
  extract_configs_parallel(crawl.logs, db, 2);
  EXPECT_EQ(db.cell_count("X3"), 2u);
  EXPECT_EQ(db.cell_count("X7"), 1u);
  const auto& x7 = db.cells_of("X7")->at(3);
  const auto prio =
      x7.unique_values(config::lte_param(ParamId::kServingPriority));
  ASSERT_FALSE(prio.empty());
  EXPECT_DOUBLE_EQ(prio.front(), 5.0);
}

TEST(Deployment, CollidingCarrierIdGetsFreshId) {
  net::Deployment net;
  net::Carrier c1;
  c1.id = 2;
  net::Carrier c2;
  c2.id = 2;  // collides; must be reassigned past the max
  EXPECT_EQ(net.add_carrier(c1), 2);
  const auto reassigned = net.add_carrier(c2);
  EXPECT_EQ(reassigned, 3);
  EXPECT_EQ(net.carriers().size(), 2u);
  EXPECT_NE(net.find_carrier(2), nullptr);
  EXPECT_NE(net.find_carrier(reassigned), nullptr);
}

}  // namespace
}  // namespace mmlab::core
