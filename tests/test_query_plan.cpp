// Query planning + cross-carrier scheduling (DESIGN.md §13).
//
// The contract under test: a planned fold — any combination of carrier
// subset, cell-id range, and ParamKey predicate — answers bit-identically
// to running the plain path over a pre-filtered database, for every thread
// count and window size; the planner's block selection is exactly the
// manifest-derivable minimum; and the cross-carrier scheduler returns the
// same bits as the sequential per-carrier loop while keeping the total
// concurrent parse window inside the one shared budget.  Suites are named
// QueryPlan / CrossCarrier so the TSan CI job picks them up.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "mmlab/core/analysis.hpp"
#include "mmlab/core/cell_fold.hpp"
#include "mmlab/core/database.hpp"
#include "mmlab/store/analytics.hpp"
#include "mmlab/store/direct_fold.hpp"
#include "mmlab/store/mmds2.hpp"
#include "mmlab/store/query_plan.hpp"
#include "mmlab/store/shard_set.hpp"
#include "mmlab/store/shard_writer.hpp"
#include "mmlab/util/rng.hpp"
#include "figures_oracle.hpp"

namespace mmlab::store {
namespace {

namespace fs = std::filesystem;
using test::expect_bits;
using test::expect_counts;
using test::expect_diversity;
using test::expect_gaps;
using test::expect_mix_matches_scans;
using test::filter_db;

class StoreDir {
 public:
  explicit StoreDir(const std::string& tag)
      : path_((fs::path(::testing::TempDir()) / ("mmlab_plan_" + tag))
                  .string()) {
    fs::remove_all(path_);
  }
  ~StoreDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Same adversarial shape as test_direct_fold.cpp: several carriers,
/// multi-visit cells (so cells span blocks and the merge matters), mixed
/// RATs, contexts, repeated values, LTE keys firing often.
core::ConfigDatabase random_db(std::uint64_t seed, std::size_t carriers = 3,
                               std::size_t cells_per_carrier = 40,
                               int max_visits = 3) {
  Rng rng(seed);
  core::ConfigDatabase db;
  for (std::size_t c = 0; c < carriers; ++c) {
    std::string name = "C";
    name += std::to_string(c);
    for (std::size_t i = 0; i < cells_per_carrier; ++i) {
      const auto id = static_cast<std::uint32_t>(1 + rng.below(1'000'000));
      const auto rat = rng.chance(0.6) ? spectrum::Rat::kLte
                                       : static_cast<spectrum::Rat>(
                                             rng.below(4));
      const auto channel = static_cast<std::uint32_t>(rng.below(40));
      const geo::Point pos{rng.uniform(-5e4, 5e4), rng.uniform(-5e4, 5e4)};
      const int visits = 1 + static_cast<int>(rng.below(
                                 static_cast<std::uint64_t>(max_visits)));
      SimTime t{static_cast<Millis>(rng.below(1'000'000))};
      for (int v = 0; v < visits; ++v) {
        std::vector<config::ParamObservation> params;
        const int n = 1 + static_cast<int>(rng.below(6));
        for (int p = 0; p < n; ++p) {
          config::ParamObservation obs;
          obs.key = config::ParamKey{rat,
                                     static_cast<std::uint16_t>(rng.below(8))};
          obs.value = static_cast<double>(rng.below(5)) - 2.0;
          obs.context =
              rng.chance(0.3) ? static_cast<std::int64_t>(rng.below(40)) : -1;
          params.push_back(obs);
        }
        if (rat == spectrum::Rat::kLte && rng.chance(0.7)) {
          params.push_back({config::lte_param(config::ParamId::kServingPriority),
                            static_cast<double>(rng.below(8)), -1});
          params.push_back(
              {config::lte_param(config::ParamId::kNeighborPriority),
               static_cast<double>(rng.below(8)),
               static_cast<std::int64_t>(rng.below(40))});
        }
        db.add_snapshot(name, id, rat, channel, pos, t, params);
        t += static_cast<Millis>(1 + rng.below(1'000'000));
      }
    }
  }
  return db;
}

void save_small_blocks(const core::ConfigDatabase& db, const std::string& dir) {
  WriterOptions wopts;
  wopts.target_block_bytes = 1024;  // many blocks, many shards
  wopts.target_shard_bytes = 8192;
  save_database(db, dir, wopts);
}

/// Median cell id of the whole database — a cell range split point that
/// actually cuts through the data.
std::uint32_t median_cell_id(const core::ConfigDatabase& db) {
  std::vector<std::uint32_t> ids;
  for (const auto& [carrier, cells] : db.carriers())
    for (const auto& [id, rec] : cells) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  return ids.empty() ? 0 : ids[ids.size() / 2];
}

// --- core::ParamKeySet -------------------------------------------------------

TEST(QueryPlan, ParamKeySetSortsDeduplicatesAndMasks) {
  const auto serving = config::lte_param(config::ParamId::kServingPriority);
  const auto neighbor = config::lte_param(config::ParamId::kNeighborPriority);
  core::ParamKeySet set({neighbor, serving, neighbor});
  EXPECT_EQ(set.size(), 2u);
  EXPECT_TRUE(set.contains(serving));
  EXPECT_TRUE(set.contains(neighbor));
  EXPECT_FALSE(set.contains(config::lte_param(config::ParamId::kQHyst)));
  EXPECT_TRUE(core::ParamKeySet{}.empty());

  const std::vector<config::ParamKey> table = {
      serving, config::lte_param(config::ParamId::kQHyst), neighbor};
  const auto mask = set.index_mask(table);
  ASSERT_EQ(mask.size(), table.size());
  EXPECT_EQ(mask[0], 1);
  EXPECT_EQ(mask[1], 0);
  EXPECT_EQ(mask[2], 1);
}

// --- plan selection ----------------------------------------------------------

TEST(QueryPlan, CarrierPredicateSelectsExactlyThatCarriersBlocks) {
  StoreDir dir("carrier");
  const auto db = random_db(101);
  save_small_blocks(db, dir.path());
  auto set = ShardSet::open(dir.path());
  ASSERT_TRUE(set.ok()) << set.error_message();
  const auto& m = set.value().manifest();

  Query q;
  q.carriers = {"C1"};
  const QueryPlan plan(set.value(), q);
  ASSERT_EQ(plan.carriers().size(), 1u);
  const auto& cp = plan.carriers()[0];
  EXPECT_EQ(cp.name, "C1");
  std::size_t c1_blocks = 0;
  for (const auto& ref : set.value().blocks())
    c1_blocks += m.carriers[ref.info->carrier_index] == "C1";
  EXPECT_EQ(cp.blocks.size(), c1_blocks);
  for (const std::size_t b : cp.blocks)
    EXPECT_EQ(m.carriers[set.value().blocks()[b].info->carrier_index], "C1");
  EXPECT_EQ(plan.blocks_selected() + plan.blocks_skipped(),
            set.value().blocks().size());
  EXPECT_GT(plan.blocks_skipped(), 0u);  // the other two carriers
  EXPECT_TRUE(plan.param_mask().empty());
  EXPECT_FALSE(plan.filtered());  // carrier pruning alone is not a wire filter

  Query all;
  const QueryPlan full(set.value(), all);
  EXPECT_TRUE(full.query().selects_all());
  EXPECT_EQ(full.blocks_skipped(), 0u);
  EXPECT_EQ(full.blocks_selected(), set.value().blocks().size());

  Query unknown;
  unknown.carriers = {"NOPE"};
  const QueryPlan none(set.value(), unknown);
  EXPECT_TRUE(none.carriers().empty());
  EXPECT_EQ(none.blocks_selected(), 0u);
  EXPECT_EQ(none.blocks_skipped(), set.value().blocks().size());
}

TEST(QueryPlan, CellRangePruningMatchesManifestRangesAndKeepsFrontier) {
  StoreDir dir("range");
  const auto db = random_db(103, 2, 120, 2);
  save_small_blocks(db, dir.path());
  auto set = ShardSet::open(dir.path());
  ASSERT_TRUE(set.ok()) << set.error_message();
  const std::uint32_t mid = median_cell_id(db);

  Query q;
  q.min_cell = mid / 4;
  q.max_cell = mid;
  const QueryPlan plan(set.value(), q);
  EXPECT_TRUE(plan.filtered());
  std::uint64_t pruned = 0;
  for (const auto& cp : plan.carriers()) {
    pruned += cp.blocks_pruned;
    for (const std::size_t b : cp.blocks) {
      const BlockInfo& info = *set.value().blocks()[b].info;
      EXPECT_TRUE(info.overlaps(q.min_cell, q.max_cell))
          << "selected block cannot contain an in-range id";
    }
    // Suffix-min invariant over the *selected* subset.
    ASSERT_EQ(cp.safe_floor.size(), cp.blocks.size());
    for (std::size_t i = 0; i + 1 < cp.safe_floor.size(); ++i)
      EXPECT_LE(cp.safe_floor[i], cp.safe_floor[i + 1]);
    for (std::size_t i = 0; i < cp.blocks.size(); ++i)
      EXPECT_LE(cp.safe_floor[i],
                set.value().blocks()[cp.blocks[i]].info->first_cell);
  }
  EXPECT_GT(pruned, 0u) << "a quarter-to-median range should prune blocks";
  EXPECT_EQ(plan.blocks_selected() + plan.blocks_skipped(),
            set.value().blocks().size());

  // An impossible range selects nothing but still plans cleanly.
  Query empty;
  empty.min_cell = 2;
  empty.max_cell = 1;
  const QueryPlan nothing(set.value(), empty);
  for (const auto& cp : nothing.carriers()) EXPECT_TRUE(cp.blocks.empty());
}

TEST(QueryPlan, ParamMaskCoversTheStoreParamTable) {
  StoreDir dir("mask");
  save_small_blocks(random_db(107, 1, 30), dir.path());
  auto set = ShardSet::open(dir.path());
  ASSERT_TRUE(set.ok());
  const auto serving = config::lte_param(config::ParamId::kServingPriority);

  Query q;
  q.params = {serving};
  const QueryPlan plan(set.value(), q);
  EXPECT_TRUE(plan.has_param_filter());
  EXPECT_TRUE(plan.filtered());
  ASSERT_EQ(plan.param_mask().size(), set.value().params().size());
  for (std::size_t i = 0; i < set.value().params().size(); ++i)
    EXPECT_EQ(plan.param_mask()[i] != 0, set.value().params()[i] == serving);
}

// --- the bit-identity property ----------------------------------------------

TEST(QueryPlan, PlannedFoldsMatchFilteredOracleAcrossPredicatesThreadsWindows) {
  StoreDir dir("oracle");
  const auto db = random_db(109, 3, 40, 3);
  save_small_blocks(db, dir.path());
  auto set = ShardSet::open(dir.path());
  ASSERT_TRUE(set.ok()) << set.error_message();
  const std::uint32_t mid = median_cell_id(db);
  const auto serving = config::lte_param(config::ParamId::kServingPriority);
  const auto neighbor = config::lte_param(config::ParamId::kNeighborPriority);
  MixOptions mopts;
  mopts.cities = test::test_cities();
  mopts.spatial = SpatialQuery{serving, mopts.cities[1], 8000.0};

  std::vector<Query> queries;
  queries.emplace_back();  // no predicate: planned path == plain path
  {
    Query q;
    q.carriers = {"C0", "C2"};
    queries.push_back(q);
  }
  {
    Query q;
    q.max_cell = mid;
    queries.push_back(q);
  }
  {
    Query q;
    q.carriers = {"C1"};
    q.min_cell = mid / 2;
    q.params = {serving, neighbor};
    queries.push_back(q);
  }
  {
    Query q;  // every axis at once, plus an unknown carrier to ignore
    q.carriers = {"C0", "NOPE"};
    q.min_cell = mid / 4;
    q.max_cell = mid + mid / 2;
    q.params = {serving};
    queries.push_back(q);
  }

  for (const Query& query : queries) {
    // values and analyze_carrier take an explicit carrier, which wins over
    // query.carriers (analytics.hpp), so their oracle applies only the
    // range and param axes; analyze_query applies all three.
    Query cellwise = query;
    cellwise.carriers.clear();
    const auto cell_oracle = filter_db(db, cellwise);
    const auto query_oracle = filter_db(db, query);
    for (const unsigned threads : {1u, 2u, 4u, 0u}) {
      for (const std::size_t window : {std::size_t{0}, std::size_t{1},
                                       std::size_t{3}}) {
        FoldOptions fopts;
        fopts.threads = threads;
        fopts.window_blocks = window;
        fopts.release_mapped = false;  // store is re-read many times
        const DirectFold direct(set.value(), fopts);
        const std::string tag =
            "carriers=" + std::to_string(query.carriers.size()) +
            " range=[" + std::to_string(query.min_cell) + "," +
            std::to_string(query.max_cell) + "] params=" +
            std::to_string(query.params.size()) + " threads=" +
            std::to_string(threads) + " window=" + std::to_string(window);

        std::vector<std::string> selected;
        for (const auto& carrier : direct.carriers()) {
          if (query.carriers.empty() ||
              std::find(query.carriers.begin(), query.carriers.end(),
                        carrier) != query.carriers.end())
            selected.push_back(carrier);

          auto vals = direct.values(carrier, serving, query);
          ASSERT_TRUE(vals.ok()) << tag << ": " << vals.error_message();
          EXPECT_EQ(vals.value(), cell_oracle.values(carrier, serving)) << tag;

          auto mix = analyze_carrier(direct, carrier, mopts, query);
          ASSERT_TRUE(mix.ok()) << tag << ": " << mix.error_message();
          expect_mix_matches_scans(cell_oracle, mix.value(), mopts,
                                   tag + " analyze_carrier");
        }

        auto qa = analyze_query(direct, query, mopts);
        ASSERT_TRUE(qa.ok()) << tag << ": " << qa.error_message();
        ASSERT_EQ(qa.value().carriers, selected) << tag;
        for (const auto& a : qa.value().results)
          expect_mix_matches_scans(query_oracle, a, mopts,
                                   tag + " analyze_query");
        const std::vector<core::CarrierFigures> figures(
            qa.value().results.begin(), qa.value().results.end());
        expect_gaps(core::pooled_gaps(figures),
                    core::measurement_decision_gaps(query_oracle),
                    tag + " gaps pooled");
      }
    }
  }
}

TEST(QueryPlan, PlannedSkipCountsAndPushDownBytesAreVisibleInStats) {
  StoreDir dir("stats");
  const auto db = random_db(113, 3, 40, 2);
  save_small_blocks(db, dir.path());
  auto set = ShardSet::open(dir.path());
  ASSERT_TRUE(set.ok());
  const DirectFold direct(set.value(), {});
  const auto serving = config::lte_param(config::ParamId::kServingPriority);

  Query q;
  q.carriers = {"C0"};
  q.params = {serving};
  const QueryPlan plan(set.value(), q);
  auto r = direct.fold_planned(plan, "C0",
                               [](std::uint32_t, const core::CellRecord&) {});
  ASSERT_TRUE(r.ok()) << r.error_message();
  const FoldStats& fs = r.value();
  EXPECT_EQ(fs.blocks, plan.find_carrier("C0")->blocks.size());
  EXPECT_EQ(fs.blocks_skipped, plan.blocks_skipped());
  EXPECT_EQ(fs.bytes_skipped, plan.bytes_skipped());
  EXPECT_GT(fs.blocks_skipped, 0u);  // C1/C2 blocks never parsed
  EXPECT_GT(fs.values_skipped, 0u);  // non-serving values never decoded
  EXPECT_LT(fs.bytes_read(), fs.bytes);
  // Plan-level skips are per plan, not part of the engine's history.
  EXPECT_EQ(direct.stats().blocks_skipped, 0u);
}

// --- cross-carrier scheduler -------------------------------------------------

TEST(CrossCarrier, ScheduledMixMatchesSequentialAndOracleForEveryThreadCount) {
  StoreDir dir("sched");
  const auto db = random_db(131, 4, 40, 3);
  save_small_blocks(db, dir.path());
  auto set = ShardSet::open(dir.path());
  ASSERT_TRUE(set.ok()) << set.error_message();

  Query query;
  query.params = {};  // full mix over all carriers
  MixOptions mopts;
  const auto oracle_db = filter_db(db, query);

  // The threads=1 run is the pre-scheduler sequential loop; every other
  // thread count must reproduce it bit-for-bit.
  std::vector<CarrierAnalysis> baseline;
  std::vector<std::string> baseline_names;
  {
    FoldOptions fopts;
    fopts.threads = 1;
    fopts.release_mapped = false;
    const DirectFold direct(set.value(), fopts);
    auto qa = analyze_query(direct, query, mopts);
    ASSERT_TRUE(qa.ok()) << qa.error_message();
    baseline = std::move(qa.value().results);
    baseline_names = std::move(qa.value().carriers);
    ASSERT_EQ(baseline_names.size(), db.carriers().size());
    EXPECT_TRUE(std::is_sorted(baseline_names.begin(), baseline_names.end()));
  }

  for (const unsigned threads : {2u, 4u, 0u}) {
    for (const std::size_t window : {std::size_t{0}, std::size_t{4}}) {
      FoldOptions fopts;
      fopts.threads = threads;
      fopts.window_blocks = window;
      fopts.release_mapped = false;
      const DirectFold direct(set.value(), fopts);
      auto qa = analyze_query(direct, query, mopts);
      ASSERT_TRUE(qa.ok()) << qa.error_message();
      const std::string tag = "threads=" + std::to_string(threads) +
                              " window=" + std::to_string(window);
      ASSERT_EQ(qa.value().carriers, baseline_names) << tag;
      for (std::size_t i = 0; i < baseline.size(); ++i) {
        const std::string& name = baseline_names[i];
        const auto& a = qa.value().results[i];
        const auto& b = baseline[i];
        expect_diversity(a.diversity, b.diversity, tag + " div " + name);
        expect_counts(a.serving_priority, b.serving_priority,
                      tag + " serving " + name);
        expect_counts(a.candidate_priority, b.candidate_priority,
                      tag + " candidate " + name);
        expect_bits(a.multi_priority_fraction, b.multi_priority_fraction,
                    tag + " multi " + name);
        expect_gaps(a.gaps, b.gaps, tag + " gaps " + name);
        // And against the from-scratch oracle, independent of any fold.
        expect_diversity(a.diversity,
                         core::diversity_by_param(oracle_db, name),
                         tag + " div-oracle " + name);
      }
    }
  }
}

TEST(CrossCarrier, ScheduledSubsetQueryMatchesPerCarrierPlannedFolds) {
  StoreDir dir("subset");
  const auto db = random_db(137, 4, 40, 2);
  save_small_blocks(db, dir.path());
  auto set = ShardSet::open(dir.path());
  ASSERT_TRUE(set.ok());
  const std::uint32_t mid = median_cell_id(db);

  Query query;
  query.carriers = {"C3", "C1"};
  query.max_cell = mid;
  query.params = {config::lte_param(config::ParamId::kServingPriority)};

  FoldOptions fopts;
  fopts.threads = 4;
  fopts.release_mapped = false;
  const DirectFold direct(set.value(), fopts);
  auto qa = analyze_query(direct, query, MixOptions{});
  ASSERT_TRUE(qa.ok()) << qa.error_message();
  ASSERT_EQ(qa.value().carriers, (std::vector<std::string>{"C1", "C3"}));
  for (std::size_t i = 0; i < qa.value().carriers.size(); ++i) {
    auto solo = analyze_carrier(direct, qa.value().carriers[i], MixOptions{},
                                query);
    ASSERT_TRUE(solo.ok()) << solo.error_message();
    expect_diversity(qa.value().results[i].diversity, solo.value().diversity,
                     "subset " + qa.value().carriers[i]);
    expect_counts(qa.value().results[i].serving_priority,
                  solo.value().serving_priority,
                  "subset " + qa.value().carriers[i]);
  }
  // Aggregate stats carry the plan's store-wide skip accounting; each
  // per-carrier entry carries only its own fold (skips stay aggregate-only
  // so nothing double-counts).
  const QueryPlan plan(set.value(), query);
  EXPECT_EQ(qa.value().stats.blocks_skipped, plan.blocks_skipped());
  EXPECT_EQ(qa.value().stats.blocks, plan.blocks_selected());
  std::uint64_t cells = 0, blocks = 0;
  for (const auto& r : qa.value().results) {
    EXPECT_EQ(r.stats.blocks_skipped, 0u);
    EXPECT_GT(r.stats.cells, 0u);
    cells += r.stats.cells;
    blocks += r.stats.blocks;
  }
  EXPECT_EQ(cells, qa.value().stats.cells);
  EXPECT_EQ(blocks, qa.value().stats.blocks);
}

TEST(CrossCarrier, UnknownCarrierQueryIsAnEmptySuccess) {
  StoreDir dir("none");
  save_small_blocks(random_db(139, 2, 20), dir.path());
  auto set = ShardSet::open(dir.path());
  ASSERT_TRUE(set.ok());
  const DirectFold direct(set.value(), {});
  Query q;
  q.carriers = {"NOPE"};
  auto qa = analyze_query(direct, q, MixOptions{});
  ASSERT_TRUE(qa.ok()) << qa.error_message();
  EXPECT_TRUE(qa.value().carriers.empty());
  EXPECT_EQ(qa.value().stats.blocks, 0u);
  EXPECT_EQ(qa.value().stats.blocks_skipped, set.value().blocks().size());
}

TEST(CrossCarrier, SharedWindowBudgetBoundsTotalConcurrentResidency) {
  // save_database writes each carrier's cells in one ascending pass, so
  // per-carrier block id-ranges drain fully: with jobs folding carriers
  // concurrently, the shared gauge's peak must stay within the ONE global
  // budget, not jobs x budget.
  StoreDir dir("budget");
  const auto db = random_db(149, 4, 200, 2);
  save_small_blocks(db, dir.path());
  auto set = ShardSet::open(dir.path());
  ASSERT_TRUE(set.ok()) << set.error_message();
  ASSERT_GT(set.value().blocks().size(), 32u) << "rotation targets too lax";

  for (const std::size_t budget : {std::size_t{4}, std::size_t{8}}) {
    FoldOptions fopts;
    fopts.threads = 4;
    fopts.window_blocks = budget;
    const DirectFold direct(set.value(), fopts);
    const QueryPlan plan(set.value(), Query{});
    auto r = direct.fold_query(plan, [](std::size_t, const CarrierQueryPlan&) {
      return [](std::uint32_t, const core::CellRecord&) {};
    });
    ASSERT_TRUE(r.ok()) << r.error_message();
    EXPECT_LE(r.value().peak_resident_blocks, budget) << "budget " << budget;
    EXPECT_EQ(r.value().blocks, set.value().blocks().size());
  }
}

TEST(CrossCarrier, CallerSuppliedGaugeSeesTheSchedulersResidency) {
  StoreDir dir("gauge");
  const auto db = random_db(151, 3, 60, 2);
  save_small_blocks(db, dir.path());
  auto set = ShardSet::open(dir.path());
  ASSERT_TRUE(set.ok());

  ResidencyGauge gauge;
  FoldOptions fopts;
  fopts.threads = 3;
  fopts.window_blocks = 6;
  fopts.gauge = &gauge;
  const DirectFold direct(set.value(), fopts);
  const QueryPlan plan(set.value(), Query{});
  auto r = direct.fold_query(plan, [](std::size_t, const CarrierQueryPlan&) {
    return [](std::uint32_t, const core::CellRecord&) {};
  });
  ASSERT_TRUE(r.ok()) << r.error_message();
  EXPECT_EQ(r.value().peak_resident_blocks,
            gauge.peak.load(std::memory_order_relaxed));
  EXPECT_GT(gauge.peak.load(std::memory_order_relaxed), 0u);
  // Everything parsed was released: the gauge drains back to zero.
  EXPECT_EQ(gauge.resident.load(std::memory_order_relaxed), 0u);
}

TEST(CrossCarrier, PlanBoundToAnotherStoreIsRejected) {
  StoreDir dir_a("bind-a");
  StoreDir dir_b("bind-b");
  save_small_blocks(random_db(157, 1, 20), dir_a.path());
  save_small_blocks(random_db(158, 1, 20), dir_b.path());
  auto set_a = ShardSet::open(dir_a.path());
  auto set_b = ShardSet::open(dir_b.path());
  ASSERT_TRUE(set_a.ok());
  ASSERT_TRUE(set_b.ok());
  const DirectFold direct(set_a.value(), {});
  const QueryPlan plan(set_b.value(), Query{});
  auto r = direct.fold_query(plan, [](std::size_t, const CarrierQueryPlan&) {
    return [](std::uint32_t, const core::CellRecord&) {};
  });
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error_message().find("different shard set"), std::string::npos);
}

}  // namespace
}  // namespace mmlab::store
