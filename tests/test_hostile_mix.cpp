// The fig11–22 mix on hostile values, against the reference scans.
//
// The other store suites draw five values (-2…2) from at most eight keys, so
// every per-key value count stays tiny and every key sorts the same way in
// first-sight and in ascending order.  This database breaks each of those
// shortcuts the accumulators could take:
//   * +0.0 and -0.0 both occur, and which one a carrier sees first differs
//     per key and per group (the first-seen representation must survive);
//   * one key carries thousands of distinct values per carrier and more
//     than kLinearDedupLimit per cell, so CellFolder's dedup spills and the
//     value tallies grow many times;
//   * more than 16 keys per carrier tie on Simpson, and every cell lists its
//     keys in descending id order, so the folder's slot order is the reverse
//     of ParamKey order.  rank_diversity's std::sort is unstable, so a
//     finish() that ranked keys in slot order would reorder the ties.
// The mix is checked store-direct (planned and not, at 1 and 4 threads) and
// by the in-memory walk.  The test names contain DirectFold and FigureWalk
// so the TSan job's filter picks them up.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include <unistd.h>

#include "mmlab/core/analysis.hpp"
#include "mmlab/core/cell_fold.hpp"
#include "mmlab/core/database.hpp"
#include "mmlab/core/figures.hpp"
#include "mmlab/store/analytics.hpp"
#include "mmlab/store/direct_fold.hpp"
#include "mmlab/store/shard_set.hpp"
#include "mmlab/store/shard_writer.hpp"
#include "mmlab/util/rng.hpp"
#include "figures_oracle.hpp"

namespace mmlab::store {
namespace {

namespace fs = std::filesystem;
using test::expect_mix_matches_scans;

// Ids of real LTE parameters (a store's manifest names only those), clear
// of the fixed keys the products read: 0, 3, 4, 5 and 9.
constexpr std::uint16_t kBigKey = 1;        ///< thousands of values
constexpr std::uint16_t kZeroKey = 2;       ///< only +-0.0 and 1.0
constexpr std::uint16_t kFirstTieKey = 18;  ///< kTieKeys keys tied on Simpson
constexpr std::uint16_t kTieKeys = 24;
static_assert(kFirstTieKey + kTieKeys <= config::kLteParamCount);

config::ParamKey lte_key(std::uint16_t id) {
  return {spectrum::Rat::kLte, id};
}

core::ConfigDatabase hostile_db(std::uint64_t seed) {
  Rng rng(seed);
  core::ConfigDatabase db;
  const auto serving = config::lte_param(config::ParamId::kServingPriority);
  const auto neighbor = config::lte_param(config::ParamId::kNeighborPriority);
  const config::ParamKey gap_keys[] = {
      config::lte_param(config::ParamId::kSIntraSearch),
      config::lte_param(config::ParamId::kSNonIntraSearch),
      config::lte_param(config::ParamId::kThreshServingLow)};
  const auto zero = [&](double p_negative) {
    return rng.chance(p_negative) ? -0.0 : 0.0;
  };
  for (const std::string carrier : {"H0", "H1"}) {
    // H0 tends to see -0.0 first, H1 +0.0.
    const double p_negative = carrier == "H0" ? 0.7 : 0.3;
    for (std::uint32_t i = 0; i < 90; ++i) {
      const auto id = static_cast<std::uint32_t>(1 + i * 37 + rng.below(30));
      const auto rat = i % 9 == 4 ? spectrum::Rat::kUmts : spectrum::Rat::kLte;
      const auto channel = static_cast<std::uint32_t>(rng.below(5) * 100);
      const geo::Point pos{rng.uniform(-5e4, 5e4), rng.uniform(-5e4, 5e4)};
      const int visits = 1 + static_cast<int>(rng.below(2));
      SimTime t{static_cast<Millis>(rng.below(1000))};
      for (int v = 0; v < visits; ++v) {
        std::vector<config::ParamObservation> params;
        // Descending ids: first sight puts the tie keys in reverse order.
        for (std::uint16_t k = kTieKeys; k-- > 0;)
          params.push_back({lte_key(static_cast<std::uint16_t>(kFirstTieKey + k)),
                            i % 2 == 0 ? 1.0 : 2.0, -1});
        for (int j = 0; j < 40; ++j)  // > kLinearDedupLimit per cell
          params.push_back({lte_key(kBigKey),
                            static_cast<double>(rng.below(6000)) * 0.25 - 300.0,
                            -1});
        // The first cell fixes which zero each carrier keeps.
        const double first_zero = carrier == "H0" ? -0.0 : 0.0;
        params.push_back({lte_key(kZeroKey),
                          i == 0 && v == 0 ? first_zero
                          : rng.chance(0.2) ? 1.0
                                            : zero(p_negative),
                          -1});
        params.push_back({serving, rng.chance(0.5) ? zero(p_negative) : 3.0,
                          -1});
        params.push_back({neighbor,
                          rng.chance(0.5) ? zero(p_negative)
                                          : static_cast<double>(rng.below(7)),
                          static_cast<std::int64_t>(rng.below(3) * 100)});
        for (const auto& key : gap_keys)
          params.push_back({key, rng.chance(0.3) ? zero(p_negative)
                                                 : -2.0 * rng.below(30),
                            -1});
        if (rat != spectrum::Rat::kLte)
          for (auto& p : params) p.key.rat = rat;
        db.add_snapshot(carrier, id, rat, channel, pos, t, params);
        t += static_cast<Millis>(1 + rng.below(1000));
      }
    }
  }
  return db;
}

class HostileStore : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new core::ConfigDatabase(hostile_db(2026));
    // One directory per process: ctest runs every test of the suite in a
    // process of its own, and a shared name lets one process delete the
    // store another is still writing.
    dir_ = new std::string((fs::path(::testing::TempDir()) /
                            ("mmlab_hostile_mix_" + std::to_string(::getpid())))
                               .string());
    fs::remove_all(*dir_);
    WriterOptions wopts;
    wopts.target_block_bytes = 4096;  // many blocks per carrier
    save_database(*db_, *dir_, wopts);
  }
  static void TearDownTestSuite() {
    std::error_code ec;
    fs::remove_all(*dir_, ec);
    delete dir_;
    delete db_;
  }

  static core::MixOptions options() {
    core::MixOptions mopts;
    mopts.cities = test::test_cities();
    mopts.spatial = core::SpatialQuery{lte_key(kBigKey), mopts.cities[1],
                                       20000.0};
    return mopts;
  }

  static core::ConfigDatabase* db_;
  static std::string* dir_;
};

core::ConfigDatabase* HostileStore::db_ = nullptr;
std::string* HostileStore::dir_ = nullptr;

TEST_F(HostileStore, DatabaseIsAsHostileAsAdvertised) {
  for (const std::string carrier : {"H0", "H1"}) {
    const auto big = db_->values(carrier, lte_key(kBigKey));
    EXPECT_GT(big.richness(), 2000u) << carrier;
    std::size_t max_per_cell = 0;
    core::CellFolder folder;
    for (const auto& [id, rec] : *db_->cells_of(carrier)) {
      folder.fold(rec);
      max_per_cell =
          std::max(max_per_cell, folder.unique_values(lte_key(kBigKey)).size());
    }
    EXPECT_GT(max_per_cell, core::kLinearDedupLimit) << carrier;
    // Both zeros occur, and the carriers keep different representations.
    const auto zeros = db_->values(carrier, lte_key(kZeroKey));
    ASSERT_EQ(zeros.richness(), 2u) << carrier;
    EXPECT_EQ(std::signbit(zeros.counts().begin()->first), carrier == "H0");
    // More than 16 LTE keys tie on Simpson.
    std::multiset<double> simpsons;
    for (const auto& d : core::diversity_by_param(*db_, carrier, std::nullopt))
      simpsons.insert(d.measures.simpson);
    std::size_t most_tied = 0;
    for (const double s : simpsons)
      most_tied = std::max(most_tied, simpsons.count(s));
    EXPECT_GT(most_tied, 16u) << carrier;
  }
}

TEST_F(HostileStore, DirectFoldHostileMixMatchesScans) {
  auto set = ShardSet::open(*dir_);
  ASSERT_TRUE(set.ok()) << set.error_message();
  const auto mopts = options();
  Query planned;
  planned.carriers = {"H1"};
  planned.params = {lte_key(kBigKey), lte_key(kZeroKey),
                    lte_key(kFirstTieKey), lte_key(kFirstTieKey + 17),
                    config::lte_param(config::ParamId::kServingPriority)};
  for (const unsigned threads : {1u, 4u}) {
    FoldOptions fopts;
    fopts.threads = threads;
    const DirectFold direct(set.value(), fopts);
    const std::string tag = "threads " + std::to_string(threads);

    auto all = analyze_query(direct, Query{}, mopts);
    ASSERT_TRUE(all.ok()) << all.error_message();
    ASSERT_EQ(all.value().results.size(), 2u);
    for (const auto& a : all.value().results)
      expect_mix_matches_scans(*db_, a, mopts, tag + " unplanned");

    auto some = analyze_query(direct, planned, mopts);
    ASSERT_TRUE(some.ok()) << some.error_message();
    ASSERT_EQ(some.value().results.size(), 1u);
    // The planned fold equals the mix over the database it filters to.
    core::ConfigDatabase filtered;
    const core::ParamKeySet keys(planned.params);
    for (const auto& [id, rec] : *db_->cells_of("H1")) {
      auto& dst = filtered.upsert_cell("H1", id);
      dst = rec;
      std::erase_if(dst.observations, [&](const core::Observation& obs) {
        return !keys.contains(obs.key);
      });
    }
    expect_mix_matches_scans(filtered, some.value().results[0], mopts,
                             tag + " planned");

    auto values = direct.values("H0", lte_key(kBigKey));
    ASSERT_TRUE(values.ok()) << values.error_message();
    EXPECT_EQ(values.value(), db_->values("H0", lte_key(kBigKey))) << tag;
  }
}

TEST_F(HostileStore, FigureWalkHostileMixMatchesScans) {
  const auto mopts = options();
  for (const unsigned threads : {1u, 4u}) {
    const auto figures = core::analyze_database(*db_, mopts, threads);
    ASSERT_EQ(figures.size(), 2u);
    for (const auto& f : figures)
      expect_mix_matches_scans(*db_, f, mopts,
                               "walk threads " + std::to_string(threads));
  }
}

}  // namespace
}  // namespace mmlab::store
