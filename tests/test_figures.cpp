// The in-memory cell source of the fig11–22 accumulators: analyze_carrier /
// analyze_database walking a ConfigDatabase must be bit-identical to the
// reference ConfigDatabase scans (core/analysis.hpp) for every product and
// every carrier, at any worker count, on randomized databases covering the
// awkward cases — context=-1 skips, duplicate timestamps, empty
// cells/carriers, shared cell ids across RATs.  Suite name FigureWalk is in
// the TSan CI filter (the carrier fan-out runs on a worker pool).
#include "mmlab/core/figures.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "mmlab/core/analysis.hpp"
#include "mmlab/core/database.hpp"
#include "mmlab/util/rng.hpp"

namespace mmlab::core {
namespace {

using config::ParamId;

const std::vector<config::ParamKey>& key_pool() {
  static const std::vector<config::ParamKey> pool = {
      config::lte_param(ParamId::kServingPriority),
      config::lte_param(ParamId::kQHyst),
      config::lte_param(ParamId::kSIntraSearch),
      config::lte_param(ParamId::kSNonIntraSearch),
      config::lte_param(ParamId::kThreshServingLow),
      config::lte_param(ParamId::kNeighborPriority),
      config::lte_param(ParamId::kA3Offset),
      {spectrum::Rat::kUmts, 0},
      {spectrum::Rat::kUmts, 2},
      {spectrum::Rat::kGsm, 1},
  };
  return pool;
}

/// Keys to probe with: the generation pool plus one never observed.
std::vector<config::ParamKey> probe_keys() {
  auto keys = key_pool();
  keys.push_back({spectrum::Rat::kEvdo, 99});
  return keys;
}

ConfigDatabase random_db(std::uint64_t seed) {
  Rng rng(seed);
  ConfigDatabase db;
  const spectrum::Rat rats[] = {spectrum::Rat::kLte, spectrum::Rat::kUmts,
                                spectrum::Rat::kGsm};
  for (const char* carrier : {"A", "B", "LONGNAME"}) {
    if (rng.chance(0.15)) continue;  // carrier absent entirely
    const auto n_cells = rng.below(12);
    for (std::uint64_t ci = 0; ci < n_cells; ++ci) {
      // Small id range so cells collide and accumulate multiple snapshots.
      const auto cell_id = static_cast<std::uint32_t>(1 + rng.below(30));
      if (rng.chance(0.1)) {
        db.upsert_cell(carrier, cell_id);  // observation-less cell
        continue;
      }
      const auto rat = rats[rng.below(3)];
      const auto channel = static_cast<std::uint32_t>(1000 + rng.below(4) * 100);
      const geo::Point pos{rng.uniform(0.0, 8000.0), rng.uniform(0.0, 8000.0)};
      const auto snaps = 1 + rng.below(4);
      for (std::uint64_t s = 0; s < snaps; ++s) {
        std::vector<config::ParamObservation> params;
        const auto nobs = rng.below(9);
        for (std::uint64_t o = 0; o < nobs; ++o) {
          config::ParamObservation p;
          p.key = key_pool()[rng.below(key_pool().size())];
          // Small discrete value set (incl. negatives) → plenty of per-cell
          // duplicates for the dedup paths.
          p.value = static_cast<double>(rng.below(5)) - 2.0;
          p.context =
              rng.chance(0.4) ? static_cast<std::int64_t>(1000 + rng.below(3))
                              : -1;
          if (rng.chance(0.05)) p.context = 1'000'000'000'000LL;
          params.push_back(p);
        }
        // Tiny timestamp set → duplicate timestamps within and across
        // snapshots (the latest() tie-break cases).
        const SimTime t{static_cast<Millis>(rng.below(5) * 1000)};
        db.add_snapshot(carrier, cell_id, rat, channel, pos, t, params);
      }
    }
  }
  return db;
}

const std::vector<geo::City>& test_cities() {
  static const std::vector<geo::City> cities = {
      {1, "North", "C1", "US", {0, 0}, 4000.0},
      {2, "South", "C2", "US", {0, 4000}, 4000.0},
  };
  return cities;
}

/// Bit-exact double comparison: NaN == NaN, -0.0 != 0.0.
void expect_bits(double a, double b, const std::string& what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
      << what << ": " << a << " vs " << b;
}

void expect_bits(const std::vector<double>& a, const std::vector<double>& b,
                 const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i)
    expect_bits(a[i], b[i], what + "[" + std::to_string(i) + "]");
}

void expect_diversity(const std::vector<ParamDiversity>& a,
                      const std::vector<ParamDiversity>& b,
                      const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key) << what;
    EXPECT_EQ(a[i].cells, b[i].cells) << what;
    EXPECT_EQ(a[i].measures.richness, b[i].measures.richness) << what;
    expect_bits(a[i].measures.simpson, b[i].measures.simpson, what);
    expect_bits(a[i].measures.cv, b[i].measures.cv, what);
  }
}

void expect_gaps(const MeasurementGaps& a, const MeasurementGaps& b,
                 const std::string& what) {
  expect_bits(a.intra_minus_nonintra, b.intra_minus_nonintra, what + " i-n");
  expect_bits(a.intra_minus_slow, b.intra_minus_slow, what + " i-s");
  expect_bits(a.nonintra_minus_slow, b.nonintra_minus_slow, what + " n-s");
}

/// Every product of `f` against the reference scans of `db`.
void expect_matches_oracle(const ConfigDatabase& db, const CarrierFigures& f,
                           const MixOptions& options) {
  const std::string& carrier = f.carrier;
  SCOPED_TRACE(carrier);
  expect_diversity(f.diversity,
                   diversity_by_param(db, carrier, options.diversity_rat),
                   "diversity");
  for (const auto rat :
       {std::optional<spectrum::Rat>{}, std::optional{spectrum::Rat::kLte},
        std::optional{spectrum::Rat::kUmts}})
    expect_diversity(rank_diversity(f.totals, rat),
                     diversity_by_param(db, carrier, rat), "ranked diversity");

  const auto dep = frequency_dependence(db, carrier);
  ASSERT_EQ(f.dependence.size(), dep.size());
  for (std::size_t i = 0; i < dep.size(); ++i) {
    EXPECT_EQ(f.dependence[i].key, dep[i].key);
    expect_bits(f.dependence[i].zeta_simpson, dep[i].zeta_simpson, "zeta D");
    expect_bits(f.dependence[i].zeta_cv, dep[i].zeta_cv, "zeta Cv");
  }

  EXPECT_TRUE(f.serving_priority == priority_by_channel(db, carrier, false));
  EXPECT_TRUE(f.candidate_priority == priority_by_channel(db, carrier, true));
  expect_bits(f.multi_priority_fraction,
              multi_priority_cell_fraction(db, carrier), "multi priority");
  EXPECT_TRUE(f.priority_by_city ==
              priority_by_city(db, carrier, options.cities));
  if (options.spatial)
    expect_bits(f.spatial_diversity,
                spatial_diversity(db, carrier, options.spatial->key,
                                  options.spatial->city,
                                  options.spatial->radius_m),
                "spatial");
  expect_gaps(f.gaps, measurement_decision_gaps(db, carrier), "gaps");

  // The per-key totals are the values() sweep of fig 14/15/17, over exactly
  // the observed keys.
  std::vector<config::ParamKey> keys;
  for (const auto& [key, totals] : f.totals) keys.push_back(key);
  EXPECT_EQ(keys, db.observed_params(carrier));
  for (const auto& key : probe_keys())
    EXPECT_TRUE(f.values(key) == db.values(carrier, key));
}

TEST(FigureWalk, AnalyzeDatabaseMatchesOracleAtEveryThreadCount) {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  for (std::uint64_t seed = 100; seed <= 125; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto db = random_db(seed);
    MixOptions options;
    options.cities = test_cities();
    options.spatial = SpatialQuery{config::lte_param(ParamId::kServingPriority),
                                   test_cities()[seed % 2], 1500.0};
    if (seed % 3 == 0) options.diversity_rat = spectrum::Rat::kLte;

    for (const unsigned threads : {1u, 2u, 4u, hw}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      const auto figures = analyze_database(db, options, threads);
      ASSERT_EQ(figures.size(), db.carriers().size());
      auto name = db.carriers().begin();
      for (const auto& f : figures) {
        EXPECT_EQ(f.carrier, (name++)->first);  // name order
        expect_matches_oracle(db, f, options);
      }
      expect_gaps(pooled_gaps(figures), measurement_decision_gaps(db),
                  "pooled gaps");
    }
    // An unknown carrier walks nothing and matches the oracle's empties.
    expect_matches_oracle(db, analyze_carrier(db, "MISSING", options),
                          options);
  }
}

TEST(FigureWalk, LatestTieBreaksLikeLegacyOnDuplicateTimestamps) {
  // Fig 11 reads each cell's latest values; CellRecord::latest keeps the
  // *last* max-timestamp observation, and so must the walk.
  ConfigDatabase db;
  const auto intra = config::lte_param(ParamId::kSIntraSearch);
  const auto nonintra = config::lte_param(ParamId::kSNonIntraSearch);
  db.add_snapshot("A", 1, spectrum::Rat::kLte, 850, {0, 0}, SimTime{100},
                  {{intra, 1.0}, {intra, 2.0}, {nonintra, 0.5}});
  db.add_snapshot("A", 1, spectrum::Rat::kLte, 850, {0, 0}, SimTime{100},
                  {{intra, 3.0}});
  const auto& rec = db.cells_of("A")->at(1);
  ASSERT_EQ(rec.latest(intra), std::optional<double>(3.0));

  const auto f = analyze_carrier(db, "A");
  expect_bits(f.gaps.intra_minus_nonintra, {3.0 - 0.5}, "latest tie-break");
  expect_gaps(f.gaps, measurement_decision_gaps(db, "A"), "oracle");
}

TEST(FigureWalk, LatestIsEmptyWhenAllTimestampsPrecedeSentinel) {
  // CellRecord::latest starts its best-timestamp tracker at -1, so a cell
  // whose observations all carry t < -1 has no latest value: no gap.
  ConfigDatabase db;
  const auto intra = config::lte_param(ParamId::kSIntraSearch);
  const auto nonintra = config::lte_param(ParamId::kSNonIntraSearch);
  db.add_snapshot("A", 1, spectrum::Rat::kLte, 850, {0, 0}, SimTime{-5},
                  {{intra, 1.0}, {nonintra, 0.5}});
  ASSERT_EQ(db.cells_of("A")->at(1).latest(intra), std::nullopt);

  const auto f = analyze_carrier(db, "A");
  EXPECT_TRUE(f.gaps.intra_minus_nonintra.empty());
  expect_gaps(f.gaps, measurement_decision_gaps(db, "A"), "oracle");
  // The observations still count for the distribution products.
  EXPECT_EQ(f.values(intra).total(), 1u);
  EXPECT_EQ(f.values(intra), db.values("A", intra));
}

TEST(FigureWalk, EmptyDatabaseAndEmptyCarrier) {
  ConfigDatabase db;
  EXPECT_TRUE(analyze_database(db, {}, 4).empty());
  const auto none = analyze_carrier(db, "A");
  EXPECT_EQ(none.carrier, "A");
  EXPECT_TRUE(none.totals.empty());
  EXPECT_TRUE(none.values(key_pool().front()).empty());
  EXPECT_EQ(none.multi_priority_fraction, 0.0);

  db.upsert_cell("A", 1);  // carrier with one observation-less cell
  const auto figures = analyze_database(db, {}, 4);
  ASSERT_EQ(figures.size(), 1u);
  EXPECT_EQ(figures[0].carrier, "A");
  EXPECT_TRUE(figures[0].totals.empty());
  EXPECT_TRUE(figures[0].diversity.empty());
  EXPECT_TRUE(figures[0].serving_priority.empty());
  EXPECT_TRUE(figures[0].gaps.intra_minus_nonintra.empty());
  expect_matches_oracle(db, figures[0], {});
}

}  // namespace
}  // namespace mmlab::core
