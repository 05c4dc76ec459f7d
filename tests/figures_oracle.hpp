// The store suites' oracle for the fig11–22 analysis mix: every product of
// a store::analyze_carrier / analyze_query result is compared bit for bit
// with the reference ConfigDatabase scans (core/analysis.hpp) over a
// database — load_database(store), the database the store was written
// from, or that database filtered by a query.  Shared by
// test_direct_fold.cpp and test_query_plan.cpp.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "mmlab/core/analysis.hpp"
#include "mmlab/core/database.hpp"
#include "mmlab/core/figures.hpp"

namespace mmlab::test {

/// Bit-exact double comparison: NaN == NaN, -0.0 != 0.0 — stricter than
/// EXPECT_EQ, which is the point of the determinism contract.
inline void expect_bits(double a, double b, const std::string& what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
      << what << ": " << a << " vs " << b;
}

inline void expect_bits(const std::vector<double>& a,
                        const std::vector<double>& b,
                        const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i)
    expect_bits(a[i], b[i], what + "[" + std::to_string(i) + "]");
}

inline void expect_counts(const std::map<long, stats::ValueCounts>& a,
                          const std::map<long, stats::ValueCounts>& b,
                          const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  auto ib = b.begin();
  for (auto ia = a.begin(); ia != a.end(); ++ia, ++ib) {
    EXPECT_EQ(ia->first, ib->first) << what;
    ASSERT_EQ(ia->second.counts().size(), ib->second.counts().size()) << what;
    auto vb = ib->second.counts().begin();
    for (auto va = ia->second.counts().begin();
         va != ia->second.counts().end(); ++va, ++vb) {
      expect_bits(va->first, vb->first, what + " value");
      EXPECT_EQ(va->second, vb->second) << what;
    }
  }
}

inline void expect_diversity(const std::vector<core::ParamDiversity>& a,
                             const std::vector<core::ParamDiversity>& b,
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

inline void expect_gaps(const core::MeasurementGaps& a,
                        const core::MeasurementGaps& b,
                        const std::string& what) {
  expect_bits(a.intra_minus_nonintra, b.intra_minus_nonintra, what + " i-n");
  expect_bits(a.intra_minus_slow, b.intra_minus_slow, what + " i-s");
  expect_bits(a.nonintra_minus_slow, b.nonintra_minus_slow, what + " n-s");
}

/// Three 34 km cities side by side across the store suites' random
/// deployments (positions in [-50 km, 50 km]²).
inline std::vector<geo::City> test_cities() {
  // Appended rather than `"C" + std::to_string(n)`, which GCC 12 flags with
  // a false -Wrestrict at -O3.
  const auto label = [](const char* prefix, int n) {
    std::string out = prefix;
    out += std::to_string(n);
    return out;
  };
  std::vector<geo::City> cities;
  for (int i = 0; i < 3; ++i) {
    cities.push_back({.id = static_cast<geo::CityId>(i + 1),
                      .name = label("city", i),
                      .code = label("C", i + 1),
                      .country = {},
                      .origin = {-5e4 + i * 3.4e4, -5e4},
                      .extent_m = 3.4e4});
  }
  return cities;
}

/// Every fig11–22 product of `f` (computed with `options`) against the
/// reference scans of `db` for carrier f.carrier.
inline void expect_mix_matches_scans(const core::ConfigDatabase& db,
                                     const core::CarrierFigures& f,
                                     const core::MixOptions& options,
                                     const std::string& what) {
  const std::string& carrier = f.carrier;
  const std::string tag = what + " " + carrier;

  // Fig 16/17/22 diversity: as the mix ranked it, and re-ranked over LTE
  // from the per-key totals (the CLI's diversity table).
  expect_diversity(f.diversity,
                   core::diversity_by_param(db, carrier, options.diversity_rat),
                   tag + " diversity");
  expect_diversity(core::rank_diversity(f.totals, spectrum::Rat::kLte),
                   core::diversity_by_param(db, carrier, spectrum::Rat::kLte),
                   tag + " lte diversity");

  // Fig 19 dependence.
  const auto dep = core::frequency_dependence(db, carrier);
  ASSERT_EQ(f.dependence.size(), dep.size()) << tag;
  for (std::size_t i = 0; i < dep.size(); ++i) {
    EXPECT_EQ(f.dependence[i].key, dep[i].key) << tag;
    expect_bits(f.dependence[i].zeta_simpson, dep[i].zeta_simpson,
                tag + " zeta D");
    expect_bits(f.dependence[i].zeta_cv, dep[i].zeta_cv, tag + " zeta Cv");
  }

  // Fig 18 priorities, Fig 20 city join, Fig 21 spatial, Fig 11 gaps.
  expect_counts(f.serving_priority,
                core::priority_by_channel(db, carrier, false),
                tag + " serving");
  expect_counts(f.candidate_priority,
                core::priority_by_channel(db, carrier, true),
                tag + " candidate");
  expect_bits(f.multi_priority_fraction,
              core::multi_priority_cell_fraction(db, carrier), tag + " multi");
  expect_counts(f.priority_by_city,
                core::priority_by_city(db, carrier, options.cities),
                tag + " city");
  if (options.spatial)
    expect_bits(f.spatial_diversity,
                core::spatial_diversity(db, carrier, options.spatial->key,
                                        options.spatial->city,
                                        options.spatial->radius_m),
                tag + " spatial");
  expect_gaps(f.gaps, core::measurement_decision_gaps(db, carrier),
              tag + " gaps");

  // Fig 14/15/17: the per-key totals over exactly the observed keys.
  std::vector<config::ParamKey> keys;
  for (const auto& [key, totals] : f.totals) {
    keys.push_back(key);
    EXPECT_EQ(totals.values, db.values(carrier, key)) << tag;
  }
  EXPECT_EQ(keys, db.observed_params(carrier)) << tag;
}

}  // namespace mmlab::test
