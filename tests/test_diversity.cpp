#include "mmlab/stats/diversity.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "mmlab/util/rng.hpp"

namespace mmlab::stats {
namespace {

TEST(Diversity, SingleValueIsZero) {
  ValueCounts vc;
  vc.add(4.0, 100);
  EXPECT_DOUBLE_EQ(vc.simpson_index(), 0.0);
  EXPECT_DOUBLE_EQ(vc.coefficient_of_variation(), 0.0);
  EXPECT_EQ(vc.richness(), 1u);
}

TEST(Diversity, EmptyIsZero) {
  ValueCounts vc;
  EXPECT_DOUBLE_EQ(vc.simpson_index(), 0.0);
  EXPECT_DOUBLE_EQ(vc.coefficient_of_variation(), 0.0);
  EXPECT_TRUE(vc.empty());
}

TEST(Diversity, SimpsonTwoEqualValues) {
  ValueCounts vc;
  vc.add(1.0, 50);
  vc.add(2.0, 50);
  // D = 1 - 2 * (50/100)^2 = 0.5
  EXPECT_DOUBLE_EQ(vc.simpson_index(), 0.5);
}

TEST(Diversity, SimpsonHandComputed) {
  ValueCounts vc;
  vc.add(1.0, 70);
  vc.add(2.0, 20);
  vc.add(3.0, 10);
  const double expected = 1.0 - (0.7 * 0.7 + 0.2 * 0.2 + 0.1 * 0.1);
  EXPECT_NEAR(vc.simpson_index(), expected, 1e-12);
}

TEST(Diversity, SimpsonApproachesOneForEvenSpread) {
  ValueCounts vc;
  for (int i = 0; i < 100; ++i) vc.add(i, 1);
  EXPECT_NEAR(vc.simpson_index(), 0.99, 1e-9);
}

TEST(Diversity, CoefficientOfVariationHandComputed) {
  ValueCounts vc;
  vc.add(2.0, 1);
  vc.add(4.0, 1);
  // mean 3, population sd 1 -> Cv = 1/3
  EXPECT_NEAR(vc.coefficient_of_variation(), 1.0 / 3.0, 1e-12);
}

TEST(Diversity, CvUsesAbsoluteMean) {
  ValueCounts vc;
  vc.add(-2.0, 1);
  vc.add(-4.0, 1);
  EXPECT_NEAR(vc.coefficient_of_variation(), 1.0 / 3.0, 1e-12);
}

TEST(Diversity, CvZeroMeanWithSpreadIsNaN) {
  // {-5, +5}: mean 0 but sd 5 — "no variation" (0.0) would be flat wrong,
  // so the undefined ratio is reported as NaN.
  ValueCounts vc;
  vc.add(-5.0, 1);
  vc.add(5.0, 1);
  EXPECT_TRUE(std::isnan(vc.coefficient_of_variation()));
}

TEST(Diversity, CvZeroMeanWithoutSpreadIsZero) {
  // All-zero samples: zero dispersion wins over the zero mean.
  ValueCounts vc;
  vc.add(0.0, 5);
  EXPECT_DOUBLE_EQ(vc.coefficient_of_variation(), 0.0);
}

TEST(Dependence, SkipsUndefinedGroupCv) {
  // One group has zero-mean spread (Cv undefined); it must be skipped, not
  // poison the expectation over groups.
  std::map<long, ValueCounts> groups;
  groups[0].add(2.0, 1);
  groups[0].add(4.0, 1);
  groups[1].add(-5.0, 1);
  groups[1].add(5.0, 1);
  // Pooled {2, 4, -5, 5} has mean 1.5, so the pooled Cv is finite.
  EXPECT_TRUE(std::isfinite(dependence_measure(groups, DiversityMetric::kCv)));
}

TEST(Dependence, UndefinedPooledCvIsNaN) {
  std::map<long, ValueCounts> groups;
  groups[0].add(-5.0, 1);
  groups[1].add(5.0, 1);
  // Pooled mean is 0 with spread: there is no baseline to compare against.
  EXPECT_TRUE(std::isnan(dependence_measure(groups, DiversityMetric::kCv)));
}

TEST(Diversity, ModeAndFraction) {
  ValueCounts vc;
  vc.add(3.0, 80);
  vc.add(5.0, 20);
  EXPECT_DOUBLE_EQ(vc.mode(), 3.0);
  EXPECT_DOUBLE_EQ(vc.fraction(3.0), 0.8);
  EXPECT_DOUBLE_EQ(vc.fraction(99.0), 0.0);
}

TEST(Diversity, ModeOnEmptyThrows) {
  ValueCounts vc;
  EXPECT_THROW(vc.mode(), std::logic_error);
}

TEST(Diversity, SamplesRoundTrip) {
  ValueCounts vc;
  vc.add(1.0, 2);
  vc.add(7.0, 1);
  const auto s = vc.samples();
  ASSERT_EQ(s.size(), 3u);
  EXPECT_DOUBLE_EQ(s[0], 1.0);
  EXPECT_DOUBLE_EQ(s[1], 1.0);
  EXPECT_DOUBLE_EQ(s[2], 7.0);
}

TEST(Dependence, ZeroWhenGroupsMirrorPooled) {
  // Every group has the same distribution as the pool: zeta == 0.
  std::map<long, ValueCounts> groups;
  for (long g = 0; g < 3; ++g) {
    groups[g].add(1.0, 10);
    groups[g].add(2.0, 10);
  }
  EXPECT_NEAR(dependence_measure(groups, DiversityMetric::kSimpson), 0.0, 1e-12);
  EXPECT_NEAR(dependence_measure(groups, DiversityMetric::kCv), 0.0, 1e-12);
}

TEST(Dependence, MaximalWhenFactorExplainsEverything) {
  // Each group single-valued but pool diverse: zeta == pooled Simpson.
  std::map<long, ValueCounts> groups;
  groups[0].add(1.0, 50);
  groups[1].add(2.0, 50);
  ValueCounts pooled;
  pooled.add(1.0, 50);
  pooled.add(2.0, 50);
  EXPECT_NEAR(dependence_measure(groups, DiversityMetric::kSimpson),
              pooled.simpson_index(), 1e-12);
}

TEST(Dependence, EmptyGroupsGiveZero) {
  std::map<long, ValueCounts> groups;
  EXPECT_DOUBLE_EQ(dependence_measure(groups, DiversityMetric::kSimpson), 0.0);
}

TEST(Dependence, WeightedByGroupSize) {
  // A huge conforming group dilutes a small divergent one.
  std::map<long, ValueCounts> groups;
  groups[0].add(1.0, 990);
  groups[0].add(2.0, 990);
  groups[1].add(1.0, 20);
  const double zeta =
      dependence_measure(groups, DiversityMetric::kSimpson);
  EXPECT_LT(zeta, 0.05);
  EXPECT_GT(zeta, 0.0);
}

class SimpsonSweep : public ::testing::TestWithParam<int> {};

TEST_P(SimpsonSweep, MatchesClosedForm) {
  // k evenly-weighted values: D = 1 - 1/k.
  const int k = GetParam();
  ValueCounts vc;
  for (int i = 0; i < k; ++i) vc.add(i, 7);
  EXPECT_NEAR(vc.simpson_index(), 1.0 - 1.0 / k, 1e-12);
  EXPECT_EQ(vc.richness(), static_cast<std::size_t>(k));
}

INSTANTIATE_TEST_SUITE_P(Ks, SimpsonSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 10, 16, 20, 32));

TEST(Diversity, ZeroCountAddIsANoOp) {
  ValueCounts vc;
  vc.add(3.0, 0);
  EXPECT_TRUE(vc.empty());
  EXPECT_EQ(vc.richness(), 0u);
  EXPECT_TRUE(vc.counts().empty());
  vc.add(1.0, 2);
  vc.add(5.0, 0);
  ValueCounts same;
  same.add(1.0, 2);
  EXPECT_EQ(vc.richness(), 1u);
  EXPECT_EQ(vc.counts().count(5.0), 0u);
  EXPECT_EQ(vc, same);  // a zero count does not tell equal multisets apart
  EXPECT_DOUBLE_EQ(vc.simpson_index(), 0.0);
}

// --- ValueTally against ValueCounts -------------------------------------------

std::uint64_t bits_of(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Bit-exact equality of two ValueCounts: values (so -0.0 != +0.0), counts,
/// total, and the Simpson index the tally computes from integer counts.
void expect_same(const ValueTally& tally, const ValueCounts& want,
                 const std::string& tag) {
  const ValueCounts got = tally.counts();
  ASSERT_EQ(got.richness(), want.richness()) << tag;
  EXPECT_EQ(got.total(), want.total()) << tag;
  EXPECT_EQ(tally.total(), want.total()) << tag;
  EXPECT_EQ(tally.richness(), want.richness()) << tag;
  auto w = want.counts().begin();
  for (const auto& [value, count] : got.counts()) {
    EXPECT_EQ(bits_of(value), bits_of(w->first)) << tag;
    EXPECT_EQ(count, w->second) << tag;
    ++w;
  }
  EXPECT_EQ(bits_of(tally.simpson_index()), bits_of(want.simpson_index()))
      << tag;
  EXPECT_EQ(bits_of(got.coefficient_of_variation()),
            bits_of(want.coefficient_of_variation()))
      << tag;
}

TEST(ValueTally, MatchesValueCountsOnRandomStreams) {
  Rng rng(424242);
  for (int round = 0; round < 60; ++round) {
    // From a handful of values to ~6,000 distinct ones, so the table grows
    // through many doublings; repeated values and counts above one.
    const std::size_t pool = 1 + rng.below(round < 30 ? 16 : 12000);
    const std::size_t adds = rng.below(20000);
    ValueTally tally;
    ValueCounts want;
    for (std::size_t i = 0; i < adds; ++i) {
      double v = static_cast<double>(rng.below(pool)) * 0.5 - 100.0;
      if (rng.chance(0.02)) v = rng.chance(0.5) ? -0.0 : 0.0;
      const std::size_t count = rng.chance(0.1) ? rng.below(5) : 1;
      tally.add(v, count);
      want.add(v, count);
    }
    expect_same(tally, want, "round " + std::to_string(round));
  }
}

TEST(ValueTally, ThousandsOfDistinctValuesGrowTheTable) {
  ValueTally tally;
  ValueCounts want;
  for (int pass = 0; pass < 3; ++pass)
    for (int i = 0; i < 5000; ++i) {
      // Distinct mantissas in [1, 2), spread over 40 exponents and both
      // signs.
      const double v =
          (i % 2 ? -1.0 : 1.0) * std::ldexp(1.0 + i / 8192.0, i % 40 - 20);
      tally.add(v);
      want.add(v);
    }
  EXPECT_EQ(tally.richness(), 5000u);
  expect_same(tally, want, "5000 distinct x3");
}

TEST(ValueTally, SignedZerosShareOneEntryKeepingTheFirstSeen) {
  for (const bool negative_first : {false, true}) {
    ValueTally tally;
    ValueCounts want;
    const double first = negative_first ? -0.0 : 0.0;
    const double second = negative_first ? 0.0 : -0.0;
    for (const double v : {first, 1.0, second, second, first, -1.0}) {
      tally.add(v);
      want.add(v);
    }
    EXPECT_EQ(tally.richness(), 3u);
    expect_same(tally, want, negative_first ? "-0 first" : "+0 first");
    EXPECT_EQ(std::signbit(tally.counts().counts().find(0.0)->first),
              negative_first);
  }
}

TEST(ValueTally, ZeroCountsAndClearLeaveNoTrace) {
  ValueTally tally;
  tally.add(2.0, 0);
  EXPECT_TRUE(tally.empty());
  EXPECT_EQ(tally.richness(), 0u);
  EXPECT_TRUE(tally.counts().empty());
  for (int i = 0; i < 100; ++i) tally.add(i);
  tally.add(-0.0);
  tally.clear();
  EXPECT_TRUE(tally.empty());
  EXPECT_EQ(tally.richness(), 0u);
  // A zero added after clear() keeps its own sign, not the cleared one's.
  tally.add(0.0, 3);
  tally.add(7.0);
  ValueCounts want;
  want.add(0.0, 3);
  want.add(7.0);
  expect_same(tally, want, "after clear");
}

TEST(ValueTally, SimpsonPastTheExactRangeAsksTheOrderedMap) {
  // Counts whose squares sum past 2^53 leave the exact-integer range.
  ValueTally tally;
  ValueCounts want;
  for (const std::size_t count :
       {std::size_t{1} << 27, (std::size_t{1} << 26) + 3, std::size_t{12345},
        std::size_t{1}}) {
    const double v = static_cast<double>(count % 97);
    tally.add(v, count);
    want.add(v, count);
  }
  expect_same(tally, want, "large counts");
}

}  // namespace
}  // namespace mmlab::stats
