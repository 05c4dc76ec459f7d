// CellFolder's bucket grouping against its sort oracle (fold_reference).
//
// Every product — key slices, grouped order, unique values, context pairs,
// latest — must match bit for bit and in the same order, on seeded random
// records shaped to reach each corner of the kernel: key-table growth, the
// full uint16 id range on every RAT, the kLinearDedupLimit spill, signed
// zeros, NaN, duplicate context pairs, and empty records.  One folder is
// reused across records throughout, so stale key-table state would show.
// Records shorter than kMinBucketObservations take fold()'s sort path;
// every case that targets the bucket pass is longer than that.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "mmlab/core/cell_fold.hpp"
#include "mmlab/spectrum/rat.hpp"
#include "mmlab/util/rng.hpp"

namespace mmlab::core {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

std::vector<std::uint64_t> all_bits(std::span<const double> values) {
  std::vector<std::uint64_t> out;
  for (const double v : values) out.push_back(bits(v));
  return out;
}

void expect_same(const CellFolder& got, const CellFolder& want,
                 const std::string& tag) {
  ASSERT_EQ(got.keys().size(), want.keys().size()) << tag;
  for (std::size_t i = 0; i < want.keys().size(); ++i) {
    const auto& g = got.keys()[i];
    const auto& w = want.keys()[i];
    const std::string at = tag + " slice " + std::to_string(i);
    EXPECT_EQ(g.key, w.key) << at;
    EXPECT_EQ(g.obs_begin, w.obs_begin) << at;
    EXPECT_EQ(g.obs_end, w.obs_end) << at;
    EXPECT_EQ(g.uniq_begin, w.uniq_begin) << at;
    EXPECT_EQ(g.uniq_end, w.uniq_end) << at;
    EXPECT_EQ(g.ctx_begin, w.ctx_begin) << at;
    EXPECT_EQ(g.ctx_end, w.ctx_end) << at;
    EXPECT_EQ(g.has_latest, w.has_latest) << at;
    EXPECT_EQ(bits(g.latest), bits(w.latest)) << at;
  }
  const auto go = got.grouped_order();
  const auto wo = want.grouped_order();
  ASSERT_EQ(go.size(), wo.size()) << tag;
  for (std::size_t i = 0; i < wo.size(); ++i) {
    EXPECT_EQ(go[i].first, wo[i].first) << tag << " order " << i;
    EXPECT_EQ(go[i].second, wo[i].second) << tag << " order " << i;
  }
  EXPECT_EQ(all_bits(got.unique_values()), all_bits(want.unique_values()))
      << tag;
  const auto gc = got.ctx_contexts();
  const auto wc = want.ctx_contexts();
  EXPECT_EQ(std::vector<std::int64_t>(gc.begin(), gc.end()),
            std::vector<std::int64_t>(wc.begin(), wc.end()))
      << tag;
  EXPECT_EQ(all_bits(got.ctx_values()), all_bits(want.ctx_values())) << tag;
}

/// Shape of one random record.
struct Shape {
  std::size_t observations = 100;
  std::size_t keys = 10;      ///< distinct-key pool the record draws from
  std::size_t values = 4;     ///< distinct-value pool per record
  std::int64_t contexts = 3;  ///< contexts drawn from [-1, contexts)
  bool full_id_range = false;
};

config::ParamKey random_key(Rng& rng, bool full_id_range) {
  const auto rat = spectrum::kAllRats[rng.below(spectrum::kAllRats.size())];
  if (!full_id_range)
    return {rat, static_cast<std::uint16_t>(rng.below(70))};
  // Both ends of the id range on every RAT, and everything between.
  switch (rng.below(8)) {
    case 0: return {rat, 0};
    case 1: return {rat, std::numeric_limits<std::uint16_t>::max()};
    default: return {rat, static_cast<std::uint16_t>(rng.below(65536))};
  }
}

double random_value(Rng& rng, std::size_t pool) {
  switch (rng.below(16)) {
    case 0: return 0.0;
    case 1: return -0.0;
    case 2: return std::numeric_limits<double>::quiet_NaN();
    default: return static_cast<double>(rng.below(pool)) - 2.0;
  }
}

CellRecord random_record(Rng& rng, const Shape& shape) {
  std::vector<config::ParamKey> pool;
  for (std::size_t k = 0; k < shape.keys; ++k)
    pool.push_back(random_key(rng, shape.full_id_range));
  CellRecord rec;
  rec.cell_id = static_cast<std::uint32_t>(rng.below(1000));
  for (std::size_t i = 0; i < shape.observations; ++i) {
    Observation obs;
    obs.key = pool[rng.below(pool.size())];
    obs.value = random_value(rng, shape.values);
    // Ties and t below the -1 sentinel exercise latest's tie-break.
    obs.t = SimTime{rng.between(-3, 20)};
    obs.context = rng.between(-1, shape.contexts - 1);
    rec.observations.push_back(obs);
  }
  return rec;
}

/// Folds `rec` on the long-lived `folder` and on a fresh oracle.
void check(CellFolder& folder, const CellRecord& rec, const std::string& tag) {
  folder.fold(rec);
  CellFolder oracle;
  oracle.fold_reference(rec);
  expect_same(folder, oracle, tag);
}

TEST(CellFolderOracle, RandomRecordsMatchTheSort) {
  Rng rng(20261017);
  CellFolder folder;
  for (int round = 0; round < 300; ++round) {
    Shape shape;
    shape.observations = rng.below(400);
    shape.keys = 1 + rng.below(60);
    shape.values = 1 + rng.below(8);
    shape.contexts = static_cast<std::int64_t>(rng.below(5));
    shape.full_id_range = rng.chance(0.5);
    check(folder, random_record(rng, shape), "round " + std::to_string(round));
  }
}

TEST(CellFolderOracle, MoreKeysThanTheInitialTableGrowIt) {
  Rng rng(7);
  CellFolder folder;
  for (const std::size_t keys :
       {CellFolder::kInitialKeySlots / 2 + 1, CellFolder::kInitialKeySlots,
        4 * CellFolder::kInitialKeySlots, std::size_t{5000}}) {
    // `keys` distinct keys over every RAT (an odd multiplier keeps the ids
    // distinct), three visits each, in shuffled order.
    CellRecord rec;
    for (int visit = 0; visit < 3; ++visit)
      for (std::size_t k = 0; k < keys; ++k)
        rec.observations.push_back(
            {{spectrum::kAllRats[k % spectrum::kAllRats.size()],
              static_cast<std::uint16_t>(k * 40503)},
             random_value(rng, 4), SimTime{rng.between(-3, 20)},
             rng.between(-1, 2)});
    auto& obs = rec.observations;
    for (std::size_t i = obs.size(); i > 1; --i)
      std::swap(obs[i - 1], obs[rng.below(i)]);
    check(folder, rec, "keys " + std::to_string(keys));
    EXPECT_EQ(folder.keys().size(), keys);
  }
}

TEST(CellFolderOracle, EveryRatAtBothEndsOfTheIdRange) {
  CellRecord rec;
  std::int64_t t = 0;
  for (int visit = 0; visit < 3; ++visit)
    for (const auto rat : spectrum::kAllRats)
      for (const std::uint16_t id :
           {std::uint16_t{0}, std::uint16_t{1}, std::uint16_t{0x7FFF},
            std::uint16_t{0x8000}, std::uint16_t{0xFFFE},
            std::numeric_limits<std::uint16_t>::max()})
        rec.observations.push_back(
            {{rat, id}, static_cast<double>(visit), SimTime{t++}, visit});
  CellFolder folder;
  check(folder, rec, "id range");
  ASSERT_EQ(folder.keys().size(), spectrum::kAllRats.size() * 6);
  EXPECT_EQ(folder.keys().front().key,
            (config::ParamKey{spectrum::Rat::kLte, 0}));
  EXPECT_EQ(folder.keys().back().key,
            (config::ParamKey{spectrum::Rat::kCdma1x, 0xFFFF}));
}

TEST(CellFolderOracle, ManyUniquesSpillPastTheLinearLimit) {
  // One key with far more than kLinearDedupLimit unique values and
  // (context, value) pairs, each seen twice, interleaved with a small key.
  const config::ParamKey big{spectrum::Rat::kUmts, 12};
  const config::ParamKey small{spectrum::Rat::kLte, 3};
  CellRecord rec;
  const auto n = static_cast<std::int64_t>(3 * kLinearDedupLimit);
  for (int pass = 0; pass < 2; ++pass)
    for (std::int64_t i = 0; i < n; ++i) {
      rec.observations.push_back(
          {big, static_cast<double>(n - i), SimTime{i}, i % 7});
      rec.observations.push_back({small, 1.0, SimTime{i}, -1});
    }
  CellFolder folder;
  check(folder, rec, "spill");
  const auto* slice = folder.find(big);
  ASSERT_NE(slice, nullptr);
  EXPECT_EQ(slice->uniq_end - slice->uniq_begin,
            static_cast<std::uint32_t>(n));
  EXPECT_EQ(slice->ctx_end - slice->ctx_begin, static_cast<std::uint32_t>(n));

  Rng rng(99);
  Shape shape;
  shape.observations = 2000;
  shape.keys = 3;
  shape.values = 500;
  shape.contexts = 40;
  for (int round = 0; round < 5; ++round)
    check(folder, random_record(rng, shape), "random spill");
}

TEST(CellFolderOracle, SignedZerosNanAndDuplicateContexts) {
  const config::ParamKey key{spectrum::Rat::kLte, 9};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  CellRecord rec;
  rec.observations = {
      {key, -0.0, SimTime{1}, 4}, {key, 0.0, SimTime{2}, 4},
      {key, nan, SimTime{3}, 4},  {key, nan, SimTime{3}, 4},
      {key, 0.0, SimTime{0}, 4},  {key, -0.0, SimTime{5}, 5},
  };
  // Another key's observations lift the record onto the bucket path.
  for (std::size_t i = 0; i < CellFolder::kMinBucketObservations; ++i)
    rec.observations.push_back(
        {{spectrum::Rat::kLte, 2}, 1.0, SimTime{0}, -1});
  CellFolder folder;
  check(folder, rec, "zeros and nan");
  // The first representation of zero is kept; every NaN is its own unique.
  const auto uniq = folder.unique_values(key);
  ASSERT_EQ(uniq.size(), 3u);
  EXPECT_TRUE(std::signbit(uniq[0]));
  EXPECT_TRUE(std::isnan(uniq[1]));
  EXPECT_TRUE(std::isnan(uniq[2]));
  // Pairs under std::pair's <: (4, -0.0) absorbs (4, 0.0); NaN compares
  // equivalent to everything in context 4; (5, -0.0) is new.
  EXPECT_EQ(folder.ctx_values().size(), 2u);
  EXPECT_TRUE(std::signbit(folder.find(key)->latest));

  // The same mixes, reversed, and at random.
  rec.observations.assign(rec.observations.rbegin(), rec.observations.rend());
  check(folder, rec, "reversed");
  Rng rng(5);
  Shape shape;
  shape.values = 1;  // every value is a zero, a NaN or -2.0
  shape.contexts = 2;
  shape.keys = 4;
  for (int round = 0; round < 50; ++round)
    check(folder, random_record(rng, shape), "mix " + std::to_string(round));
}

TEST(CellFolderOracle, EmptyRecords) {
  CellFolder folder;
  const CellRecord empty;
  check(folder, empty, "fresh empty");
  EXPECT_TRUE(folder.keys().empty());
  EXPECT_TRUE(folder.grouped_order().empty());

  Rng rng(11);
  check(folder, random_record(rng, Shape{}), "full");
  check(folder, empty, "empty after full");
  EXPECT_TRUE(folder.keys().empty());
  EXPECT_TRUE(folder.unique_values().empty());
  EXPECT_TRUE(folder.ctx_values().empty());
}

TEST(CellFolderOracle, ReusedFolderMatchesAFreshOne) {
  // Fold A then B on one folder: B's products must equal a fresh folder's
  // on B alone, including when A grew the key table and shares keys with B.
  Rng rng(31);
  for (int round = 0; round < 40; ++round) {
    Shape a_shape;
    a_shape.keys = 1 + rng.below(400);
    a_shape.observations = 2 * a_shape.keys;
    a_shape.full_id_range = rng.chance(0.5);
    Shape b_shape;
    b_shape.keys = 1 + rng.below(20);
    b_shape.observations = rng.below(100);
    b_shape.full_id_range = a_shape.full_id_range;
    const CellRecord a = random_record(rng, a_shape);
    const CellRecord b = random_record(rng, b_shape);
    CellFolder reused;
    reused.fold(a);
    reused.fold(b);
    CellFolder fresh;
    fresh.fold(b);
    const std::string tag = "round " + std::to_string(round);
    expect_same(reused, fresh, tag);
    CellFolder oracle;
    oracle.fold_reference(b);
    expect_same(reused, oracle, tag + " oracle");
  }
}

}  // namespace
}  // namespace mmlab::core
