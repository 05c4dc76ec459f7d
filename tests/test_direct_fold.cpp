// Shard-direct query folds: DirectFold::values and the analysis mix
// (store::analyze_query / analyze_carrier) must answer bit-identically to
// the reference ConfigDatabase scans over load_database(store), for any
// thread count and any parse-window size;
// mid-fold corruption (a flipped byte in any block) must surface as an
// error with no partial answer escaping; a CRC-valid store carrying a NaN
// or infinite value is rejected by every reader, planned or not; a
// manifest block count or id range the body disagrees with fails every
// fold when the block's cursor reaches the end of the body, and the
// residency gauge drains; the cursors' reused run buffers match the oracle
// on empty cells after large ones, on cells whose runs span many blocks
// and under range queries; manifest block extras round-trip, and a
// manifest without them (flags other than 0x01 or 0x03) is rejected.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "mmlab/core/analysis.hpp"
#include "mmlab/core/database.hpp"
#include "mmlab/store/analytics.hpp"
#include "mmlab/store/direct_fold.hpp"
#include "mmlab/store/mmds2.hpp"
#include "mmlab/store/shard_set.hpp"
#include "mmlab/store/shard_writer.hpp"
#include "mmlab/util/crc.hpp"
#include "mmlab/util/rng.hpp"
#include "figures_oracle.hpp"

namespace mmlab::store {
namespace {

namespace fs = std::filesystem;
using test::expect_bits;
using test::expect_diversity;
using test::expect_gaps;
using test::expect_mix_matches_scans;
using test::test_cities;

class StoreDir {
 public:
  explicit StoreDir(const std::string& tag)
      : path_((fs::path(::testing::TempDir()) / ("mmlab_direct_" + tag))
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

/// The oracle's database: the store loaded back into memory.
core::ConfigDatabase load(const ShardSet& set) {
  core::ConfigDatabase db;
  const auto r = load_database(set, db);
  EXPECT_TRUE(r.ok()) << r.error_message();
  return db;
}

/// Same adversarial shape as test_store.cpp: several carriers, multi-visit
/// cells, mixed RATs, contexts, repeated values.  LTE-heavy so the
/// priority/dependence/gaps paths all have real work.
core::ConfigDatabase random_db(std::uint64_t seed, std::size_t carriers = 3,
                               std::size_t cells_per_carrier = 50,
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
        // Make sure the LTE priority / measurement keys fire often.
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

// --- equivalence ---------------------------------------------------------------

TEST(DirectFold, GenericQueriesMatchViewAcrossThreadsAndWindows) {
  StoreDir dir("generic");
  const auto db = random_db(41);
  save_small_blocks(db, dir.path());
  auto set = ShardSet::open(dir.path());
  ASSERT_TRUE(set.ok()) << set.error_message();
  const auto oracle = load(set.value());
  ASSERT_EQ(oracle, db);

  const auto serving = config::lte_param(config::ParamId::kServingPriority);

  for (const unsigned threads : {1u, 2u, 4u, 0u}) {
    for (const std::size_t window : {std::size_t{0}, std::size_t{1},
                                     std::size_t{3}, std::size_t{64}}) {
      FoldOptions fopts;
      fopts.threads = threads;
      fopts.window_blocks = window;
      const DirectFold direct(set.value(), fopts);
      const std::string tag = "threads=" + std::to_string(threads) +
                              " window=" + std::to_string(window);
      ASSERT_EQ(direct.carriers().size(), oracle.carriers().size());
      for (const auto& carrier : direct.carriers()) {
        auto values = direct.values(carrier, serving);
        ASSERT_TRUE(values.ok()) << values.error_message();
        EXPECT_EQ(values.value(), oracle.values(carrier, serving)) << tag;
      }
    }
  }
}

TEST(DirectFold, EntryPointsMatchViewAndInMemoryBitExact) {
  // The store's two entry points, analyze_query and analyze_carrier, against
  // the reference scans over the loaded store (the view) and over the
  // database the store was written from: every fig11–22 product.
  StoreDir dir("figures");
  const auto db = random_db(43, 3, 60, 4);
  save_small_blocks(db, dir.path());
  auto set = ShardSet::open(dir.path());
  ASSERT_TRUE(set.ok()) << set.error_message();
  const auto oracle = load(set.value());

  MixOptions mopts;
  mopts.cities = test_cities();
  mopts.spatial = SpatialQuery{
      config::lte_param(config::ParamId::kServingPriority), mopts.cities[0],
      8000.0};

  for (const unsigned threads : {1u, 4u}) {
    // Fig 16's RAT filter, off and on.
    mopts.diversity_rat = threads == 1
                              ? std::nullopt
                              : std::optional{spectrum::Rat::kLte};
    for (const std::size_t window : {std::size_t{0}, std::size_t{1},
                                     std::size_t{3}}) {
      FoldOptions fopts;
      fopts.threads = threads;
      fopts.window_blocks = window;
      const DirectFold direct(set.value(), fopts);
      const std::string tag = "threads=" + std::to_string(threads) +
                              " window=" + std::to_string(window);

      auto qa = analyze_query(direct, Query{}, mopts);
      ASSERT_TRUE(qa.ok()) << qa.error_message();
      ASSERT_EQ(qa.value().carriers, direct.carriers()) << tag;
      for (const auto& a : qa.value().results) {
        expect_mix_matches_scans(oracle, a, mopts, tag + " query view");
        expect_mix_matches_scans(db, a, mopts, tag + " query in-memory");

        auto solo = analyze_carrier(direct, a.carrier, mopts);
        ASSERT_TRUE(solo.ok()) << solo.error_message();
        expect_mix_matches_scans(db, solo.value(), mopts, tag + " carrier");
        EXPECT_EQ(solo.value().stats.cells, a.stats.cells) << tag;
        EXPECT_EQ(solo.value().stats.rows, a.stats.rows) << tag;
      }

      // Fig 11 pooled over every carrier, in name order.
      const std::vector<core::CarrierFigures> figures(
          qa.value().results.begin(), qa.value().results.end());
      expect_gaps(core::pooled_gaps(figures),
                  core::measurement_decision_gaps(db), tag + " gaps pooled");
    }
  }
}

TEST(DirectFold, UnknownCarrierYieldsEmptySuccess) {
  StoreDir dir("unknown");
  save_small_blocks(random_db(5, 1, 10), dir.path());
  auto set = ShardSet::open(dir.path());
  ASSERT_TRUE(set.ok());
  const DirectFold direct(set.value(), {});
  auto r = direct.values("NOPE", config::lte_param(
                                     config::ParamId::kServingPriority));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().empty());
  std::size_t calls = 0;
  auto fr = direct.fold_planned(QueryPlan(set.value(), Query{}), "NOPE",
                                [&](std::uint32_t, const core::CellRecord&) {
                                  ++calls;
                                });
  ASSERT_TRUE(fr.ok());
  EXPECT_EQ(calls, 0u);
  EXPECT_EQ(fr.value().blocks, 0u);
}

// --- residency bound -----------------------------------------------------------

TEST(DirectFold, ResidencyStaysWithinTheParseWindow) {
  // save_database writes each carrier's cells in one ascending pass, so
  // block id-ranges are disjoint and the safe frontier drains every batch
  // completely: peak residency must equal the window, not the store.
  StoreDir dir("residency");
  const auto db = random_db(53, 1, 400, 2);
  save_small_blocks(db, dir.path());
  auto set = ShardSet::open(dir.path());
  ASSERT_TRUE(set.ok()) << set.error_message();
  const std::size_t blocks = set.value().blocks().size();
  ASSERT_GT(blocks, 8u) << "rotation targets too lax";

  for (const std::size_t window : {std::size_t{2}, std::size_t{4}}) {
    FoldOptions fopts;
    fopts.window_blocks = window;
    const DirectFold direct(set.value(), fopts);
    for (const auto& carrier : direct.carriers()) {
      auto r = direct.fold_planned(QueryPlan(set.value(), Query{}), carrier,
                                   [](std::uint32_t, const core::CellRecord&) {});
      ASSERT_TRUE(r.ok()) << r.error_message();
      EXPECT_LE(r.value().peak_resident_blocks, window)
          << carrier << " window " << window;
      EXPECT_TRUE(r.value().crc_checked);
    }
  }
}

// --- corruption ----------------------------------------------------------------

TEST(DirectFold, CorruptByteInAnyBlockRejectsTheFoldWithNoPartialAnswer) {
  StoreDir dir("corrupt");
  const auto db = random_db(59, 2, 40, 2);
  save_small_blocks(db, dir.path());

  // Pristine copies of every shard file, for per-block restore.
  std::map<std::string, std::vector<char>> pristine;
  {
    auto set = ShardSet::open(dir.path());
    ASSERT_TRUE(set.ok()) << set.error_message();
    for (const auto& shard : set.value().manifest().shards) {
      const auto path = (fs::path(dir.path()) / shard.filename).string();
      std::ifstream in(path, std::ios::binary);
      pristine[shard.filename] = std::vector<char>(
          std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
    }
  }

  const auto serving = config::lte_param(config::ParamId::kServingPriority);
  auto probe = ShardSet::open(dir.path());
  ASSERT_TRUE(probe.ok());
  const std::size_t n_blocks = probe.value().blocks().size();
  ASSERT_GT(n_blocks, 4u);

  for (std::size_t target = 0; target < n_blocks; ++target) {
    // Restore everything, then flip one byte in the middle of block
    // `target`'s body.
    for (const auto& [name, bytes] : pristine) {
      std::ofstream out((fs::path(dir.path()) / name).string(),
                        std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    std::string victim_carrier;
    {
      auto set = ShardSet::open(dir.path());
      ASSERT_TRUE(set.ok());
      const auto& ref = set.value().blocks()[target];
      const auto& m = set.value().manifest();
      victim_carrier = m.carriers[ref.info->carrier_index];
      const auto path =
          (fs::path(dir.path()) / m.shards[ref.shard].filename).string();
      std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
      const auto pos = static_cast<std::streamoff>(ref.info->offset +
                                                   ref.info->length / 2);
      f.seekg(pos);
      char b = 0;
      f.read(&b, 1);
      b = static_cast<char>(b ^ 0x40);
      f.seekp(pos);
      f.write(&b, 1);
    }

    auto set = ShardSet::open(dir.path());
    ASSERT_TRUE(set.ok()) << set.error_message();  // open does not CRC bodies
    const DirectFold direct(set.value(), {});
    // The query over the damaged carrier must error — the fold's CRC check
    // fires mid-stream and no partial ValueCounts escapes the Result.
    auto r = direct.values(victim_carrier, serving);
    ASSERT_FALSE(r.ok()) << "block " << target << " of " << victim_carrier;
    EXPECT_NE(r.error_message().find("CRC"), std::string::npos)
        << r.error_message();
    // Every other carrier still answers, and answers exactly.
    for (const auto& carrier : direct.carriers()) {
      if (carrier == victim_carrier) continue;
      auto ok = direct.values(carrier, serving);
      ASSERT_TRUE(ok.ok()) << ok.error_message();
    }
  }
}

// --- non-finite values ---------------------------------------------------------

/// Writes a one-carrier store whose one observation of `victim` holds a
/// sentinel, then patches that value to `bad` and re-stamps the block CRC,
/// the shard CRC and the manifest: a store every checksum accepts, carrying
/// a value no writer emits.
void write_store_with_value(const std::string& dir, config::ParamKey victim,
                            double bad) {
  constexpr double kSentinel = 12345.678125;
  const auto serving = config::lte_param(config::ParamId::kServingPriority);
  core::ConfigDatabase db;
  for (std::uint32_t id = 1; id <= 20; ++id)
    db.add_snapshot("C0", id, spectrum::Rat::kLte, 3, {1.0 * id, 2.0},
                    SimTime{id},
                    {{serving, 4.0, -1},
                     {victim, id == 11 ? kSentinel : 1.0, 7}});
  save_database(db, dir);

  auto m = read_manifest(dir);
  ASSERT_TRUE(m.ok()) << m.error_message();
  std::uint64_t bits = std::bit_cast<std::uint64_t>(kSentinel);
  std::uint8_t pattern[8];
  for (int i = 0; i < 8; ++i)
    pattern[i] = static_cast<std::uint8_t>(bits >> (8 * i));
  bits = std::bit_cast<std::uint64_t>(bad);
  int patched = 0;
  for (ShardInfo& shard : m.value().shards) {
    const auto path = (fs::path(dir) / shard.filename).string();
    std::vector<std::uint8_t> bytes;
    {
      std::ifstream in(path, std::ios::binary);
      bytes.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
    }
    const auto it = std::search(bytes.begin(), bytes.end(), pattern,
                                pattern + 8);
    if (it == bytes.end()) continue;
    for (int i = 0; i < 8; ++i)
      *(it + i) = static_cast<std::uint8_t>(bits >> (8 * i));
    ++patched;
    const auto at = static_cast<std::uint64_t>(it - bytes.begin());
    for (BlockInfo& block : shard.blocks)
      if (at >= block.offset && at < block.offset + block.length)
        block.crc16 = crc16_ccitt(bytes.data() + block.offset, block.length);
    shard.crc16 = crc16_ccitt(bytes.data(), bytes.size());
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  ASSERT_EQ(patched, 1);
  write_manifest(dir, m.value());
}

TEST(StoreNonFinite, EveryReaderRejectsANonFiniteValue) {
  // NaN would be miscounted by ValueCounts; +-inf is no configuration
  // value.  Each reader rejects the store, whether the bad observation is
  // materialized or dropped by a param push-down.
  const auto serving = config::lte_param(config::ParamId::kServingPriority);
  const auto victim = config::lte_param(config::ParamId::kQHyst);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    const std::string tag = "value " + std::to_string(bad);
    StoreDir dir("nonfinite");
    write_store_with_value(dir.path(), victim, bad);
    auto set = ShardSet::open(dir.path());
    ASSERT_TRUE(set.ok()) << set.error_message();
    ASSERT_TRUE(set.value().verify().ok()) << tag;  // every CRC holds
    const DirectFold direct(set.value(), {});

    // Unplanned: the whole mix over every carrier.
    const auto mix = analyze_query(direct, Query{});
    ASSERT_FALSE(mix.ok()) << tag;
    EXPECT_NE(mix.error_message().find("non-finite"), std::string::npos)
        << mix.error_message();

    // Planned on each key: the victim's value is materialized, then
    // skipped by the push-down; both reject.
    for (const auto key : {victim, serving}) {
      Query q;
      q.params = {key};
      const QueryPlan plan(set.value(), q);
      ASSERT_TRUE(plan.filtered());
      const auto r = direct.fold_planned(
          plan, "C0", [](std::uint32_t, const core::CellRecord&) {});
      ASSERT_FALSE(r.ok()) << tag;
      EXPECT_NE(r.error_message().find("non-finite"), std::string::npos)
          << r.error_message();
    }

    core::ConfigDatabase db;
    const auto loaded = load_database(set.value(), db);
    ASSERT_FALSE(loaded.ok()) << tag;
    EXPECT_NE(loaded.error_message().find("non-finite"), std::string::npos)
        << loaded.error_message();
  }
}

TEST(StoreNonFinite, WriterRefusesANonFiniteValue) {
  StoreDir dir("nonfinite_writer");
  const auto key = config::lte_param(config::ParamId::kQHyst);
  core::CellRecord good;
  good.observations = {{key, 2.0, SimTime{1}, -1}};
  // The bad cell also names a key no good cell has: refusing the cell
  // must unassign it again.
  core::CellRecord bad = good;
  bad.observations.push_back(
      {config::lte_param(config::ParamId::kA3Offset), 3.0, SimTime{2}, -1});
  bad.observations.push_back(
      {key, std::numeric_limits<double>::quiet_NaN(), SimTime{2}, -1});
  {
    ShardWriter writer(dir.path());
    writer.add_cell("C0", 1, good);
    EXPECT_THROW(writer.add_cell("C1", 2, bad), std::invalid_argument);
    bad.observations.back().value = -std::numeric_limits<double>::infinity();
    EXPECT_THROW(writer.add_cell("C0", 3, bad), std::invalid_argument);
    writer.add_cell("C0", 4, good);
    writer.finish();
  }
  // The refused cells left nothing behind: no carrier, parameter, cell or
  // row.
  auto set = ShardSet::open(dir.path());
  ASSERT_TRUE(set.ok()) << set.error_message();
  EXPECT_EQ(set.value().manifest().carriers, std::vector<std::string>{"C0"});
  EXPECT_EQ(set.value().manifest().params,
            std::vector<std::string>{config::param_name(key)});
  core::ConfigDatabase db;
  ASSERT_TRUE(load_database(set.value(), db).ok());
  EXPECT_EQ(db.total_cells(), 2u);
  EXPECT_EQ(db.total_samples(), 2u);
}

TEST(DirectFold, CrcCheckingCanBeDisabledForTrustedStores) {
  // Trusted callers that already ran verify() may turn the mid-fold check
  // off; the flag must actually bypass it.
  StoreDir dir("nocrc");
  save_small_blocks(random_db(61, 1, 30), dir.path());
  auto set = ShardSet::open(dir.path());
  ASSERT_TRUE(set.ok());
  FoldOptions fopts;
  fopts.check_block_crc = false;
  const DirectFold direct(set.value(), fopts);
  EXPECT_FALSE(direct.stats().crc_checked);
  auto r = direct.fold_planned(QueryPlan(set.value(), Query{}), "C0",
                               [](std::uint32_t, const core::CellRecord&) {});
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value().crc_checked);
}

// --- manifest extras -----------------------------------------------------------

TEST(DirectFold, ManifestExtrasRoundTripAndMatchTheBlocks) {
  StoreDir dir("extras");
  const auto db = random_db(67, 2, 40);
  save_small_blocks(db, dir.path());
  auto set = ShardSet::open(dir.path());
  ASSERT_TRUE(set.ok()) << set.error_message();
  for (std::size_t i = 0; i < set.value().blocks().size(); ++i) {
    const auto& info = *set.value().blocks()[i].info;
    EXPECT_LE(info.first_cell, info.last_cell);
    // The engine revalidates first/last against the parsed cells and the
    // body against crc16 on every fold; a clean full fold over every
    // carrier is the round-trip assertion.
  }
  const DirectFold direct(set.value(), {});
  std::uint64_t cells = 0;
  for (const auto& carrier : direct.carriers()) {
    auto r = direct.fold_planned(
        QueryPlan(set.value(), Query{}), carrier,
        [&](std::uint32_t, const core::CellRecord&) { ++cells; });
    ASSERT_TRUE(r.ok()) << r.error_message();
    EXPECT_TRUE(r.value().crc_checked);
  }
  EXPECT_GT(cells, 0u);
}

TEST(DirectFold, UnknownManifestFlagBitsAreRejected) {
  // Forward-compat contract: a store written with flag bits we do not
  // understand must refuse to open, not silently best-effort.  So must a
  // store without the per-block extras (bit 0 cleared), with or without
  // the repeat-marker bit (bit 1, the one other defined bit).
  StoreDir dir("flags");
  save_small_blocks(random_db(73, 1, 10), dir.path());
  const auto manifest_path =
      (fs::path(dir.path()) / kMmds2ManifestName).string();

  std::vector<char> pristine;
  {
    std::ifstream in(manifest_path, std::ios::binary);
    pristine.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
  }
  ASSERT_GT(pristine.size(), 8u);
  std::vector<char> flags;
  for (int bit = 2; bit < 8; ++bit)  // each undefined flag bit
    flags.push_back(static_cast<char>(pristine[5] | (1 << bit)));
  flags.push_back(static_cast<char>(pristine[5] & ~0x01));  // no extras
  flags.push_back(0x02);  // repeat markers, no extras
  for (const char flag : flags) {
    std::vector<char> bytes = pristine;
    bytes[5] = flag;
    // Fix up the CRC trailer so only the flag byte is "wrong".
    {
      const auto payload = bytes.size() - 2;
      const std::uint16_t crc = crc16_ccitt(
          reinterpret_cast<const std::uint8_t*>(bytes.data()), payload);
      bytes[payload] = static_cast<char>(crc & 0xFF);
      bytes[payload + 1] = static_cast<char>((crc >> 8) & 0xFF);
      std::ofstream out(manifest_path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    auto r = ShardSet::open(dir.path());
    ASSERT_FALSE(r.ok()) << "flags " << int{flag};
    EXPECT_NE(r.error_message().find("flag"), std::string::npos)
        << r.error_message();
  }
}

// --- checks at the end of a block ----------------------------------------------

TEST(DirectFoldBlockEnd, ManifestDisagreementFailsEveryFoldAndDrainsTheGauge) {
  // The cell-count, row-count and last-id checks run when a block's cursor
  // reaches the end of its body.  Each damaged field leaves every CRC intact
  // (only the manifest changes, and write_manifest re-stamps its trailer),
  // so only those checks can catch it, and every fold must fail naming the
  // block.
  const auto serving = config::lte_param(config::ParamId::kServingPriority);
  struct Damage {
    const char* field;
    const char* message;
    void (*apply)(BlockInfo&);
  };
  const Damage damages[] = {
      {"row_count", "block row count disagrees with manifest",
       [](BlockInfo& b) { ++b.row_count; }},
      {"cell_count", "block cell count disagrees with manifest",
       [](BlockInfo& b) { ++b.cell_count; }},
      {"last_cell", "block cell-id range disagrees with manifest",
       [](BlockInfo& b) { ++b.last_cell; }},
  };
  for (const Damage& damage : damages) {
    StoreDir dir(std::string("blockend_") + damage.field);
    save_small_blocks(random_db(89, 2, 60, 2), dir.path());
    auto m = read_manifest(dir.path());
    ASSERT_TRUE(m.ok()) << m.error_message();
    // Damage a middle block of carrier C0; `pos` is its index among C0's
    // blocks, which is how the fold names it.
    const auto c0 = static_cast<std::uint32_t>(
        std::find(m.value().carriers.begin(), m.value().carriers.end(), "C0") -
        m.value().carriers.begin());
    std::vector<BlockInfo*> c0_blocks;
    for (ShardInfo& shard : m.value().shards)
      for (BlockInfo& block : shard.blocks)
        if (block.carrier_index == c0) c0_blocks.push_back(&block);
    ASSERT_GT(c0_blocks.size(), 4u) << "rotation targets too lax";
    const std::size_t pos = c0_blocks.size() / 2;
    damage.apply(*c0_blocks[pos]);
    const std::string expected = "block " + std::to_string(pos) +
                                 " of carrier C0 (offset " +
                                 std::to_string(c0_blocks[pos]->offset) +
                                 "): " + damage.message;
    write_manifest(dir.path(), m.value());

    auto set = ShardSet::open(dir.path());
    ASSERT_TRUE(set.ok()) << set.error_message();
    ASSERT_TRUE(set.value().verify().ok()) << "every shard CRC still holds";
    const auto expect_failed = [&](const auto& r, const ResidencyGauge& gauge,
                                   const std::string& what) {
      const std::string tag = std::string(damage.field) + " " + what;
      ASSERT_FALSE(r.ok()) << tag;
      EXPECT_NE(r.error_message().find(expected), std::string::npos)
          << tag << ": " << r.error_message();
      EXPECT_EQ(gauge.resident.load(std::memory_order_relaxed), 0u) << tag;
    };
    const auto noop = [](std::uint32_t, const core::CellRecord&) {};

    for (const bool filtered : {false, true}) {
      ResidencyGauge gauge;
      FoldOptions fopts;
      fopts.gauge = &gauge;
      const DirectFold direct(set.value(), fopts);
      Query q;
      if (filtered) q.params = {serving};
      const QueryPlan plan(set.value(), q);
      ASSERT_EQ(plan.filtered(), filtered);
      expect_failed(direct.fold_planned(plan, "C0", noop), gauge,
                    filtered ? "fold_planned params" : "fold_planned");
    }
    for (const unsigned threads : {1u, 4u}) {
      ResidencyGauge gauge;
      FoldOptions fopts;
      fopts.threads = threads;
      fopts.gauge = &gauge;
      const DirectFold direct(set.value(), fopts);
      const auto r = direct.fold_query(
          QueryPlan(set.value(), Query{}),
          [&](std::size_t, const CarrierQueryPlan&) { return noop; });
      expect_failed(r, gauge, "fold_query threads=" + std::to_string(threads));
    }
  }
}

// --- cursor buffer reuse -------------------------------------------------------

/// The oracle record for a planned fold: load_database's record restricted
/// to the query's parameters.  Identity metadata is the unfiltered merge's.
core::CellRecord restrict_record(const core::CellRecord& rec, const Query& q) {
  core::CellRecord out = rec;
  if (q.params.empty()) return out;
  out.observations.clear();
  for (const auto& obs : rec.observations)
    if (std::find(q.params.begin(), q.params.end(), obs.key) != q.params.end())
      out.observations.push_back(obs);
  return out;
}

void expect_same_record(const core::CellRecord& a, const core::CellRecord& b,
                        const std::string& what) {
  EXPECT_EQ(a.cell_id, b.cell_id) << what;
  EXPECT_EQ(a.rat, b.rat) << what;
  EXPECT_EQ(a.channel, b.channel) << what;
  expect_bits(a.position.x, b.position.x, what + " x");
  expect_bits(a.position.y, b.position.y, what + " y");
  ASSERT_EQ(a.observations.size(), b.observations.size()) << what;
  for (std::size_t i = 0; i < a.observations.size(); ++i) {
    const auto& oa = a.observations[i];
    const auto& ob = b.observations[i];
    const std::string at = what + " obs " + std::to_string(i);
    EXPECT_EQ(oa.key, ob.key) << at;
    expect_bits(oa.value, ob.value, at);
    EXPECT_EQ(oa.t, ob.t) << at;
    EXPECT_EQ(oa.context, ob.context) << at;
  }
}

/// Folds `q` over every carrier of the store, through fold_planned and
/// fold_query at 1 and 4 threads, for several windows, and checks every
/// delivered record bit for bit against load_database's record restricted
/// to the query; then checks DirectFold::values against the same
/// restricted oracle.  A caller-supplied gauge must drain to zero after
/// every fold.
void expect_folds_match_oracle(const ShardSet& set, const Query& q,
                               const std::string& tag) {
  const auto loaded = load(set);
  core::ConfigDatabase oracle;
  for (const auto& [carrier, cells] : loaded.carriers())
    for (const auto& [id, rec] : cells)
      if (id >= q.min_cell && id <= q.max_cell)
        oracle.upsert_cell(carrier, id) = restrict_record(rec, q);

  const QueryPlan plan(set, q);
  const auto expect_cells =
      [&](const std::string& carrier,
          const std::vector<std::pair<std::uint32_t, core::CellRecord>>& got,
          const std::string& what) {
        const auto* want = oracle.cells_of(carrier);
        ASSERT_EQ(got.size(), want ? want->size() : 0u) << what << " " << carrier;
        if (!want) return;
        auto it = want->begin();
        for (const auto& [id, rec] : got) {
          ASSERT_EQ(id, it->first) << what;
          expect_same_record(rec, it->second,
                             what + " " + carrier + " cell " + std::to_string(id));
          ++it;
        }
      };

  for (const std::size_t window : {std::size_t{1}, std::size_t{2},
                                   std::size_t{0}}) {
    const std::string wtag = tag + " window=" + std::to_string(window);
    ResidencyGauge gauge;
    FoldOptions fopts;
    fopts.window_blocks = window;
    fopts.gauge = &gauge;
    const DirectFold direct(set, fopts);
    for (const auto& carrier : direct.carriers()) {
      std::vector<std::pair<std::uint32_t, core::CellRecord>> got;
      const auto r = direct.fold_planned(
          plan, carrier,
          [&](std::uint32_t id, const core::CellRecord& rec) {
            got.emplace_back(id, rec);
          });
      ASSERT_TRUE(r.ok()) << wtag << ": " << r.error_message();
      EXPECT_EQ(gauge.resident.load(std::memory_order_relaxed), 0u) << wtag;
      expect_cells(carrier, got, wtag + " fold_planned");
    }
    for (const unsigned threads : {1u, 4u}) {
      ResidencyGauge qgauge;
      FoldOptions qopts = fopts;
      qopts.threads = threads;
      qopts.gauge = &qgauge;
      const DirectFold scheduled(set, qopts);
      std::vector<std::vector<std::pair<std::uint32_t, core::CellRecord>>> got(
          plan.carriers().size());
      const auto r = scheduled.fold_query(
          plan, [&](std::size_t slot, const CarrierQueryPlan&) {
            return [&got, slot](std::uint32_t id, const core::CellRecord& rec) {
              got[slot].emplace_back(id, rec);
            };
          });
      ASSERT_TRUE(r.ok()) << wtag << ": " << r.error_message();
      EXPECT_EQ(qgauge.resident.load(std::memory_order_relaxed), 0u) << wtag;
      for (std::size_t i = 0; i < plan.carriers().size(); ++i)
        expect_cells(plan.carriers()[i].name, got[i],
                     wtag + " fold_query threads=" + std::to_string(threads));
    }

    for (const auto& carrier : direct.carriers()) {
      for (const auto& key : loaded.observed_params(carrier)) {
        if (!q.params.empty() &&
            std::find(q.params.begin(), q.params.end(), key) == q.params.end())
          continue;
        auto values = direct.values(carrier, key, q);
        ASSERT_TRUE(values.ok()) << values.error_message();
        EXPECT_EQ(values.value(), oracle.values(carrier, key)) << wtag;
      }
    }
    EXPECT_EQ(gauge.resident.load(std::memory_order_relaxed), 0u) << wtag;
  }
}

/// A record of `n` observations over a few keys, starting at time `t0`.
core::CellRecord make_run(spectrum::Rat rat, std::uint32_t channel,
                          double x, std::int64_t t0, std::size_t n) {
  core::CellRecord rec;
  rec.rat = rat;
  rec.channel = channel;
  rec.position = {x, -x};
  for (std::size_t i = 0; i < n; ++i)
    rec.observations.push_back(
        {config::ParamKey{rat, static_cast<std::uint16_t>(i % 5)},
         static_cast<double>(i % 7) - 3.0,
         SimTime{static_cast<Millis>(t0 + static_cast<std::int64_t>(i))},
         i % 3 == 0 ? static_cast<std::int64_t>(i % 11) : -1});
  return rec;
}

TEST(DirectFoldCursor, EmptyCellRightAfterALargeCellMatchesTheOracle) {
  // A cursor reuses one record for every run of its block, and the merge
  // swaps it with the buffer that held the previous cell.  A run with no
  // observations that follows a large run in the same block must come out
  // empty, not carrying the large run's leftovers.
  StoreDir dir("cursor_empty");
  const auto lte = spectrum::Rat::kLte;
  {
    ShardWriter writer(dir.path());  // default blocks: one run per block
    // First run: large, empty, small, large, empty.
    writer.add_cell("C0", 10, make_run(lte, 3, 1.0, 1000, 3000));
    writer.add_cell("C0", 11, core::CellRecord{});
    writer.add_cell("C0", 12, make_run(lte, 4, 2.0, 1000, 3));
    writer.add_cell("C0", 13, make_run(spectrum::Rat::kUmts, 5, 3.0, 900, 2500));
    writer.add_cell("C0", 14, core::CellRecord{});
    // Second run (a descending id starts a new block): more of 10, the
    // first observations of 11 (earlier than nothing: its metadata wins),
    // and 14 stays empty across both runs.
    writer.add_cell("C0", 10, make_run(lte, 6, 4.0, 500, 40));
    writer.add_cell("C0", 11, make_run(lte, 7, 5.0, 2000, 5));
    writer.add_cell("C0", 14, core::CellRecord{});
    writer.add_cell("C0", 15, core::CellRecord{});
    writer.finish();
  }
  auto set = ShardSet::open(dir.path());
  ASSERT_TRUE(set.ok()) << set.error_message();
  ASSERT_EQ(set.value().blocks().size(), 2u);
  const auto loaded = load(set.value());
  ASSERT_TRUE(loaded.cells_of("C0")->at(14).observations.empty());

  expect_folds_match_oracle(set.value(), Query{}, "unplanned");
  Query by_key;
  by_key.params = {config::ParamKey{lte, 1}};
  expect_folds_match_oracle(set.value(), by_key, "params");
  Query by_range;
  by_range.min_cell = 11;
  by_range.max_cell = 14;
  expect_folds_match_oracle(set.value(), by_range, "range");
}

TEST(DirectFoldCursor, CellWhoseRunsSpanManyConsecutiveBlocksMatchesTheOracle) {
  // A tiny block target puts every spilled run in its own block, and a
  // one-snapshot chunk spills every snapshot: cell 7's runs fill several
  // consecutive blocks, so the merge holds more cursors open than any
  // window and carries one merged record across all of them.
  StoreDir dir("cursor_span");
  const auto lte = spectrum::Rat::kLte;
  const auto snapshot = [&](StreamingDatasetSink& sink, std::uint32_t id,
                            std::int64_t t, std::size_t n) {
    std::vector<config::ParamObservation> params;
    for (std::size_t i = 0; i < n; ++i)
      params.push_back({config::ParamKey{lte, static_cast<std::uint16_t>(i % 4)},
                        static_cast<double>((id + t + i) % 6),
                        i % 2 ? static_cast<std::int64_t>(i) : -1});
    sink.snapshot("C0", id, lte, 2 + id % 3, {1.0 * id, 2.0 * t},
                  SimTime{static_cast<Millis>(t)}, params);
  };
  {
    WriterOptions wopts;
    wopts.target_block_bytes = 16;
    wopts.target_shard_bytes = 256;
    ShardWriter writer(dir.path(), wopts);
    StreamingDatasetSink sink(writer, 1);
    snapshot(sink, 3, 10, 2);
    for (std::int64_t t = 20; t < 26; ++t)
      snapshot(sink, 7, t, t % 2 ? 40 : 1);  // a large and a small run in turn
    snapshot(sink, 5, 30, 3);
    snapshot(sink, 7, 31, 2);
    snapshot(sink, 9, 32, 2);
    snapshot(sink, 7, 5, 3);  // earliest run of 7, last on the wire
    sink.finish();
  }
  auto set = ShardSet::open(dir.path());
  ASSERT_TRUE(set.ok()) << set.error_message();
  std::size_t longest = 0, streak = 0;
  for (const auto& ref : set.value().blocks()) {
    streak = ref.info->first_cell == 7 && ref.info->last_cell == 7 ? streak + 1
                                                                   : 0;
    longest = std::max(longest, streak);
  }
  ASSERT_GE(longest, 3u) << "cell 7's runs must span consecutive blocks";

  expect_folds_match_oracle(set.value(), Query{}, "unplanned");
  Query by_key;
  by_key.params = {config::ParamKey{lte, 2}};
  expect_folds_match_oracle(set.value(), by_key, "params");
  Query by_range;
  by_range.min_cell = 6;
  by_range.max_cell = 8;
  expect_folds_match_oracle(set.value(), by_range, "range");
}

TEST(DirectFoldCursor, OutOfRangeCellsBetweenInRangeOnesMatchTheOracle) {
  // Two runs over the same odd cell ids, so every block's id range overlaps
  // the other run's and a range query's boundaries fall inside blocks: each
  // cursor skips out-of-range cells before and after its in-range ones
  // while the other run's cursors hold in-range cells.  A query between two
  // ids selects blocks with no in-range cell at all.
  StoreDir dir("cursor_range");
  const auto lte = spectrum::Rat::kLte;
  {
    WriterOptions wopts;
    wopts.target_block_bytes = 200;
    wopts.target_shard_bytes = 1024;
    ShardWriter writer(dir.path(), wopts);
    for (int run = 0; run < 2; ++run)
      for (std::uint32_t id = 1; id < 80; id += 2)
        writer.add_cell(
            "C0", id,
            make_run(lte, id % 4, 1.0 * id, 100 * run + id,
                     id % 9 == 0 ? 0 : 1 + (id + run) % 6));
    writer.finish();
  }
  auto set = ShardSet::open(dir.path());
  ASSERT_TRUE(set.ok()) << set.error_message();
  ASSERT_GT(set.value().blocks().size(), 6u) << "rotation targets too lax";

  const std::pair<std::uint32_t, std::uint32_t> ranges[] = {
      {20, 40}, {21, 21}, {30, 30}, {0, 5}, {55, 0xFFFFFFFFu}};
  for (const auto& [lo, hi] : ranges) {
    const std::string tag =
        "range [" + std::to_string(lo) + ", " + std::to_string(hi) + "]";
    Query q;
    q.min_cell = lo;
    q.max_cell = hi;
    expect_folds_match_oracle(set.value(), q, tag);
    q.params = {config::ParamKey{lte, 3}};
    expect_folds_match_oracle(set.value(), q, tag + " params");
  }
}

// --- many-block folds across thread counts -------------------------------------

TEST(StoreBuildParallel, ManyBlockBuildIsThreadCountInvariant) {
  // The scheduled whole-store mix over a many-block store answers the same
  // bits for every engine thread count (cross-carrier jobs at threads > 1,
  // the sequential loop at 1).
  StoreDir dir("build");
  const auto db = random_db(79, 4, 80, 3);
  save_small_blocks(db, dir.path());
  auto set = ShardSet::open(dir.path());
  ASSERT_TRUE(set.ok()) << set.error_message();
  ASSERT_GT(set.value().blocks().size(), 16u);

  const auto serving = config::lte_param(config::ParamId::kServingPriority);
  for (const unsigned threads : {1u, 2u, 4u, 0u}) {
    FoldOptions fopts;
    fopts.threads = threads;
    const DirectFold direct(set.value(), fopts);
    const std::string tag = "threads=" + std::to_string(threads);
    auto qa = analyze_query(direct, Query{});
    ASSERT_TRUE(qa.ok()) << qa.error_message();
    EXPECT_EQ(qa.value().stats.rows, db.total_samples());
    ASSERT_EQ(qa.value().carriers.size(), db.carriers().size());
    for (std::size_t i = 0; i < qa.value().carriers.size(); ++i) {
      const std::string& carrier = qa.value().carriers[i];
      const auto& a = qa.value().results[i];
      EXPECT_EQ(a.values(serving), db.values(carrier, serving)) << tag;
      std::vector<config::ParamKey> observed;
      for (const auto& [key, totals] : a.totals) observed.push_back(key);
      EXPECT_EQ(observed, db.observed_params(carrier)) << tag;
      expect_diversity(a.diversity, core::diversity_by_param(db, carrier),
                       tag + " diversity " + carrier);
    }
  }
}

TEST(StoreBuildParallel, ConcurrentFoldsOfDistinctCarriersAreIndependent) {
  // TSan-facing: two DirectFold instances over one ShardSet folding
  // different carriers from different threads share only the read-only
  // mapping.  (A single engine's stats() accumulation is mutex-guarded too —
  // that's what fold_query leans on — but distinct instances must also stay
  // independent.)
  StoreDir dir("concurrent");
  const auto db = random_db(83, 2, 60, 2);
  save_small_blocks(db, dir.path());
  auto set = ShardSet::open(dir.path());
  ASSERT_TRUE(set.ok()) << set.error_message();
  const auto serving = config::lte_param(config::ParamId::kServingPriority);

  FoldOptions fopts;
  fopts.release_mapped = false;  // do not discard pages under the other fold
  const DirectFold a(set.value(), fopts);
  const DirectFold b(set.value(), fopts);
  stats::ValueCounts ra, rb;
  std::thread ta([&] { ra = a.values("C0", serving).value(); });
  std::thread tb([&] { rb = b.values("C1", serving).value(); });
  ta.join();
  tb.join();
  EXPECT_EQ(ra, db.values("C0", serving));
  EXPECT_EQ(rb, db.values("C1", serving));
}

}  // namespace
}  // namespace mmlab::store
