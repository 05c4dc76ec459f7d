// The parallel store writer against its serial oracle.
//
// ShardWriter::add_database encodes row-balanced chunks on a worker pool and
// lays them out on the calling thread; the add_cell loop over the same
// database is the oracle.  Every file of the store must be byte-identical
// at every thread count, under rotation targets small enough that blocks
// span chunks and shards rotate mid-carrier, on a giant cell and on
// observation-less cells, and after a refused non-finite cell.  The suite
// name keeps these tests in the sanitizer job's `Store` filter.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "mmlab/core/database.hpp"
#include "mmlab/store/mmds2.hpp"
#include "mmlab/store/shard_set.hpp"
#include "mmlab/store/shard_writer.hpp"
#include "mmlab/util/byteio.hpp"
#include "mmlab/util/rng.hpp"

namespace mmlab::store {
namespace {

namespace fs = std::filesystem;

class TempPath {
 public:
  explicit TempPath(const std::string& tag)
      : path_((fs::path(::testing::TempDir()) / ("mmlab_psave_" + tag))
                  .string()) {
    fs::remove_all(path_);
  }
  ~TempPath() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Every regular file of a directory, by name.
std::map<std::string, std::vector<std::uint8_t>> files_of(
    const std::string& dir) {
  std::map<std::string, std::vector<std::uint8_t>> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    std::vector<std::uint8_t> bytes;
    EXPECT_TRUE(read_file_bytes(entry.path().string(), bytes));
    files[entry.path().filename().string()] = std::move(bytes);
  }
  return files;
}

/// Registry ids the random databases never use (LTE has 40 parameters).
constexpr std::uint16_t kSpareLteId = 37;

/// A database with `carriers` carriers of up to `cells` cells; visits and
/// observation counts vary, ids are sparse, and about one cell in
/// `empty_every` has no observations at all.
core::ConfigDatabase random_db(std::uint64_t seed, std::size_t carriers,
                               std::size_t cells, std::size_t empty_every) {
  Rng rng(seed);
  core::ConfigDatabase db;
  for (std::size_t c = 0; c < carriers; ++c) {
    std::string name = "K";
    name += std::to_string(rng.below(1000));
    const std::size_t n_cells = rng.below(cells + 1);
    for (std::size_t i = 0; i < n_cells; ++i) {
      const auto id = static_cast<std::uint32_t>(rng.below(1u << 30));
      const auto rat = static_cast<spectrum::Rat>(rng.below(5));
      const auto channel = static_cast<std::uint32_t>(rng.below(70'000));
      const geo::Point pos{rng.uniform(-1e5, 1e5), rng.uniform(-1e5, 1e5)};
      if (empty_every != 0 && rng.below(empty_every) == 0) {
        core::CellRecord& rec = db.upsert_cell(name, id);
        rec.cell_id = id;
        rec.rat = rat;
        rec.channel = channel;
        rec.position = pos;
        continue;
      }
      SimTime t{static_cast<Millis>(rng.below(1'000'000'000))};
      const int visits = 1 + static_cast<int>(rng.below(4));
      for (int v = 0; v < visits; ++v) {
        std::vector<config::ParamObservation> params;
        const int n = 1 + static_cast<int>(rng.below(30));
        for (int p = 0; p < n; ++p) {
          config::ParamObservation obs;
          // Rare keys keep appearing late, so the pre-scan's first-sight
          // merge across chunks decides the table order.  LTE ids stop
          // short of kSpareLteId.
          const std::uint64_t ids = rat == spectrum::Rat::kLte ? kSpareLteId : 6;
          obs.key = config::ParamKey{
              rat, static_cast<std::uint16_t>(
                       rng.chance(0.9) ? rng.below(ids / 3) : rng.below(ids))};
          obs.value = rng.chance(0.5)
                          ? static_cast<double>(rng.between(-20, 20))
                          : rng.uniform(-150.0, 50.0);
          obs.context = rng.chance(0.3) ? rng.between(-5, 300) : -1;
          params.push_back(obs);
        }
        db.add_snapshot(name, id, rat, channel, pos, t, params);
        t += static_cast<Millis>(1 + rng.below(5'000'000));
      }
    }
  }
  return db;
}

/// The oracle: the add_cell loop, carriers in name order, cells ascending.
void write_serial(const core::ConfigDatabase& db, const std::string& dir,
                  WriterOptions options) {
  ShardWriter writer(dir, options);
  for (const auto& [carrier, cells] : db.carriers())
    for (const auto& [id, rec] : cells) writer.add_cell(carrier, id, rec);
  writer.finish();
}

/// The rotation targets the sweeps run under, from one cell per block up
/// to the defaults.
std::vector<WriterOptions> layouts() {
  std::vector<WriterOptions> out;
  for (const auto& [block, shard] :
       std::vector<std::pair<std::size_t, std::size_t>>{
           {1, 2000}, {64, 512}, {700, 3000}, {4096, 20'000},
           {32 * 1024, 100'000}, {8u << 20, 64u << 20}}) {
    WriterOptions o;
    o.target_block_bytes = block;
    o.target_shard_bytes = shard;
    out.push_back(o);
  }
  return out;
}

void expect_same_store(const core::ConfigDatabase& db, const std::string& tag) {
  const auto all = layouts();
  for (std::size_t l = 0; l < all.size(); ++l) {
    WriterOptions options = all[l];
    TempPath oracle_dir(tag + "_oracle");
    write_serial(db, oracle_dir.path(), options);
    const auto expected = files_of(oracle_dir.path());
    for (const unsigned threads : {1u, 2u, 3u, 4u, 8u}) {
      options.threads = threads;
      TempPath dir(tag + "_t" + std::to_string(threads));
      const WriteStats stats = save_database(db, dir.path(), options);
      EXPECT_EQ(stats.rows, db.total_samples());
      const auto actual = files_of(dir.path());
      ASSERT_EQ(actual.size(), expected.size())
          << "layout " << l << " threads " << threads;
      for (const auto& [name, bytes] : expected) {
        const auto it = actual.find(name);
        ASSERT_NE(it, actual.end()) << name;
        EXPECT_TRUE(it->second == bytes)
            << name << " differs: layout " << l << " threads " << threads;
      }
    }
  }
}

TEST(StoreSaveParallel, MatchesAddCellLoopOnRandomDatabases) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const auto db = random_db(seed, 1 + seed * 2, 60, 9);
    ASSERT_GT(db.total_samples(), 0u);
    expect_same_store(db, "random" + std::to_string(seed));
  }
}

TEST(StoreSaveParallel, GiantCellAmongSmallOnes) {
  // One cell larger than a chunk's budget, and under the small layouts
  // than the whole window: its chunk is in flight alone.
  auto db = random_db(17, 3, 40, 0);
  std::vector<config::ParamObservation> params;
  Rng rng(5);
  for (int p = 0; p < 60'000; ++p)
    params.push_back({config::ParamKey{spectrum::Rat::kLte,
                                       static_cast<std::uint16_t>(p % 30)},
                      rng.uniform(-10.0, 10.0), -1});
  db.add_snapshot(db.carriers().begin()->first, 7, spectrum::Rat::kLte, 100,
                  {1.0, 2.0}, SimTime{5}, params);
  expect_same_store(db, "giant");
}

TEST(StoreSaveParallel, EmptyCellsAndEmptyDatabase) {
  // Carriers whose cells carry no observations still get cell headers.
  core::ConfigDatabase db;
  for (const char* carrier : {"E1", "E2", "E3"})
    for (std::uint32_t id = 1; id <= 50; ++id) {
      core::CellRecord& rec = db.upsert_cell(carrier, id * 3);
      rec.cell_id = id * 3;
    }
  expect_same_store(db, "empty_cells");
  expect_same_store(core::ConfigDatabase{}, "empty_db");
}

TEST(StoreSaveParallel, CallsContinueTheOpenBlock) {
  // add_cell, add_database and add_cell again on one writer: the open
  // block carries across calls exactly as in an all-add_cell run.
  const auto db = random_db(23, 4, 60, 7);
  core::CellRecord extra;
  extra.observations.push_back(
      {config::ParamKey{spectrum::Rat::kLte, 3}, 1.5, SimTime{1}, -1});
  const std::string last = db.carriers().rbegin()->first;
  for (const auto& base : layouts()) {
    for (const unsigned threads : {1u, 4u}) {
      WriterOptions options = base;
      TempPath oracle_dir("calls_oracle");
      TempPath dir("calls");
      {
        ShardWriter oracle(oracle_dir.path(), options);
        oracle.add_cell(last, 0, extra);
        for (const auto& [carrier, cells] : db.carriers())
          for (const auto& [id, rec] : cells) oracle.add_cell(carrier, id, rec);
        oracle.add_cell(last, 0xFFFFFFFF, extra);
        oracle.finish();
      }
      options.threads = threads;
      {
        ShardWriter writer(dir.path(), options);
        writer.add_cell(last, 0, extra);
        writer.add_database(db);
        writer.add_cell(last, 0xFFFFFFFF, extra);
        writer.finish();
      }
      EXPECT_TRUE(files_of(dir.path()) == files_of(oracle_dir.path()))
          << "block " << base.target_block_bytes << " threads " << threads;
    }
  }
}

TEST(StoreSaveParallel, NonFiniteValueRefusesTheFirstBadCell) {
  // Three bad cells; whichever chunk finds one first, the error names the
  // first in write order, no manifest is written, and the writer is left as
  // the add_cell loop leaves it: finishing both gives the same store.
  auto db = random_db(31, 4, 80, 0);
  std::vector<std::pair<std::string, std::uint32_t>> order;
  for (const auto& [carrier, cells] : db.carriers())
    for (const auto& [id, rec] : cells) order.emplace_back(carrier, id);
  ASSERT_GT(order.size(), 60u);
  const double bad_values[] = {std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity(),
                               -std::numeric_limits<double>::infinity()};
  const std::size_t bad_at[] = {order.size() / 3, order.size() / 2,
                                order.size() - 2};
  for (int b = 0; b < 3; ++b) {
    const auto& [carrier, id] = order[bad_at[b]];
    // A key no earlier cell has: the refused cell's new key must not reach
    // the table.
    db.upsert_cell(carrier, id).observations.push_back(
        {config::ParamKey{spectrum::Rat::kLte,
                          static_cast<std::uint16_t>(kSpareLteId + b)},
         bad_values[b], SimTime{1'000'000'000'000}, -1});
  }
  const std::string expected_error =
      "ShardWriter: non-finite observation value in cell " +
      std::to_string(order[bad_at[0]].second);

  for (const auto& base : layouts()) {
    WriterOptions options = base;
    TempPath oracle_dir("bad_oracle");
    {
      ShardWriter oracle(oracle_dir.path(), options);
      try {
        for (const auto& [carrier, cells] : db.carriers())
          for (const auto& [cid, rec] : cells)
            oracle.add_cell(carrier, cid, rec);
        FAIL() << "the oracle accepted a non-finite value";
      } catch (const std::invalid_argument& e) {
        EXPECT_EQ(e.what(), expected_error);
      }
      oracle.finish();
    }
    const auto expected = files_of(oracle_dir.path());
    for (const unsigned threads : {1u, 2u, 3u, 4u, 8u}) {
      options.threads = threads;
      TempPath dir("bad_t" + std::to_string(threads));
      ShardWriter writer(dir.path(), options);
      try {
        writer.add_database(db);
        FAIL() << "threads " << threads << " accepted a non-finite value";
      } catch (const std::invalid_argument& e) {
        EXPECT_EQ(e.what(), expected_error) << "threads " << threads;
      }
      EXPECT_FALSE(fs::exists(fs::path(dir.path()) / kMmds2ManifestName));
      writer.finish();
      EXPECT_TRUE(files_of(dir.path()) == expected)
          << "block " << base.target_block_bytes << " threads " << threads;
    }
  }
}

/// Replays a database as per-visit snapshots (cells ascending, times
/// nondecreasing) into a sink.
void replay(const core::ConfigDatabase& db, StreamingDatasetSink& sink) {
  for (const auto& [carrier, cells] : db.carriers())
    for (const auto& [id, rec] : cells) {
      std::size_t i = 0;
      while (i < rec.observations.size()) {
        std::vector<config::ParamObservation> params;
        std::size_t j = i;
        for (; j < rec.observations.size() &&
               rec.observations[j].t == rec.observations[i].t;
             ++j)
          params.push_back({rec.observations[j].key, rec.observations[j].value,
                            rec.observations[j].context});
        sink.snapshot(carrier, id, rec.rat, rec.channel, rec.position,
                      rec.observations[i].t, params);
        i = j;
      }
    }
}

TEST(StoreSaveParallel, SinkChunkInvariance) {
  // The sink spills through add_database: at every chunk size the store
  // loads back to the database, and its bytes do not depend on threads.
  const auto db = random_db(41, 5, 60, 0);
  WriterOptions base;
  base.target_block_bytes = 900;
  base.target_shard_bytes = 5000;
  for (const std::size_t chunk_rows : {1u, 37u, 500u, 100'000u}) {
    std::map<std::string, std::vector<std::uint8_t>> first;
    for (const unsigned threads : {1u, 2u, 4u}) {
      WriterOptions options = base;
      options.threads = threads;
      TempPath dir("sink_t" + std::to_string(threads));
      {
        ShardWriter writer(dir.path(), options);
        StreamingDatasetSink sink(writer, chunk_rows);
        replay(db, sink);
        EXPECT_EQ(sink.finish().rows, db.total_samples());
      }
      auto set = ShardSet::open(dir.path());
      ASSERT_TRUE(set.ok()) << set.error_message();
      core::ConfigDatabase loaded;
      ASSERT_TRUE(load_database(set.value(), loaded, 2).ok());
      EXPECT_EQ(loaded, db) << "chunk_rows " << chunk_rows;
      if (threads == 1)
        first = files_of(dir.path());
      else
        EXPECT_TRUE(files_of(dir.path()) == first)
            << "chunk_rows " << chunk_rows << " threads " << threads;
    }
  }
}

}  // namespace
}  // namespace mmlab::store
