// MMDS v2 out-of-core store: property-based round-trips (random database ->
// sharded store -> load is bit-exact; chunk size and thread count never
// change results), the out-of-core figure mix against the in-memory walk
// and the reference scans, manifest/shard corruption rejection (down to an
// every-byte flip sweep), the store sniff, and the streaming generator's
// determinism contract against generate_world.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "mmlab/core/analysis.hpp"
#include "mmlab/core/database.hpp"
#include "mmlab/core/dataset_io.hpp"
#include "mmlab/netgen/generator.hpp"
#include "mmlab/netgen/streamgen.hpp"
#include "mmlab/store/analytics.hpp"
#include "mmlab/store/mmds2.hpp"
#include "mmlab/store/shard_set.hpp"
#include "mmlab/store/shard_writer.hpp"
#include "mmlab/util/byteio.hpp"
#include "mmlab/util/crc.hpp"
#include "mmlab/util/rng.hpp"

namespace mmlab::store {
namespace {

namespace fs = std::filesystem;

/// Fresh per-test store directory under the gtest temp dir.
class StoreDir {
 public:
  explicit StoreDir(const std::string& tag)
      : path_((fs::path(::testing::TempDir()) / ("mmlab_store_" + tag))
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

/// A random database with adversarial shape: many carriers, duplicate
/// snapshots of the same cell (multi-visit), several RATs, contexts, and
/// value repetition so the dedup paths all fire.
core::ConfigDatabase random_db(std::uint64_t seed, std::size_t carriers = 4,
                               std::size_t cells_per_carrier = 40,
                               int max_visits = 3) {
  Rng rng(seed);
  core::ConfigDatabase db;
  for (std::size_t c = 0; c < carriers; ++c) {
    std::string name = "C";  // (not operator+: GCC 12 -Wrestrict false positive)
    name += std::to_string(c);
    for (std::size_t i = 0; i < cells_per_carrier; ++i) {
      const auto id = static_cast<std::uint32_t>(1 + rng.below(1'000'000));
      const auto rat = static_cast<spectrum::Rat>(rng.below(4));
      const auto channel = static_cast<std::uint32_t>(rng.below(66'000));
      const geo::Point pos{rng.uniform(-5e4, 5e4), rng.uniform(-5e4, 5e4)};
      const int visits = 1 + static_cast<int>(rng.below(
                                 static_cast<std::uint64_t>(max_visits)));
      SimTime t{static_cast<Millis>(rng.below(1'000'000))};
      for (int v = 0; v < visits; ++v) {
        std::vector<config::ParamObservation> params;
        const int n = 1 + static_cast<int>(rng.below(6));
        for (int p = 0; p < n; ++p) {
          config::ParamObservation obs;
          obs.key = config::ParamKey{
              rat, static_cast<std::uint16_t>(rng.below(8))};
          obs.value = static_cast<double>(rng.below(5)) - 2.0;
          obs.context =
              rng.chance(0.3) ? static_cast<std::int64_t>(rng.below(100)) : -1;
          params.push_back(obs);
        }
        db.add_snapshot(name, id, rat, channel, pos, t, params);
        t += static_cast<Millis>(1 + rng.below(1'000'000));
      }
    }
  }
  return db;
}

TEST(StoreRoundTrip, RandomDatabasesAreBitExact) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    StoreDir dir("roundtrip_" + std::to_string(seed));
    const auto db = random_db(seed);

    // Tiny rotation targets so even a small database spans many blocks and
    // shards — the layout under test, not the happy single-block path.
    WriterOptions wopts;
    wopts.target_block_bytes = 1024;
    wopts.target_shard_bytes = 8192;
    const auto wstats = save_database(db, dir.path(), wopts);
    EXPECT_EQ(wstats.rows, db.total_samples());
    EXPECT_GT(wstats.shards, 1u) << "rotation targets too lax to test layout";

    auto set = ShardSet::open(dir.path());
    ASSERT_TRUE(set.ok()) << set.error_message();
    const auto verified = set.value().verify();
    EXPECT_TRUE(verified.ok()) << verified.error_message();

    core::ConfigDatabase loaded;
    const auto lstats = load_database(set.value(), loaded);
    ASSERT_TRUE(lstats.ok()) << lstats.error_message();
    EXPECT_EQ(lstats.value().rows, db.total_samples());
    EXPECT_EQ(loaded, db);
  }
}

/// A small database exercising the encoder's edge cases: extreme and
/// denormal doubles, huge coordinates, negative/zero/out-of-order
/// timestamps, multiple RATs, large ids and contexts.
core::ConfigDatabase edge_case_db() {
  using config::ParamId;
  core::ConfigDatabase db;
  const auto ps = config::lte_param(ParamId::kServingPriority);
  const auto pc = config::lte_param(ParamId::kNeighborPriority);
  db.add_snapshot("X", 0xFFFFFFFFu, spectrum::Rat::kLte, 0,
                  {1.7e308, -1.7e308}, SimTime{-123'456'789},
                  {{ps, std::numeric_limits<double>::denorm_min(), -1}});
  db.add_snapshot("X", 0xFFFFFFFFu, spectrum::Rat::kLte, 0,
                  {1.7e308, -1.7e308}, SimTime{0},
                  {{pc, -std::numeric_limits<double>::max(),
                    std::numeric_limits<std::int64_t>::max()}});
  db.add_snapshot("X", 1, spectrum::Rat::kUmts, 4'294'967'294u, {-0.0, 0.1},
                  SimTime{std::numeric_limits<Millis>::max() / 2},
                  {{config::ParamKey{spectrum::Rat::kUmts, 2}, 0.1, -1}});
  db.add_snapshot("ZZ", 7, spectrum::Rat::kGsm, 850, {1e-300, -1e-300},
                  SimTime{42},
                  {{config::ParamKey{spectrum::Rat::kGsm, 0}, -7.25, -1}});
  return db;
}

TEST(StoreRoundTrip, EdgeCaseValuesAreBitExact) {
  StoreDir dir("roundtrip_edge");
  const auto db = edge_case_db();
  save_database(db, dir.path());
  auto set = ShardSet::open(dir.path());
  ASSERT_TRUE(set.ok()) << set.error_message();
  core::ConfigDatabase loaded;
  const auto stats = load_database(set.value(), loaded);
  ASSERT_TRUE(stats.ok()) << stats.error_message();
  EXPECT_EQ(stats.value().rows, db.total_samples());
  EXPECT_EQ(loaded, db);
}

TEST(StoreRoundTrip, ResaveIsByteIdentical) {
  // A loaded store written again reproduces every file byte for byte.
  const auto db = random_db(41, 3, 30);
  WriterOptions wopts;
  wopts.target_block_bytes = 1024;
  wopts.target_shard_bytes = 8192;
  StoreDir first("resave_first"), second("resave_second");
  save_database(db, first.path(), wopts);
  auto set = ShardSet::open(first.path());
  ASSERT_TRUE(set.ok()) << set.error_message();
  core::ConfigDatabase loaded;
  ASSERT_TRUE(load_database(set.value(), loaded).ok());
  save_database(loaded, second.path(), wopts);

  std::vector<std::string> files = {kMmds2ManifestName};
  for (const auto& shard : set.value().manifest().shards)
    files.push_back(shard.filename);
  for (const auto& file : files) {
    std::vector<std::uint8_t> a, b;
    ASSERT_TRUE(read_file_bytes((fs::path(first.path()) / file).string(), a));
    ASSERT_TRUE(read_file_bytes((fs::path(second.path()) / file).string(), b));
    EXPECT_EQ(a, b) << file;
  }
}

TEST(StoreRoundTrip, LoadIsThreadCountInvariant) {
  StoreDir dir("threads");
  const auto db = random_db(77, 6, 60);
  WriterOptions wopts;
  wopts.target_block_bytes = 2048;
  wopts.target_shard_bytes = 16384;
  save_database(db, dir.path(), wopts);
  auto set = ShardSet::open(dir.path());
  ASSERT_TRUE(set.ok()) << set.error_message();

  core::ConfigDatabase serial;
  ASSERT_TRUE(load_database(set.value(), serial, 1).ok());
  EXPECT_EQ(serial, db);
  for (unsigned threads : {2u, 4u, 0u}) {
    core::ConfigDatabase parallel;
    ASSERT_TRUE(load_database(set.value(), parallel, threads).ok());
    EXPECT_EQ(parallel, serial) << "threads " << threads;
  }
}

/// Replays a database's snapshots (carrier name order, cells ascending,
/// observations in time order) into a StreamingDatasetSink — the same
/// per-cell nondecreasing-time contract the generator satisfies.
WriteStats replay_into_sink(const core::ConfigDatabase& db,
                            StreamingDatasetSink& sink) {
  for (const auto& [carrier, cells] : db.carriers()) {
    for (const auto& [id, rec] : cells) {
      // Group the expanded rows back into snapshots: the encoder stored
      // them in arrival order, so consecutive equal timestamps of one
      // visit stay adjacent.
      const auto obs = rec.expanded();
      std::size_t i = 0;
      while (i < obs.size()) {
        std::size_t j = i;
        std::vector<config::ParamObservation> params;
        while (j < obs.size() && obs[j].t == obs[i].t) {
          params.push_back({obs[j].key, obs[j].value, obs[j].context});
          ++j;
        }
        sink.snapshot(carrier, id, rec.rat, rec.channel, rec.position,
                      obs[i].t, params);
        i = j;
      }
    }
  }
  return sink.finish();
}

TEST(StoreRoundTrip, ChunkSizeNeverChangesTheStore) {
  // The spill contract: any chunk size yields a store that loads back to
  // the identical database (visit-grouped replay keeps per-cell times
  // nondecreasing, the documented sufficient condition).
  Rng rng(99);
  core::ConfigDatabase reference_db = random_db(13, 3, 30);
  core::ConfigDatabase first_loaded;
  bool have_first = false;
  for (int trial = 0; trial < 4; ++trial) {
    const std::size_t chunk_rows =
        trial == 0 ? 1 : 1 + rng.below(400);  // 1 = spill every snapshot
    StoreDir dir("chunk_" + std::to_string(trial));
    WriterOptions wopts;
    wopts.target_block_bytes = 1536;
    wopts.target_shard_bytes = 8192;
    ShardWriter writer(dir.path(), wopts);
    StreamingDatasetSink sink(writer, chunk_rows);
    replay_into_sink(reference_db, sink);

    auto set = ShardSet::open(dir.path());
    ASSERT_TRUE(set.ok()) << set.error_message();
    core::ConfigDatabase loaded;
    ASSERT_TRUE(load_database(set.value(), loaded, 1 + trial % 3).ok());
    EXPECT_EQ(loaded, reference_db) << "chunk_rows " << chunk_rows;
    if (!have_first) {
      first_loaded = loaded;
      have_first = true;
    } else {
      EXPECT_EQ(loaded, first_loaded);
    }
  }
}

TEST(StoreColumnar, OutOfCoreViewMatchesInMemory) {
  // The two cell sources of the figure accumulators agree: the shard-direct
  // mix (store::analyze_query) equals the in-memory walk over the same data
  // (core::analyze_database) product for product, at every thread count.
  StoreDir dir("two_sources");
  const auto db = random_db(21, 5, 50, 4);
  WriterOptions wopts;
  wopts.target_block_bytes = 1024;
  wopts.target_shard_bytes = 4096;
  save_database(db, dir.path(), wopts);
  auto set = ShardSet::open(dir.path());
  ASSERT_TRUE(set.ok()) << set.error_message();

  MixOptions mopts;
  mopts.cities = {{1, "West", "C1", "US", {-5e4, -5e4}, 5e4}};
  mopts.spatial = SpatialQuery{
      config::lte_param(config::ParamId::kServingPriority),
      mopts.cities.front(), 2e4};
  for (unsigned threads : {1u, 2u, 4u}) {
    const auto reference = core::analyze_database(db, mopts, threads);
    FoldOptions fopts;
    fopts.threads = threads;
    fopts.release_mapped = false;
    const DirectFold direct(set.value(), fopts);
    auto qa = analyze_query(direct, Query{}, mopts);
    ASSERT_TRUE(qa.ok()) << qa.error_message();
    EXPECT_EQ(qa.value().stats.rows, db.total_samples());
    ASSERT_EQ(qa.value().results.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      const auto& a = qa.value().results[i];
      const auto& b = reference[i];
      EXPECT_EQ(a.carrier, b.carrier);
      ASSERT_EQ(a.diversity.size(), b.diversity.size()) << b.carrier;
      for (std::size_t k = 0; k < b.diversity.size(); ++k) {
        // Bitwise: cv is NaN for zero-mean keys on both sides.
        EXPECT_EQ(a.diversity[k].key, b.diversity[k].key);
        EXPECT_EQ(a.diversity[k].cells, b.diversity[k].cells);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(a.diversity[k].measures.cv),
                  std::bit_cast<std::uint64_t>(b.diversity[k].measures.cv));
        EXPECT_EQ(a.diversity[k].measures.simpson,
                  b.diversity[k].measures.simpson);
      }
      EXPECT_EQ(a.serving_priority, b.serving_priority) << b.carrier;
      EXPECT_EQ(a.candidate_priority, b.candidate_priority) << b.carrier;
      EXPECT_EQ(a.priority_by_city, b.priority_by_city) << b.carrier;
      EXPECT_EQ(a.spatial_diversity, b.spatial_diversity) << b.carrier;
      EXPECT_EQ(a.gaps.intra_minus_nonintra, b.gaps.intra_minus_nonintra);
      ASSERT_EQ(a.totals.size(), b.totals.size()) << b.carrier;
      for (const auto& [key, totals] : b.totals) {
        EXPECT_EQ(a.values(key), totals.values) << b.carrier;
        EXPECT_EQ(a.totals.at(key).cells, totals.cells) << b.carrier;
      }
    }
  }
}

TEST(StoreColumnar, ChunkedStreamFromGeneratorMatchesDirectDatabase) {
  // End to end on real generated data: stream_world -> chunked v2 store ->
  // shard-direct mix must answer the analysis queries exactly like a
  // database assembled by add_snapshot-ing the identical stream.
  class Both final : public netgen::SnapshotSink {
   public:
    Both(StreamingDatasetSink& sink, core::ConfigDatabase& db)
        : sink_(sink), db_(db) {}
    void snapshot(const std::string& carrier, net::CellId cell_id,
                  spectrum::Rat rat, std::uint32_t channel, geo::Point position,
                  SimTime t,
                  const std::vector<config::ParamObservation>& params) override {
      sink_.snapshot(carrier, cell_id, rat, channel, position, t, params);
      db_.add_snapshot(carrier, cell_id, rat, channel, position, t, params);
    }

   private:
    StreamingDatasetSink& sink_;
    core::ConfigDatabase& db_;
  };

  StoreDir dir("stream");
  core::ConfigDatabase db;
  WriterOptions wopts;
  wopts.target_block_bytes = 4096;
  wopts.target_shard_bytes = 32768;
  ShardWriter writer(dir.path(), wopts);
  StreamingDatasetSink sink(writer, 500);  // many chunks
  Both both(sink, db);
  netgen::StreamWorldOptions gopts;
  gopts.seed = 5;
  gopts.scale = 0.02;
  gopts.visits_per_cell = 3;
  const auto gstats = netgen::stream_world(gopts, both);
  const auto wstats = sink.finish();
  EXPECT_EQ(wstats.rows, gstats.rows);
  EXPECT_EQ(db.total_samples(), gstats.rows);

  auto set = ShardSet::open(dir.path());
  ASSERT_TRUE(set.ok()) << set.error_message();
  core::ConfigDatabase loaded;
  ASSERT_TRUE(load_database(set.value(), loaded, 2).ok());
  EXPECT_EQ(loaded, db);

  FoldOptions fopts;
  fopts.threads = 2;
  fopts.release_mapped = false;
  const DirectFold direct(set.value(), fopts);
  auto qa = analyze_query(direct, Query{});
  ASSERT_TRUE(qa.ok()) << qa.error_message();
  ASSERT_EQ(qa.value().carriers.size(), db.carriers().size());
  for (std::size_t c = 0; c < qa.value().carriers.size(); ++c) {
    const std::string& carrier = qa.value().carriers[c];
    const auto& mix = qa.value().results[c];
    const auto ref_div = core::diversity_by_param(db, carrier);
    ASSERT_EQ(ref_div.size(), mix.diversity.size()) << carrier;
    for (std::size_t i = 0; i < ref_div.size(); ++i) {
      EXPECT_EQ(ref_div[i].key, mix.diversity[i].key);
      EXPECT_EQ(ref_div[i].measures.richness,
                mix.diversity[i].measures.richness);
      EXPECT_EQ(ref_div[i].cells, mix.diversity[i].cells);
    }
    EXPECT_EQ(core::priority_by_channel(db, carrier, false),
              mix.serving_priority);
  }
}

// --- corruption ---------------------------------------------------------------

void populate_store(const StoreDir& dir, std::string* manifest_path,
                    std::string* shard_path) {
  const auto db = random_db(31, 2, 20);
  save_database(db, dir.path());
  *manifest_path =
      (fs::path(dir.path()) / kMmds2ManifestName).string();
  *shard_path = (fs::path(dir.path()) / "shard-0000.mmds2").string();
}

void flip_byte(const std::string& path, std::size_t offset_from_end) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open()) << path;
  f.seekg(0, std::ios::end);
  const auto size = static_cast<std::size_t>(f.tellg());
  ASSERT_GT(size, offset_from_end);
  const auto pos = static_cast<std::streamoff>(size - 1 - offset_from_end);
  f.seekg(pos);
  char b = 0;
  f.read(&b, 1);
  b = static_cast<char>(b ^ 0x40);
  f.seekp(pos);
  f.write(&b, 1);
}

TEST(StoreManifest, RejectsBadMagic) {
  StoreDir dir("corrupt_magic");
  std::string manifest, shard;
  populate_store(dir, &manifest, &shard);
  {
    std::fstream f(manifest, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(0);
    f.write("XXXX", 4);
  }
  EXPECT_FALSE(ShardSet::open(dir.path()).ok());
}

TEST(StoreManifest, RejectsCorruptedManifest) {
  StoreDir dir("corrupt_mancrc");
  std::string manifest, shard;
  populate_store(dir, &manifest, &shard);
  flip_byte(manifest, 10);  // inside the payload; the CRC trailer catches it
  EXPECT_FALSE(ShardSet::open(dir.path()).ok());
}

TEST(StoreManifest, VerifyCatchesShardBitFlip) {
  StoreDir dir("corrupt_shardcrc");
  std::string manifest, shard;
  populate_store(dir, &manifest, &shard);
  flip_byte(shard, 5);
  auto set = ShardSet::open(dir.path());
  // Open maps and size-checks only; the payload CRC is verify()'s job.
  ASSERT_TRUE(set.ok()) << set.error_message();
  EXPECT_FALSE(set.value().verify().ok());
}

TEST(StoreManifest, RejectsTruncatedShard) {
  StoreDir dir("corrupt_trunc");
  std::string manifest, shard;
  populate_store(dir, &manifest, &shard);
  fs::resize_file(shard, fs::file_size(shard) - 1);
  EXPECT_FALSE(ShardSet::open(dir.path()).ok());
}

TEST(StoreManifest, RejectsMissingShard) {
  StoreDir dir("corrupt_missing");
  std::string manifest, shard;
  populate_store(dir, &manifest, &shard);
  fs::remove(shard);
  EXPECT_FALSE(ShardSet::open(dir.path()).ok());
}

TEST(StoreManifest, RejectsEscapingShardFilename) {
  Manifest m;
  m.carriers = {"C"};
  ShardInfo shard;
  shard.filename = "../evil.mmds2";
  shard.file_size = 8;
  m.shards.push_back(shard);
  StoreDir dir("escape");
  fs::create_directories(dir.path());
  write_manifest(dir.path(), m);
  auto r = read_manifest(dir.path());
  EXPECT_FALSE(r.ok());
}

/// Rewrites a file whole.
void write_bytes(const std::string& path,
                 const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

/// Re-stamps the manifest's trailing CRC so damage *before* it reaches the
/// parser instead of tripping the checksum.
void restamp_crc(std::vector<std::uint8_t>& bytes) {
  const std::uint16_t crc = crc16_ccitt(bytes.data(), bytes.size() - 2);
  bytes[bytes.size() - 2] = static_cast<std::uint8_t>(crc & 0xFF);
  bytes[bytes.size() - 1] = static_cast<std::uint8_t>(crc >> 8);
}

/// read_manifest's error for the store at `dir` ("" if it loads).
std::string manifest_error(const StoreDir& dir) {
  const auto r = read_manifest(dir.path());
  return r.ok() ? "" : r.error_message();
}

TEST(StoreManifest, TruncatedHeader) {
  StoreDir dir("trunc_header");
  std::string manifest, shard;
  populate_store(dir, &manifest, &shard);
  write_bytes(manifest, {'M', 'M', 'D'});  // not even the magic survives
  EXPECT_NE(manifest_error(dir).find("too small"), std::string::npos)
      << manifest_error(dir);
}

TEST(StoreManifest, WrongVersion) {
  StoreDir dir("wrong_version");
  std::string manifest, shard;
  populate_store(dir, &manifest, &shard);
  std::vector<std::uint8_t> bytes;
  ASSERT_TRUE(read_file_bytes(manifest, bytes));
  bytes[4] = kMmds2Version + 1;
  restamp_crc(bytes);
  write_bytes(manifest, bytes);
  EXPECT_NE(manifest_error(dir).find("version"), std::string::npos)
      << manifest_error(dir);
}

TEST(StoreManifest, MidVarintTruncationWithValidCrc) {
  // Magic + version + flags + a carrier count varint that promises more
  // bytes than exist, under a correct CRC.
  StoreDir dir("mid_varint");
  std::string manifest, shard;
  populate_store(dir, &manifest, &shard);
  std::vector<std::uint8_t> bytes(kMmdsMagic, kMmdsMagic + 4);
  bytes.insert(bytes.end(), {kMmds2Version, 0x01, 0x80, 0, 0});
  restamp_crc(bytes);
  write_bytes(manifest, bytes);
  EXPECT_NE(manifest_error(dir).find("varint"), std::string::npos)
      << manifest_error(dir);
}

TEST(StoreManifest, MissingStore) {
  StoreDir dir("missing");
  EXPECT_FALSE(ShardSet::open(dir.path()).ok());
}

TEST(StoreManifest, UnknownParamNameWithValidCrc) {
  StoreDir dir("unknown_param");
  save_database(edge_case_db(), dir.path());
  const std::string manifest =
      (fs::path(dir.path()) / kMmds2ManifestName).string();
  std::vector<std::uint8_t> bytes;
  ASSERT_TRUE(read_file_bytes(manifest, bytes));
  // Patch the param-table entry (length prefix + name) to an unknown name of
  // equal length, then re-stamp the trailing CRC so the damage reaches the
  // parameter resolver instead of tripping the checksum.
  const std::string name = config::param_name(
      config::lte_param(config::ParamId::kServingPriority));
  std::vector<std::uint8_t> entry{static_cast<std::uint8_t>(name.size())};
  entry.insert(entry.end(), name.begin(), name.end());
  const auto it =
      std::search(bytes.begin(), bytes.end(), entry.begin(), entry.end());
  ASSERT_NE(it, bytes.end());
  *(it + 1) = '?';
  restamp_crc(bytes);
  write_bytes(manifest, bytes);

  ASSERT_TRUE(read_manifest(dir.path()).ok());
  const auto set = ShardSet::open(dir.path());
  ASSERT_FALSE(set.ok());
  EXPECT_NE(set.error_message().find("unknown parameter in manifest"),
            std::string::npos)
      << set.error_message();
}

TEST(StoreManifest, EveryCorruptedByteIsDetected) {
  // Flip one byte at a time across every file of a small store.  The
  // manifest CRC (or, for trailer bytes, the comparison itself) must fail
  // open; a shard flip must fail open (the magic) or verify() (the payload
  // CRC).
  StoreDir dir("flip_sweep");
  save_database(edge_case_db(), dir.path());
  std::vector<std::string> files = {kMmds2ManifestName};
  {
    const auto set = ShardSet::open(dir.path());
    ASSERT_TRUE(set.ok()) << set.error_message();
    for (const auto& shard : set.value().manifest().shards)
      files.push_back(shard.filename);
  }
  for (const auto& file : files) {
    const std::string path = (fs::path(dir.path()) / file).string();
    std::vector<std::uint8_t> pristine;
    ASSERT_TRUE(read_file_bytes(path, pristine));
    for (std::size_t i = 0; i < pristine.size(); ++i) {
      auto bytes = pristine;
      bytes[i] ^= 0x5A;
      write_bytes(path, bytes);
      const auto set = ShardSet::open(dir.path());
      if (file == kMmds2ManifestName)
        EXPECT_FALSE(set.ok()) << "undetected corruption at " << file
                               << " byte " << i;
      else
        EXPECT_TRUE(!set.ok() || !set.value().verify().ok())
            << "undetected corruption at " << file << " byte " << i;
    }
    write_bytes(path, pristine);
  }
}

TEST(StoreFormat, DirectoryDetectsAsMmds2) {
  StoreDir dir("corrupt_detect");
  std::string manifest, shard;
  populate_store(dir, &manifest, &shard);
  EXPECT_TRUE(is_store(dir.path()));
  // Only the directory is a store; its manifest file is not.
  EXPECT_FALSE(is_store(manifest));

  StoreDir other("detect_other");
  fs::create_directories(other.path());
  const std::string csv = (fs::path(other.path()) / "data.csv").string();
  core::save_dataset(random_db(5, 1, 3), csv);
  EXPECT_FALSE(is_store(csv));
  const std::string empty = (fs::path(other.path()) / "empty").string();
  fs::create_directories(empty);
  EXPECT_FALSE(is_store(empty));
}

// --- streaming generator ------------------------------------------------------

TEST(StreamGen, MatchesGenerateWorld) {
  // Determinism contract: the streamed cells are generate_world's cells —
  // same ids, channels, positions; and for cells with no reconfiguration
  // before their first visit, the first snapshot's parameters are exactly
  // extract_parameters of the generated config.
  netgen::WorldOptions wopts;
  wopts.seed = 11;
  wopts.scale = 0.02;
  const auto world = netgen::generate_world(wopts);

  struct Rec {
    std::uint32_t channel;
    spectrum::Rat rat;
    geo::Point pos;
    SimTime t;
    std::vector<config::ParamObservation> params;
  };
  class Recorder final : public netgen::SnapshotSink {
   public:
    std::map<net::CellId, Rec> first;
    std::size_t snapshots = 0;
    void snapshot(const std::string&, net::CellId cell_id, spectrum::Rat rat,
                  std::uint32_t channel, geo::Point position, SimTime t,
                  const std::vector<config::ParamObservation>& params) override {
      ++snapshots;
      first.emplace(cell_id, Rec{channel, rat, position, t, params});
    }
  };

  Recorder rec;
  netgen::StreamWorldOptions gopts;
  gopts.seed = wopts.seed;
  gopts.scale = wopts.scale;
  gopts.visits_per_cell = 2;
  const auto stats = netgen::stream_world(gopts, rec);
  ASSERT_EQ(stats.cells, world.network.cells().size());
  EXPECT_EQ(stats.snapshots, rec.snapshots);
  EXPECT_EQ(stats.snapshots, stats.cells * 2);

  std::size_t pristine_checked = 0;
  for (std::size_t i = 0; i < world.network.cells().size(); ++i) {
    const auto& cell = world.network.cells()[i];
    const auto it = rec.first.find(cell.id);
    ASSERT_NE(it, rec.first.end()) << "cell " << cell.id << " never streamed";
    EXPECT_EQ(it->second.channel, cell.channel.number);
    EXPECT_EQ(it->second.rat, cell.channel.rat);
    EXPECT_EQ(it->second.pos.x, cell.position.x);
    EXPECT_EQ(it->second.pos.y, cell.position.y);

    const auto& schedule = world.update_schedule[i];
    const bool pristine =
        schedule.empty() ||
        SimTime::from_days(schedule.front().day) > it->second.t;
    if (!pristine) continue;
    ++pristine_checked;
    const auto expected =
        cell.is_lte() ? config::extract_parameters(cell.lte_config)
                      : config::extract_parameters(cell.legacy_config);
    ASSERT_EQ(it->second.params.size(), expected.size()) << "cell " << cell.id;
    for (std::size_t p = 0; p < expected.size(); ++p) {
      EXPECT_EQ(it->second.params[p].key, expected[p].key);
      EXPECT_EQ(it->second.params[p].value, expected[p].value);
      EXPECT_EQ(it->second.params[p].context, expected[p].context);
    }
  }
  EXPECT_GT(pristine_checked, stats.cells / 2);
}

TEST(StreamGen, VisitCountDoesNotPerturbTheWorld) {
  // Visit times draw from an independent stream: the set of cells and
  // their first-visit configs are identical whatever visits_per_cell is.
  class IdsOnly final : public netgen::SnapshotSink {
   public:
    std::map<net::CellId, std::uint32_t> channel_of;
    void snapshot(const std::string&, net::CellId cell_id, spectrum::Rat,
                  std::uint32_t channel, geo::Point, SimTime,
                  const std::vector<config::ParamObservation>&) override {
      channel_of.emplace(cell_id, channel);
    }
  };
  netgen::StreamWorldOptions gopts;
  gopts.seed = 9;
  gopts.scale = 0.01;
  gopts.visits_per_cell = 1;
  IdsOnly one;
  netgen::stream_world(gopts, one);
  gopts.visits_per_cell = 4;
  IdsOnly four;
  netgen::stream_world(gopts, four);
  EXPECT_EQ(one.channel_of, four.channel_of);
}

}  // namespace
}  // namespace mmlab::store
