// Write-path tests for the MMDS v2 store.
//
// - The encode kernel against its ByteWriter oracle (encode_cell_reference)
//   on adversarial records, and its worst-case bound reached exactly.
// - Golden pins: the exact bytes of a fixed, seeded database written as a
//   multi-shard v2 store.  Sizes and CRC-16s were recorded before the
//   pointer encode kernel, the first-sight param table and the combined
//   shard CRC replaced the ByteWriter path, so any byte those rewrites
//   change fails here.
// - Manifest fuzz: mutants of the golden store's manifest are rejected at
//   open, or read alike by load_database and a planned fold.
// - Write errors: every writer entry point throws on a full device.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "figures_oracle.hpp"
#include "store_image.hpp"
#include "mmlab/core/database.hpp"
#include "mmlab/store/analytics.hpp"
#include "mmlab/store/cell_codec.hpp"
#include "mmlab/store/direct_fold.hpp"
#include "mmlab/store/mmds2.hpp"
#include "mmlab/store/shard_set.hpp"
#include "mmlab/store/shard_writer.hpp"
#include "mmlab/util/byteio.hpp"
#include "mmlab/util/crc.hpp"
#include "mmlab/util/rng.hpp"

namespace mmlab::store {
namespace {

namespace fs = std::filesystem;
using test::StoreImage;

class TempPath {
 public:
  explicit TempPath(const std::string& tag)
      : path_((fs::path(::testing::TempDir()) / ("mmlab_write_" + tag))
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

// --- encode kernel vs oracle --------------------------------------------------

double nan_with_payload(std::uint64_t payload) {
  const std::uint64_t bits =
      0x7FF0000000000000ull | (payload & 0xFFFFFFFFFFFFFull);
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

double extreme_double(Rng& rng) {
  switch (rng.below(9)) {
    case 0: return nan_with_payload(1 + rng.below(0xFFFFFFFFFFFFFull));
    case 1: return -nan_with_payload(0x8000000000000ull);
    case 2: return -0.0;
    case 3: return std::numeric_limits<double>::infinity();
    case 4: return -std::numeric_limits<double>::infinity();
    case 5: return std::numeric_limits<double>::denorm_min();
    default: return rng.uniform(-1e9, 1e9);
  }
}

/// A record whose fields and observations mix ordinary values with every
/// extreme the wire format has to carry.
core::CellRecord random_record(Rng& rng) {
  constexpr std::int64_t k62 = std::int64_t{1} << 62;
  core::CellRecord rec;
  rec.rat = static_cast<spectrum::Rat>(rng.below(5));
  rec.channel = rng.chance(0.2) ? std::numeric_limits<std::uint32_t>::max()
                                : static_cast<std::uint32_t>(rng.below(70'000));
  rec.position = {extreme_double(rng), extreme_double(rng)};
  const std::size_t n = rng.chance(0.1)   ? 0
                        : rng.chance(0.1) ? 2000 + rng.below(3000)
                                          : 1 + rng.below(40);
  for (std::size_t i = 0; i < n; ++i) {
    // Times stay within [-2^62 + 1, 2^62] so every delta fits in int64;
    // 0 next to 2^62 gives the ±2^62 deltas.
    std::int64_t t;
    switch (rng.below(5)) {
      case 0: t = 0; break;
      case 1: t = k62; break;
      case 2: t = -k62 + 1; break;
      default: t = rng.between(-1'000'000'000'000, 1'000'000'000'000);
    }
    std::int64_t context;
    switch (rng.below(4)) {
      case 0: context = std::numeric_limits<std::int64_t>::min(); break;
      case 1: context = std::numeric_limits<std::int64_t>::max(); break;
      case 2: context = -1; break;
      default: context = rng.between(-1000, 1'000'000);
    }
    rec.observations.push_back(
        {config::ParamKey{static_cast<spectrum::Rat>(rng.below(5)),
                          static_cast<std::uint16_t>(
                              rng.below(rng.chance(0.9) ? 50 : 65'536))},
         extreme_double(rng), SimTime{t}, context});
  }
  return rec;
}

/// `rec`'s rows cut into snapshots of one to four rows at rising times,
/// each followed by up to three copies of itself: as rows (`rows`), and
/// filed through add_snapshot, which holds the copies as repeats (`held`).
void with_repeats(Rng& rng, const core::CellRecord& rec,
                  core::CellRecord& rows, core::CellRecord& held) {
  core::ConfigDatabase db;
  rows = rec;
  rows.observations.clear();
  std::int64_t t = 0;
  const auto& obs = rec.observations;
  for (std::size_t s = 0; s < obs.size();) {
    const std::size_t e = std::min(obs.size(), s + 1 + rng.below(4));
    std::vector<config::ParamObservation> params;
    for (std::size_t k = s; k < e; ++k)
      params.push_back({obs[k].key, obs[k].value, obs[k].context});
    for (std::uint64_t copy = 0, n = rng.below(4); copy <= n; ++copy) {
      t += 1 + rng.between(0, 1000);
      db.add_snapshot("C", 0, rec.rat, rec.channel, rec.position, SimTime{t},
                      params);
      for (const auto& p : params)
        rows.observations.push_back({p.key, p.value, SimTime{t}, p.context});
    }
    s = e;
  }
  held = obs.empty() ? rows : db.cells_of("C")->at(0);
}

TEST(MmdsCodec, EncodeMatchesReference) {
  Rng rng(0x5eed);
  ParamIndexMap params;
  std::vector<config::ParamKey> first_seen;
  std::set<config::ParamKey> seen;
  std::uint64_t markers = 0, held_repeats = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const std::uint32_t id =
        trial % 3 == 0   ? 0
        : trial % 3 == 1 ? std::numeric_limits<std::uint32_t>::max()
                         : static_cast<std::uint32_t>(rng.next_u64());
    const core::CellRecord rec = random_record(rng);
    for (const auto& obs : rec.observations)
      if (seen.insert(obs.key).second) first_seen.push_back(obs.key);
    // The record, its snapshots repeated as rows, and the same held as
    // repeats: the kernel compares the first two and copies the third's
    // repeats through, and all must be the reference's bytes.
    core::CellRecord rows, held;
    if (trial % 2 == 0) with_repeats(rng, rec, rows, held);
    held_repeats += held.repeats.size();
    const core::CellRecord* variants[] = {&rec, &rows, &held};
    for (const core::CellRecord* r : variants) {
      if (trial % 2 != 0 && r != &rec) break;
      // Append after a non-empty prefix: the kernel must extend, not
      // overwrite, and its trim must keep the prefix.
      ByteWriter kernel, oracle;
      const std::size_t prefix = 1 + rng.below(trial % 2 ? 9 : 300);
      for (std::size_t i = 0; i < prefix; ++i) {
        const auto b = static_cast<std::uint8_t>(rng.below(256));
        kernel.u8(b);
        oracle.u8(b);
      }
      RepeatCount count;
      encode_cell(kernel, id, *r, params, count);
      encode_cell_reference(oracle, id, *r, params);
      ASSERT_EQ(kernel.buffer(), oracle.buffer()) << "trial " << trial;
      EXPECT_LE(kernel.size() - prefix,
                max_encoded_cell_size(encoded_entries(*r)));
      markers += count.snapshots;
    }
  }
  // Indices were handed out in first-sight order.
  EXPECT_EQ(params.keys(), first_seen);
  EXPECT_GT(markers, 1000u);  // the marker path ran, held and compared
  EXPECT_GT(held_repeats, 500u);
}

TEST(MmdsCodec, LongestRecordReachesTheBoundExactly) {
  // Every field at its longest encoding: 5-byte id and channel, param
  // indices past 2^14 (3 bytes, the most a kSlots-sized table can hand
  // out), 10-byte time deltas and contexts.  If the kernel's bound were
  // short this record would overrun it — caught here as a size mismatch
  // instead of a silent write into spare vector capacity.
  ParamIndexMap params;
  for (std::uint16_t i = 0; i < (1u << 14); ++i)
    params.assign({spectrum::Rat::kLte, i});
  constexpr std::int64_t k62 = std::int64_t{1} << 62;
  core::CellRecord rec;
  rec.rat = spectrum::Rat::kCdma1x;
  rec.channel = std::numeric_limits<std::uint32_t>::max();
  rec.position = {-0.0, nan_with_payload(0xDEADBEEF)};
  // Deltas +2^62, -(2^62 + 1), +2^62: zigzag values >= 2^63.
  const std::int64_t times[] = {k62, -1, k62 - 1};
  const std::int64_t contexts[] = {std::numeric_limits<std::int64_t>::min(),
                                   std::numeric_limits<std::int64_t>::max(),
                                   std::numeric_limits<std::int64_t>::min()};
  for (int i = 0; i < 3; ++i)
    rec.observations.push_back(
        {config::ParamKey{spectrum::Rat::kGsm, static_cast<std::uint16_t>(i)},
         std::numeric_limits<double>::infinity(), SimTime{times[i]},
         contexts[i]});
  const std::uint32_t id = std::numeric_limits<std::uint32_t>::max();

  ByteWriter kernel, oracle;
  RepeatCount repeats;
  encode_cell(kernel, id, rec, params, repeats);
  EXPECT_GE(params.get(rec.observations.front().key), 1u << 14);
  encode_cell_reference(oracle, id, rec, params);
  EXPECT_EQ(kernel.buffer(), oracle.buffer());
  EXPECT_EQ(kernel.size(), max_encoded_cell_size(3));
}

// --- golden pins ---------------------------------------------------------------

/// Five carriers, every RAT, repeat visits, contexts and a mix of quantized
/// and full-precision values.  Fixed seed: the pins below depend on it.
core::ConfigDatabase golden_db() {
  Rng rng(20180624);
  core::ConfigDatabase db;
  const char* carriers[] = {"AT&T", "China Mobile", "Sprint", "T-Mobile",
                            "Verizon"};
  for (const char* carrier : carriers) {
    for (int i = 0; i < 80; ++i) {
      const auto id = static_cast<std::uint32_t>(rng.below(1u << 28));
      const auto rat = static_cast<spectrum::Rat>(rng.below(5));
      const auto channel = static_cast<std::uint32_t>(rng.below(70'000));
      const geo::Point pos{rng.uniform(-2e5, 2e5), rng.uniform(-2e5, 2e5)};
      SimTime t{static_cast<Millis>(rng.between(-1'000'000, 1'000'000'000))};
      const int visits = 1 + static_cast<int>(rng.below(3));
      for (int v = 0; v < visits; ++v) {
        std::vector<config::ParamObservation> params;
        const int n = 1 + static_cast<int>(rng.below(12));
        for (int p = 0; p < n; ++p) {
          config::ParamObservation obs;
          obs.key = config::ParamKey{
              rat, static_cast<std::uint16_t>(
                       rng.below(rat == spectrum::Rat::kLte ? 40 : 6))};
          obs.value = rng.chance(0.5)
                          ? static_cast<double>(rng.between(-20, 20)) * 0.5
                          : rng.uniform(-150.0, 50.0);
          obs.context = rng.chance(0.3) ? rng.between(-5, 100'000) : -1;
          params.push_back(obs);
        }
        db.add_snapshot(carrier, id, rat, channel, pos, t, params);
        t += static_cast<Millis>(rng.between(1, 5'000'000));
      }
    }
  }
  return db;
}

struct FilePin {
  std::string name;
  std::uint64_t size;
  std::uint16_t crc16;
};

/// Size and CRC-16 of a file.  The manifest ends in a CRC-16 trailer over
/// everything before it, and the CRC of a message plus its own trailer is
/// the fixed X.25 residue; so for it the pin is the CRC of the bytes before
/// the trailer (the trailer's value itself).
FilePin pin_of(const fs::path& path, bool has_trailer) {
  std::vector<std::uint8_t> bytes;
  EXPECT_TRUE(read_file_bytes(path.string(), bytes)) << path;
  const std::size_t covered =
      has_trailer && bytes.size() >= 2 ? bytes.size() - 2 : bytes.size();
  return {path.filename().string(), bytes.size(),
          crc16_ccitt(bytes.data(), covered)};
}

std::string describe(const std::vector<FilePin>& pins) {
  std::string s;
  for (const auto& p : pins)
    s += "{\"" + p.name + "\", " + std::to_string(p.size) + ", " +
         std::to_string(p.crc16) + "},\n";
  return s;
}

TEST(StoreFormat, GoldenBytes) {
  const auto db = golden_db();
  TempPath dir("golden_v2");
  WriterOptions wopts;
  wopts.target_block_bytes = 2048;
  wopts.target_shard_bytes = 16384;
  const auto stats = save_database(db, dir.path(), wopts);
  ASSERT_GE(stats.shards, 3u);
  ASSERT_GE(stats.blocks, 10u);

  auto set = ShardSet::open(dir.path());
  ASSERT_TRUE(set.ok()) << set.error_message();
  const auto verified = set.value().verify();
  EXPECT_TRUE(verified.ok()) << verified.error_message();

  std::vector<FilePin> actual;
  for (const auto& shard : set.value().manifest().shards)
    actual.push_back(pin_of(fs::path(dir.path()) / shard.filename, false));
  actual.push_back(
      pin_of(fs::path(dir.path()) / kMmds2ManifestName, true));

  const std::vector<FilePin> expected = {
      {"shard-0000.mmds2", 17762, 27109},
      {"shard-0001.mmds2", 17923, 16202},
      {"shard-0002.mmds2", 18148, 1426},
      {"shard-0003.mmds2", 16213, 15863},
      {"manifest.mmds2", 1265, 62305},
  };
  ASSERT_EQ(actual.size(), expected.size()) << describe(actual);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].name, expected[i].name);
    EXPECT_EQ(actual[i].size, expected[i].size) << actual[i].name;
    EXPECT_EQ(actual[i].crc16, expected[i].crc16) << actual[i].name;
  }
}

// --- manifest fuzz -------------------------------------------------------------

/// Where a manifest's table counts sit, as (offset, varint length): the
/// carrier, param and shard counts, then each shard's block count.
std::vector<std::pair<std::size_t, std::size_t>> table_counts(
    const std::vector<std::uint8_t>& manifest) {
  std::vector<std::pair<std::size_t, std::size_t>> at;
  ByteReader r(manifest.data(), manifest.size() - 2);
  r.skip(sizeof(kMmdsMagic) + 2);
  const auto count = [&] {
    const std::size_t p = r.position();
    const std::uint64_t n = r.varint();
    at.emplace_back(p, r.position() - p);
    return n;
  };
  for (std::uint64_t n = count(); n > 0; --n) (void)r.str();  // carriers
  for (std::uint64_t n = count(); n > 0; --n) (void)r.str();  // params
  for (std::uint64_t s = count(); s > 0; --s) {
    (void)r.str();
    (void)r.varint();
    (void)r.u16le();
    for (std::uint64_t b = count(); b > 0; --b) {
      for (int k = 0; k < 5; ++k) (void)r.varint();
      (void)r.u16le();
      (void)r.varint();
      (void)r.varint();
    }
  }
  return at;
}

/// A planned fold's fig11–22 mix over `set` at `threads`.
Result<QueryAnalysis> planned_mix(const ShardSet& set, const Query& q,
                                  unsigned threads,
                                  const core::MixOptions& mopts) {
  FoldOptions fopts;
  fopts.threads = threads;
  fopts.release_mapped = false;
  const DirectFold direct(set, fopts);
  return analyze_query(direct, q, mopts);
}

TEST(StoreManifestFuzz, EveryMutantIsRejectedAtOpenOrReadAlikeByBothReaders) {
  // Mutants of the golden store's manifest, each with its CRC trailer
  // recomputed so the damage reaches the decoder: bit flips, truncation,
  // and inflated carrier, param, shard and block counts.  ShardSet::open
  // rejects a mutant with an error; or load_database and a planned fold
  // (threads 1 and 4) both reject it; or both accept it, and the fold's
  // products are the loaded database's, filtered by the query.
  TempPath base("manifest_fuzz_base"), mutant("manifest_fuzz_mutant");
  WriterOptions wopts;
  wopts.target_block_bytes = 2048;
  wopts.target_shard_bytes = 16384;
  save_database(golden_db(), base.path(), wopts);
  StoreImage::read(base.path()).write(mutant.path());  // shards stay put
  const std::string manifest_path =
      (fs::path(mutant.path()) / kMmds2ManifestName).string();
  std::vector<std::uint8_t> pristine;
  ASSERT_TRUE(read_file_bytes(manifest_path, pristine));
  const auto counts = table_counts(pristine);
  pristine.resize(pristine.size() - 2);  // the trailer, recomputed per mutant

  core::MixOptions mopts;
  mopts.cities = test::test_cities();
  Query planned;
  {
    auto set = ShardSet::open(base.path());
    ASSERT_TRUE(set.ok()) << set.error_message();
    ASSERT_EQ(counts.size(), 3 + set.value().manifest().shards.size());
    planned.params = {set.value().params()[0], set.value().params()[3]};
  }

  Rng rng(0x3A41);
  int rejected_at_open = 0, rejected = 0, accepted = 0;
  constexpr int kMutants = 300;  // a fixed budget: runs under ASan/UBSan
  for (int m = 0; m < kMutants; ++m) {
    std::vector<std::uint8_t> bytes = pristine;
    std::string what;
    const auto set_count = [&](std::size_t slot, std::uint64_t n) {
      const auto [at, len] = counts[slot];
      ByteWriter w;
      w.varint(n);
      bytes.erase(bytes.begin() + static_cast<long>(at),
                  bytes.begin() + static_cast<long>(at + len));
      bytes.insert(bytes.begin() + static_cast<long>(at), w.buffer().begin(),
                   w.buffer().end());
      what = "count " + std::to_string(slot) + " = " + std::to_string(n);
    };
    const std::uint64_t kind = m == 0 ? 3 : rng.below(4);
    if (m == 0) {
      set_count(0, std::uint64_t{1} << 26);  // the 2^26-carrier manifest
    } else if (kind <= 1) {
      const std::size_t at = rng.below(bytes.size());
      bytes[at] ^= static_cast<std::uint8_t>(1u << rng.below(8));
      what = "flip at " + std::to_string(at);
    } else if (kind == 2) {
      const std::size_t at = rng.below(bytes.size());
      bytes.resize(at);
      what = "truncate at " + std::to_string(at);
    } else {
      const std::size_t slot = rng.below(counts.size());
      ByteReader r(bytes.data() + counts[slot].first, counts[slot].second);
      const std::uint64_t n = r.varint();
      const std::uint64_t inflated[] = {n + 1, n + 2 + rng.below(8), 2 * n + 1,
                                        std::uint64_t{1} << 26,
                                        std::uint64_t{1} << 40};
      set_count(slot, inflated[rng.below(5)]);
    }
    {
      const std::uint16_t crc = crc16_ccitt(bytes.data(), bytes.size());
      bytes.push_back(static_cast<std::uint8_t>(crc & 0xFF));
      bytes.push_back(static_cast<std::uint8_t>(crc >> 8));
      FileWriter out(manifest_path);
      out.write(bytes.data(), bytes.size());
      out.close();
    }
    const std::string tag = "mutant " + std::to_string(m) + " (" + what + ")";

    auto set = ShardSet::open(mutant.path());
    if (m == 0) {
      ASSERT_FALSE(set.ok()) << tag;
      EXPECT_NE(set.error_message().find("carrier table count 67108864 exceeds"),
                std::string::npos)
          << set.error_message();
    }
    if (!set.ok()) {
      ++rejected_at_open;
      continue;
    }
    core::ConfigDatabase loaded;
    const auto lr = load_database(set.value(), loaded, 2);
    const auto one = planned_mix(set.value(), planned, 1, mopts);
    const auto four = planned_mix(set.value(), planned, 4, mopts);
    ASSERT_EQ(one.ok(), lr.ok()) << tag << ": " << lr.error_message() << " | "
                                 << one.error_message();
    ASSERT_EQ(four.ok(), lr.ok()) << tag << ": " << four.error_message();
    if (!lr.ok()) {
      ++rejected;
      continue;
    }
    ++accepted;
    const auto want = test::filter_db(loaded, planned);
    for (const auto* qa : {&one, &four}) {
      ASSERT_EQ(qa->value().results.size(), loaded.carriers().size()) << tag;
      for (const auto& f : qa->value().results)
        test::expect_mix_matches_scans(want, f, mopts, tag);
    }
    if (::testing::Test::HasFailure()) break;
  }
  // The sweep reaches every outcome.
  EXPECT_GT(rejected_at_open, kMutants / 10);
  EXPECT_GT(rejected, kMutants / 20);
  EXPECT_GT(accepted, 0);
}

// --- write errors --------------------------------------------------------------

class WriteErrors : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!fs::exists("/dev/full"))
      GTEST_SKIP() << "no /dev/full on this system";
  }
  /// A store directory whose `name` is a symlink to /dev/full: it opens
  /// fine and refuses every write with ENOSPC.
  static void full_device_at(const TempPath& dir, const char* name) {
    fs::create_directories(dir.path());
    fs::create_symlink("/dev/full", fs::path(dir.path()) / name);
  }
};

TEST_F(WriteErrors, WriteManifestThrows) {
  TempPath dir("full_manifest_direct");
  full_device_at(dir, kMmds2ManifestName);
  Manifest m;
  m.carriers = {"C"};
  EXPECT_THROW(write_manifest(dir.path(), m), std::runtime_error);
}

TEST_F(WriteErrors, ShardWriterThrowsOnShardFailure) {
  TempPath dir("full_shard");
  full_device_at(dir, "shard-0000.mmds2");
  EXPECT_THROW(save_database(golden_db(), dir.path()), std::runtime_error);
}

TEST_F(WriteErrors, ParallelWriterThrowsOnShardFailure) {
  // The layout walk's write fails while pool jobs are still encoding: the
  // error surfaces on the calling thread and every job is joined.
  TempPath dir("full_shard_parallel");
  full_device_at(dir, "shard-0000.mmds2");
  WriterOptions wopts;
  wopts.target_block_bytes = 512;
  wopts.threads = 4;
  EXPECT_THROW(save_database(golden_db(), dir.path(), wopts),
               std::runtime_error);
}

TEST_F(WriteErrors, ParallelWriterThrowsOnManifestFailure) {
  TempPath dir("full_manifest_parallel");
  full_device_at(dir, kMmds2ManifestName);
  WriterOptions wopts;
  wopts.threads = 4;
  EXPECT_THROW(save_database(golden_db(), dir.path(), wopts),
               std::runtime_error);
}

TEST_F(WriteErrors, ShardWriterThrowsOnManifestFailure) {
  // The shards land; the manifest does not.  finish() must not report a
  // store that has no manifest.
  TempPath dir("full_manifest");
  full_device_at(dir, kMmds2ManifestName);
  EXPECT_THROW(save_database(golden_db(), dir.path()), std::runtime_error);
}

}  // namespace
}  // namespace mmlab::store
