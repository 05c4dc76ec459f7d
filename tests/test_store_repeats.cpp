// Repeat markers in MMDS v2 (store/mmds2.hpp, DESIGN.md §11-12).
//
// - The codec: a cell with repeats round-trips through encode_cell and
//   decode_observations + expand_repeats bit for bit, the kernel and the
//   reference agree on it (records, scan, markers, position, errors), and
//   a cell without repeats keeps encode_cell_reference's bytes.
// - The store: the manifest sets flags bit 1 exactly when a marker was
//   written; load_database of a repeat-encoded store equals the database
//   it was written from, for both D2 worlds (the crawl and the stream
//   generator), at every writer thread count; a golden pin covers a
//   repeat-heavy store.
// - The fold: every delivered record equals load_database's under the
//   omission rule (a lone run with times never decreasing from >= -1 loses
//   its repeats, every other cell arrives expanded), planned and
//   unplanned, at 1 and 4 threads; the mix matches the reference scans;
//   and `latest` is pinned for out-of-order runs, ties at the max t
//   between a repeat and another run's row, times below -1, and a run
//   that ends in repeats.
// - Hostile bodies: a deterministic mutation sweep (bit flips, truncation,
//   padded and lying varints, markers inserted, moved and dropped, with the
//   block and shard CRCs recomputed) in which every mutant is either
//   rejected by both load_database and the fold or folds to the loaded
//   database's products; plus crafted cases (a marker first, a large
//   snapshot repeated under a lying row_count, a truncated marker, a
//   marker in a store whose flag is clear).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "figures_oracle.hpp"
#include "mmlab/core/cell_fold.hpp"
#include "mmlab/core/database.hpp"
#include "mmlab/core/figures.hpp"
#include "mmlab/core/parallel_extract.hpp"
#include "mmlab/netgen/generator.hpp"
#include "mmlab/netgen/streamgen.hpp"
#include "mmlab/sim/crawl.hpp"
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
using core::CellRecord;
using core::ConfigDatabase;
using core::Observation;
using test::expect_bits;

class StoreDir {
 public:
  explicit StoreDir(const std::string& tag)
      : path_((fs::path(::testing::TempDir()) / ("mmlab_repeats_" + tag))
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

const config::ParamKey kServing =
    config::lte_param(config::ParamId::kServingPriority);
const config::ParamKey kNeighbor =
    config::lte_param(config::ParamId::kNeighborPriority);

/// A repeat-heavy database, the shape of the paper's D2 (Fig 13): most
/// visits of a cell see the configuration of the visit before, and about a
/// third change one value (sometimes 0.0 into -0.0, which is not a
/// repeat).  Several RATs, contexts, and the LTE priority keys.
ConfigDatabase repeat_db(std::uint64_t seed, std::size_t carriers = 3,
                         std::size_t cells = 40, int max_visits = 8) {
  Rng rng(seed);
  ConfigDatabase db;
  const auto value = [&rng] {
    switch (rng.below(4)) {
      case 0: return 0.0;
      case 1: return -0.0;
      default: return static_cast<double>(rng.below(6)) - 2.0;
    }
  };
  for (std::size_t c = 0; c < carriers; ++c) {
    std::string name = "C";
    name += std::to_string(c);
    for (std::size_t i = 0; i < cells; ++i) {
      const auto id = static_cast<std::uint32_t>(1 + rng.below(100'000));
      const auto rat = rng.chance(0.7) ? spectrum::Rat::kLte
                                       : static_cast<spectrum::Rat>(
                                             rng.below(4));
      const auto channel = static_cast<std::uint32_t>(rng.below(40));
      const geo::Point pos{rng.uniform(-5e4, 5e4), rng.uniform(-5e4, 5e4)};
      std::vector<config::ParamObservation> params;
      const int n = 1 + static_cast<int>(rng.below(7));
      for (int p = 0; p < n; ++p)
        params.push_back(
            {config::ParamKey{rat, static_cast<std::uint16_t>(rng.below(8))},
             value(),
             rng.chance(0.3) ? static_cast<std::int64_t>(rng.below(40)) : -1});
      if (rat == spectrum::Rat::kLte) {
        params.push_back({kServing, static_cast<double>(rng.below(8)), -1});
        params.push_back({kNeighbor, static_cast<double>(rng.below(8)),
                          static_cast<std::int64_t>(rng.below(40))});
      }
      SimTime t{static_cast<Millis>(rng.below(1'000'000))};
      const int visits =
          1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(max_visits)));
      for (int v = 0; v < visits; ++v) {
        if (v > 0 && rng.chance(0.3))
          params[rng.below(params.size())].value = value();
        db.add_snapshot(name, id, rat, channel, pos, t, params);
        t += static_cast<Millis>(1 + rng.below(1'000'000));
      }
    }
  }
  return db;
}

/// The paper-scale crawl pipeline at a small scale: generate, crawl,
/// extract.
ConfigDatabase crawl_world_db() {
  netgen::WorldOptions wopts;
  wopts.seed = 42;
  wopts.scale = 0.02;
  auto world = netgen::generate_world(wopts);
  sim::CrawlOptions copts;
  copts.seed = 5;
  copts.mean_rounds = 5.5;
  const auto crawl = sim::run_crawl(world, copts);
  ConfigDatabase db;
  core::extract_configs_parallel(crawl.logs, db, 2);
  return db;
}

/// The stream generator's world, every snapshot into one database.
ConfigDatabase stream_world_db(int visits) {
  class Collect final : public netgen::SnapshotSink {
   public:
    explicit Collect(ConfigDatabase& db) : db_(db) {}
    void snapshot(const std::string& carrier, net::CellId cell_id,
                  spectrum::Rat rat, std::uint32_t channel, geo::Point position,
                  SimTime t,
                  const std::vector<config::ParamObservation>& params) override {
      db_.add_snapshot(carrier, cell_id, rat, channel, position, t, params);
    }

   private:
    ConfigDatabase& db_;
  };
  ConfigDatabase db;
  Collect sink(db);
  netgen::StreamWorldOptions gopts;
  gopts.seed = 42;
  gopts.scale = 0.02;
  gopts.visits_per_cell = visits;
  netgen::stream_world(gopts, sink);
  return db;
}

WriteStats save_small_blocks(const ConfigDatabase& db, const std::string& dir,
                             unsigned threads = 1) {
  WriterOptions wopts;
  wopts.target_block_bytes = 1024;
  wopts.target_shard_bytes = 8192;
  wopts.threads = threads;
  return save_database(db, dir, wopts);
}

/// The store again, streamed in chunks of `chunk_rows` rows, so many cells
/// have several runs (and the fold must expand them).
void save_chunked(const ConfigDatabase& db, const std::string& dir,
                  std::size_t chunk_rows) {
  WriterOptions wopts;
  wopts.target_block_bytes = 1024;
  wopts.target_shard_bytes = 8192;
  ShardWriter writer(dir, wopts);
  StreamingDatasetSink sink(writer, chunk_rows);
  // Replay snapshot by snapshot (a maximal equal-t run of a cell).
  for (const auto& [carrier, cells] : db.carriers())
    for (const auto& [id, rec] : cells) {
      const auto& obs = rec.observations;
      for (std::size_t s = 0; s < obs.size();) {
        std::size_t e = s + 1;
        while (e < obs.size() && obs[e].t == obs[s].t) ++e;
        std::vector<config::ParamObservation> params;
        for (std::size_t k = s; k < e; ++k)
          params.push_back({obs[k].key, obs[k].value, obs[k].context});
        sink.snapshot(carrier, id, rec.rat, rec.channel, rec.position,
                      obs[s].t, params);
        s = e;
      }
    }
  sink.finish();
}

ConfigDatabase load(const ShardSet& set, unsigned threads = 1) {
  ConfigDatabase db;
  const auto r = load_database(set, db, threads);
  EXPECT_TRUE(r.ok()) << r.error_message();
  return db;
}

std::uint8_t manifest_flags(const std::string& dir) {
  std::vector<std::uint8_t> bytes;
  EXPECT_TRUE(
      read_file_bytes((fs::path(dir) / kMmds2ManifestName).string(), bytes));
  return bytes.size() > 5 ? bytes[5] : 0;
}

bool same_observation(const Observation& a, const Observation& b) {
  return a.key == b.key && a.context == b.context &&
         std::bit_cast<std::uint64_t>(a.value) ==
             std::bit_cast<std::uint64_t>(b.value);
}

/// The omission rule, written independently of the codec: every snapshot
/// equal (keys, value bits, contexts) to the snapshot before it dropped,
/// and counted in `count` when given.
CellRecord omit_repeats(const CellRecord& rec, RepeatCount* count = nullptr) {
  CellRecord out = rec;
  out.observations.clear();
  const auto& o = rec.observations;
  std::size_t prev = 0, prev_n = 0;
  for (std::size_t s = 0; s < o.size();) {
    std::size_t e = s + 1;
    while (e < o.size() && o[e].t == o[s].t) ++e;
    bool repeat = e - s == prev_n;
    for (std::size_t k = 0; repeat && k < prev_n; ++k)
      repeat = same_observation(o[prev + k], o[s + k]);
    if (!repeat)
      out.observations.insert(out.observations.end(), o.begin() + s,
                              o.begin() + e);
    if (repeat && count) {
      ++count->snapshots;
      count->rows += e - s;
    }
    prev = s;
    prev_n = e - s;
    s = e;
  }
  return out;
}

/// The fold's skip conditions on a lone run, read off its expanded record.
bool run_may_skip(const CellRecord& rec) {
  const auto& o = rec.observations;
  if (o.empty()) return true;
  for (std::size_t i = 1; i < o.size(); ++i)
    if (o[i].t < o[i - 1].t) return false;
  return o.front().t.ms >= -1;
}

/// How many runs each (carrier, cell) has in the store.
std::map<std::pair<std::string, std::uint32_t>, int> run_counts(
    const ShardSet& set) {
  std::map<std::pair<std::string, std::uint32_t>, int> runs;
  CellRecord rec;
  CellScan scan;
  for (std::size_t b = 0; b < set.blocks().size(); ++b) {
    const auto body = set.block_body(b);
    const std::string& carrier =
        set.manifest().carriers[set.blocks()[b].info->carrier_index];
    ByteReader r(body.data(), body.size());
    while (r.remaining() > 0)
      ++runs[{carrier,
              parse_cell_filtered(r, set.params(), set.manifest().repeats, {},
                                  0, 0xFFFFFFFFu, rec, scan)}];
  }
  return runs;
}

void expect_same_record(const CellRecord& a, const CellRecord& b,
                        const std::string& what) {
  EXPECT_EQ(a.cell_id, b.cell_id) << what;
  EXPECT_EQ(a.rat, b.rat) << what;
  EXPECT_EQ(a.channel, b.channel) << what;
  expect_bits(a.position.x, b.position.x, what + " x");
  expect_bits(a.position.y, b.position.y, what + " y");
  ASSERT_EQ(a.observations.size(), b.observations.size()) << what;
  for (std::size_t i = 0; i < a.observations.size(); ++i) {
    EXPECT_TRUE(same_observation(a.observations[i], b.observations[i]))
        << what << " obs " << i;
    EXPECT_EQ(a.observations[i].t, b.observations[i].t) << what << " obs " << i;
  }
}

/// `db` restricted to a query's cell range and parameters (cells kept even
/// when every observation is filtered, as the planned fold delivers them).
ConfigDatabase filter_db(const ConfigDatabase& db, const Query& q) {
  const core::ParamKeySet pset(q.params);
  ConfigDatabase out;
  for (const auto& [carrier, cells] : db.carriers())
    for (const auto& [id, rec] : cells) {
      if (id < q.min_cell || id > q.max_cell) continue;
      CellRecord& dst = out.upsert_cell(carrier, id);
      dst = rec;
      if (!q.params.empty())
        std::erase_if(dst.observations, [&](const Observation& obs) {
          return !pset.contains(obs.key);
        });
    }
  return out;
}

/// Every record fold_planned and fold_query (threads 1 and 4) deliver for
/// `q`, against load_database's record under the omission rule.
void expect_records_follow_the_omission_rule(const ShardSet& set,
                                             const Query& q,
                                             const std::string& tag) {
  const auto loaded = load(set);
  const auto runs = run_counts(set);
  ConfigDatabase oracle;
  for (const auto& [carrier, cells] : loaded.carriers())
    for (const auto& [id, rec] : cells) {
      const bool lone = runs.at({carrier, id}) == 1;
      oracle.upsert_cell(carrier, id) =
          lone && run_may_skip(rec) ? omit_repeats(rec) : rec;
    }
  oracle = filter_db(oracle, q);

  const QueryPlan plan(set, q);
  const auto expect_cells =
      [&](const std::string& carrier,
          const std::vector<std::pair<std::uint32_t, CellRecord>>& got,
          const std::string& what) {
        const auto* want = oracle.cells_of(carrier);
        ASSERT_EQ(got.size(), want ? want->size() : 0u) << what << carrier;
        if (!want) return;
        auto it = want->begin();
        for (const auto& [id, rec] : got) {
          ASSERT_EQ(id, it->first) << what;
          expect_same_record(rec, it->second,
                             what + " " + carrier + " cell " + std::to_string(id));
          ++it;
        }
      };
  for (const unsigned threads : {1u, 4u}) {
    FoldOptions fopts;
    fopts.threads = threads;
    fopts.release_mapped = false;
    const DirectFold direct(set, fopts);
    const std::string what = tag + " threads=" + std::to_string(threads);
    for (const auto& carrier : direct.carriers()) {
      std::vector<std::pair<std::uint32_t, CellRecord>> got;
      const auto r = direct.fold_planned(
          plan, carrier, [&](std::uint32_t id, const CellRecord& rec) {
            got.emplace_back(id, rec);
          });
      ASSERT_TRUE(r.ok()) << what << ": " << r.error_message();
      expect_cells(carrier, got, what + " fold_planned ");
    }
    std::vector<std::vector<std::pair<std::uint32_t, CellRecord>>> got(
        plan.carriers().size());
    const auto r = direct.fold_query(
        plan, [&](std::size_t slot, const CarrierQueryPlan&) {
          return [&got, slot](std::uint32_t id, const CellRecord& rec) {
            got[slot].emplace_back(id, rec);
          };
        });
    ASSERT_TRUE(r.ok()) << what << ": " << r.error_message();
    for (std::size_t i = 0; i < plan.carriers().size(); ++i)
      expect_cells(plan.carriers()[i].name, got[i], what + " fold_query ");
  }
}

// --- the codec ------------------------------------------------------------------

/// A record of snapshots where about half repeat the one before; times
/// mostly increase, sometimes tie across snapshots' neighbours, sometimes
/// fall (out of order) or sit below -1.
CellRecord repeat_record(Rng& rng) {
  CellRecord rec;
  rec.rat = spectrum::Rat::kLte;
  rec.channel = static_cast<std::uint32_t>(rng.below(70'000));
  rec.position = {rng.uniform(-1e5, 1e5), rng.uniform(-1e5, 1e5)};
  std::vector<Observation> snapshot;
  std::int64_t t = rng.between(-50, 50);
  const int snapshots = static_cast<int>(rng.below(12));
  for (int s = 0; s < snapshots; ++s) {
    if (snapshot.empty() || rng.chance(0.5)) {
      snapshot.clear();
      const std::size_t n = 1 + rng.below(rng.chance(0.1) ? 200 : 8);
      for (std::size_t i = 0; i < n; ++i)
        snapshot.push_back(
            {config::ParamKey{spectrum::Rat::kLte,
                              static_cast<std::uint16_t>(rng.below(30))},
             rng.chance(0.2) ? -0.0 : static_cast<double>(rng.below(4)),
             SimTime{0},
             rng.chance(0.5) ? -1 : static_cast<std::int64_t>(rng.below(9))});
    }
    t = rng.chance(0.1) ? rng.between(-100'000, 100'000)
                        : t + static_cast<std::int64_t>(1 + rng.below(5000));
    for (Observation obs : snapshot) {
      obs.t = SimTime{t};
      rec.observations.push_back(obs);
    }
  }
  return rec;
}

/// The repeats the writer must find: snapshots equal to the one before.
RepeatCount count_repeats(const CellRecord& rec) {
  RepeatCount c;
  omit_repeats(rec, &c);
  return c;
}

struct Decoded {
  std::vector<Observation> records;
  CellScan scan;
  std::size_t position = 0;
  std::string error;
};

Decoded decode_cell(bool kernel, const std::vector<std::uint8_t>& bytes,
                    std::size_t size, const std::vector<config::ParamKey>& params,
                    ObservationSelection select) {
  Decoded d;
  ByteReader r(bytes.data(), size);
  try {
    (void)r.varint();  // id
    (void)r.u8();      // rat
    (void)r.varint();  // channel
    (void)r.f64le();
    (void)r.f64le();
    const std::uint64_t n = r.varint();
    if (kernel)
      decode_observations(r, n, params, select, d.records, d.scan, true);
    else
      decode_observations_reference(r, n, params, select, d.records, d.scan,
                                    true);
  } catch (const std::exception& e) {
    d.error = e.what();
  }
  d.position = r.position();
  return d;
}

void expect_same_decode(const Decoded& a, const Decoded& b,
                        const std::string& tag) {
  EXPECT_EQ(a.error, b.error) << tag;
  EXPECT_EQ(a.position, b.position) << tag;
  EXPECT_EQ(a.scan.rows, b.scan.rows) << tag;
  EXPECT_EQ(a.scan.values_skipped, b.scan.values_skipped) << tag;
  EXPECT_EQ(a.scan.front_t_ms, b.scan.front_t_ms) << tag;
  EXPECT_EQ(a.scan.sorted, b.scan.sorted) << tag;
  ASSERT_EQ(a.scan.repeats.size(), b.scan.repeats.size()) << tag;
  for (std::size_t i = 0; i < a.scan.repeats.size(); ++i) {
    EXPECT_EQ(a.scan.repeats[i].t_ms, b.scan.repeats[i].t_ms) << tag;
    EXPECT_EQ(a.scan.repeats[i].at, b.scan.repeats[i].at) << tag;
    EXPECT_EQ(a.scan.repeats[i].begin, b.scan.repeats[i].begin) << tag;
    EXPECT_EQ(a.scan.repeats[i].end, b.scan.repeats[i].end) << tag;
  }
  ASSERT_EQ(a.records.size(), b.records.size()) << tag;
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_TRUE(same_observation(a.records[i], b.records[i])) << tag;
    EXPECT_EQ(a.records[i].t, b.records[i].t) << tag;
  }
}

TEST(StoreRepeats, CellsRoundTripThroughMarkersInBothDecoders) {
  Rng rng(20261019);
  std::uint64_t markers = 0;
  for (int round = 0; round < 300; ++round) {
    const CellRecord rec = repeat_record(rng);
    ParamIndexMap map;
    ByteWriter w;
    RepeatCount count;
    ASSERT_TRUE(encode_cell(w, 7, rec, map, &count));
    const RepeatCount want = count_repeats(rec);
    const std::string tag = "round " + std::to_string(round);
    EXPECT_EQ(count.snapshots, want.snapshots) << tag;
    EXPECT_EQ(count.rows, want.rows) << tag;
    markers += count.snapshots;
    EXPECT_LE(w.size(), max_encoded_cell_size(rec.observations.size())) << tag;

    std::vector<char> mask(map.keys().size());
    for (auto& m : mask) m = rng.chance(0.5) ? 1 : 0;
    for (const ObservationSelection select :
         {ObservationSelection{}, ObservationSelection{mask.data(), false}}) {
      const Decoded k = decode_cell(true, w.buffer(), w.size(), map.keys(),
                                    select);
      const Decoded ref = decode_cell(false, w.buffer(), w.size(), map.keys(),
                                      select);
      expect_same_decode(k, ref, tag);
      ASSERT_TRUE(k.error.empty()) << tag << ": " << k.error;
      EXPECT_EQ(k.position, w.size()) << tag;
      EXPECT_EQ(k.scan.rows, rec.observations.size()) << tag;
      EXPECT_EQ(k.scan.repeats.size(), count.snapshots) << tag;
      // Expanded, the kept rows are the record's kept rows, in order.
      std::vector<Observation> expanded = k.records;
      expand_repeats(expanded, k.scan.repeats);
      std::vector<Observation> want_rows;
      for (const auto& obs : rec.observations)
        if (select.mask == nullptr ||
            select.mask[map.get(obs.key)] != 0)
          want_rows.push_back(obs);
      ASSERT_EQ(expanded.size(), want_rows.size()) << tag;
      for (std::size_t i = 0; i < expanded.size(); ++i) {
        EXPECT_TRUE(same_observation(expanded[i], want_rows[i])) << tag;
        EXPECT_EQ(expanded[i].t, want_rows[i].t) << tag;
      }
    }
    // Cut anywhere, both decoders fail alike.
    for (std::size_t cut = 0; cut < w.size(); cut += 1 + w.size() / 40)
      expect_same_decode(decode_cell(true, w.buffer(), cut, map.keys(), {}),
                         decode_cell(false, w.buffer(), cut, map.keys(), {}),
                         tag + " cut " + std::to_string(cut));
  }
  EXPECT_GT(markers, 300u);
}

TEST(StoreRepeats, CellsWithoutRepeatsKeepThePlainBytes) {
  // Value bits decide: a snapshot of -0.0 after one of 0.0 (== equal) is
  // not a repeat, nor is one with a different context or key order.
  CellRecord rec;
  const config::ParamKey a{spectrum::Rat::kLte, 1}, b{spectrum::Rat::kLte, 2};
  const auto snap = [&](std::int64_t t, double va, std::int64_t ca,
                        config::ParamKey k1, config::ParamKey k2) {
    rec.observations.push_back({k1, va, SimTime{t}, ca});
    rec.observations.push_back({k2, 1.0, SimTime{t}, -1});
  };
  snap(10, 0.0, -1, a, b);
  snap(20, -0.0, -1, a, b);
  snap(30, -0.0, 3, a, b);
  snap(40, -0.0, 3, b, a);
  ParamIndexMap map;
  map.assign(a);
  map.assign(b);
  ByteWriter plain, with_count;
  encode_cell_reference(plain, 9, rec, map);
  RepeatCount count;
  ASSERT_TRUE(encode_cell(with_count, 9, rec, map, &count));
  EXPECT_EQ(count.snapshots, 0u);
  EXPECT_EQ(with_count.buffer(), plain.buffer());

  // One equal snapshot more, and the cell shrinks by a marker.
  snap(50, -0.0, 3, b, a);
  ByteWriter repeated;
  count = {};
  ASSERT_TRUE(encode_cell(repeated, 9, rec, map, &count));
  EXPECT_EQ(count.snapshots, 1u);
  EXPECT_EQ(count.rows, 2u);
  ByteWriter plain_longer;
  encode_cell_reference(plain_longer, 9, rec, map);
  EXPECT_LT(repeated.size(), plain_longer.size());
}

// --- the store --------------------------------------------------------------------

TEST(StoreRepeats, FlagsBitOneMarksExactlyTheStoresWithMarkers) {
  StoreDir heavy("flag_heavy"), plain("flag_plain");
  const auto db = repeat_db(3);
  const WriteStats ws = save_small_blocks(db, heavy.path(), 4);
  EXPECT_EQ(manifest_flags(heavy.path()), 0x03);
  EXPECT_GT(ws.repeats.snapshots, 0u);
  EXPECT_EQ(ws.rows, db.total_samples());
  std::uint64_t expected_rows = 0;
  for (const auto& [carrier, cells] : db.carriers())
    for (const auto& [id, rec] : cells)
      expected_rows += count_repeats(rec).rows;
  EXPECT_EQ(ws.repeats.rows, expected_rows);

  // The same database with every repeat made unique: no marker, no flag.
  ConfigDatabase unique;
  for (const auto& [carrier, cells] : db.carriers())
    for (const auto& [id, rec] : cells) {
      CellRecord& dst = unique.upsert_cell(carrier, id);
      dst = rec;
      for (std::size_t i = 0; i < dst.observations.size(); ++i)
        dst.observations[i].context = static_cast<std::int64_t>(i);
    }
  const WriteStats wp = save_small_blocks(unique, plain.path(), 4);
  EXPECT_EQ(wp.repeats.snapshots, 0u);
  EXPECT_EQ(manifest_flags(plain.path()), 0x01);

  for (const auto* dir : {&heavy, &plain}) {
    auto set = ShardSet::open(dir->path());
    ASSERT_TRUE(set.ok()) << set.error_message();
    EXPECT_EQ(set.value().manifest().repeats, dir == &heavy);
    EXPECT_EQ(load(set.value()), dir == &heavy ? db : unique);
  }
}

TEST(StoreRepeats, LoadEqualsTheDatabaseOnBothD2Worlds) {
  struct World {
    const char* name;
    ConfigDatabase db;
  };
  World worlds[] = {{"crawl", crawl_world_db()},
                    {"stream", stream_world_db(8)}};
  for (const World& world : worlds) {
    StoreDir one(std::string("d2_1_") + world.name);
    StoreDir four(std::string("d2_4_") + world.name);
    const WriteStats ws1 = save_small_blocks(world.db, one.path(), 1);
    const WriteStats ws4 = save_small_blocks(world.db, four.path(), 4);
    EXPECT_EQ(ws1.rows, world.db.total_samples()) << world.name;
    EXPECT_EQ(ws1.repeats.snapshots, ws4.repeats.snapshots) << world.name;
    EXPECT_GT(ws1.repeats.rows * 2, ws1.rows) << world.name
                                              << ": most rows repeat";
    for (const auto& entry : fs::directory_iterator(one.path())) {
      std::vector<std::uint8_t> a, b;
      ASSERT_TRUE(read_file_bytes(entry.path().string(), a));
      ASSERT_TRUE(read_file_bytes(
          (fs::path(four.path()) / entry.path().filename()).string(), b));
      EXPECT_EQ(a, b) << world.name << " " << entry.path().filename();
    }
    auto set = ShardSet::open(one.path());
    ASSERT_TRUE(set.ok()) << set.error_message();
    EXPECT_EQ(set.value().total_rows(), world.db.total_samples());
    for (const unsigned threads : {1u, 4u})
      EXPECT_EQ(load(set.value(), threads), world.db) << world.name;

    // The mix straight off the shards equals the scans of the database.
    core::MixOptions mopts;
    for (const unsigned threads : {1u, 4u}) {
      FoldOptions fopts;
      fopts.threads = threads;
      fopts.release_mapped = false;
      const DirectFold direct(set.value(), fopts);
      auto qa = analyze_query(direct, Query{}, mopts);
      ASSERT_TRUE(qa.ok()) << qa.error_message();
      EXPECT_EQ(qa.value().stats.rows, world.db.total_samples());
      for (const auto& f : qa.value().results)
        test::expect_mix_matches_scans(world.db, f, mopts, world.name);
    }
  }
}

TEST(StoreRepeats, GoldenBytesOfARepeatHeavyStore) {
  // StoreFormat.GoldenBytes pins the plain encoding; this pins the marker
  // encoding, as first written (the store loads back to its database, so
  // the pinned bytes are a correct encoding).  Same scheme: size and CRC-16
  // of every file (the manifest's without its trailer).
  StoreDir dir("golden");
  const auto db = repeat_db(20181031, 4, 60, 8);
  WriterOptions wopts;
  wopts.target_block_bytes = 2048;
  wopts.target_shard_bytes = 16384;
  const auto stats = save_database(db, dir.path(), wopts);
  ASSERT_GE(stats.shards, 2u);
  ASSERT_GT(stats.repeats.snapshots, 0u);
  auto set = ShardSet::open(dir.path());
  ASSERT_TRUE(set.ok()) << set.error_message();
  EXPECT_EQ(load(set.value()), db);

  struct Pin {
    std::string name;
    std::uint64_t size;
    std::uint16_t crc16;
  };
  std::vector<Pin> actual;
  std::string described;
  std::vector<std::string> names;
  for (const auto& shard : set.value().manifest().shards)
    names.push_back(shard.filename);
  names.push_back(kMmds2ManifestName);
  for (const auto& name : names) {
    std::vector<std::uint8_t> bytes;
    ASSERT_TRUE(read_file_bytes((fs::path(dir.path()) / name).string(), bytes));
    const std::size_t covered = name == kMmds2ManifestName && bytes.size() >= 2
                                    ? bytes.size() - 2
                                    : bytes.size();
    actual.push_back({name, bytes.size(), crc16_ccitt(bytes.data(), covered)});
    described += "{\"" + name + "\", " + std::to_string(bytes.size()) + ", " +
                 std::to_string(actual.back().crc16) + "},\n";
  }
  const std::vector<Pin> expected = {
      {"shard-0000.mmds2", 18586, 4484},
      {"shard-0001.mmds2", 16571, 24224},
      {"shard-0002.mmds2", 4048, 60171},
      {"manifest.mmds2", 692, 21200},
  };
  ASSERT_EQ(actual.size(), expected.size()) << described;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].name, expected[i].name) << described;
    EXPECT_EQ(actual[i].size, expected[i].size) << described;
    EXPECT_EQ(actual[i].crc16, expected[i].crc16) << described;
  }
}

// --- the fold ---------------------------------------------------------------------

TEST(StoreRepeats, FoldRecordsFollowTheOmissionRule) {
  const auto db = repeat_db(11, 3, 50, 8);
  const std::uint32_t mid = 50'000;
  std::vector<std::pair<std::string, Query>> queries;
  queries.emplace_back("all", Query{});
  {
    Query q;
    q.params = {kServing, kNeighbor};
    queries.emplace_back("params", q);
  }
  {
    Query q;
    q.min_cell = mid / 2;
    q.max_cell = mid + mid / 2;
    q.params = {kServing};
    queries.emplace_back("range+params", q);
  }
  // One run per cell (the skip path), and chunks of 40 rows (most cells
  // in several runs: the expand path).
  StoreDir single("omit_single"), chunked("omit_chunked");
  save_small_blocks(db, single.path());
  save_chunked(db, chunked.path(), 40);
  for (const auto* dir : {&single, &chunked}) {
    auto set = ShardSet::open(dir->path());
    ASSERT_TRUE(set.ok()) << set.error_message();
    ASSERT_TRUE(set.value().manifest().repeats);
    EXPECT_EQ(load(set.value()), db);
    for (const auto& [name, q] : queries)
      expect_records_follow_the_omission_rule(
          set.value(), q, (dir == &single ? "single " : "chunked ") + name);
  }
}

TEST(StoreRepeats, PlannedMixesMatchTheScansOverRepeatHeavyAndRepeatFreeWorlds) {
  core::MixOptions mopts;
  mopts.cities = test::test_cities();
  mopts.spatial = core::SpatialQuery{kServing, mopts.cities[1], 8000.0};
  const auto heavy = repeat_db(13, 3, 40, 8);
  const auto light = repeat_db(17, 3, 40, 1);  // one visit: no repeat at all
  std::vector<Query> queries(3);
  queries[1].params = {kServing, kNeighbor};
  queries[2].carriers = {"C1"};
  queries[2].min_cell = 20'000;
  for (const auto* db : {&heavy, &light}) {
    for (const bool chunk : {false, true}) {
      StoreDir dir(std::string("mix_") + (db == &heavy ? "heavy" : "light") +
                   (chunk ? "_chunked" : ""));
      if (chunk)
        save_chunked(*db, dir.path(), 64);
      else
        save_small_blocks(*db, dir.path());
      auto set = ShardSet::open(dir.path());
      ASSERT_TRUE(set.ok()) << set.error_message();
      EXPECT_EQ(set.value().manifest().repeats, db == &heavy);
      for (const Query& q : queries) {
        Query rows_only = q;
        rows_only.carriers.clear();
        const auto oracle = filter_db(*db, rows_only);
        for (const unsigned threads : {1u, 4u}) {
          FoldOptions fopts;
          fopts.threads = threads;
          fopts.release_mapped = false;
          const DirectFold direct(set.value(), fopts);
          auto qa = analyze_query(direct, q, mopts);
          ASSERT_TRUE(qa.ok()) << qa.error_message();
          for (const auto& f : qa.value().results)
            test::expect_mix_matches_scans(oracle, f, mopts,
                                           "threads " + std::to_string(threads));
          for (const auto& carrier : qa.value().carriers) {
            auto one = analyze_carrier(direct, carrier, mopts, q);
            ASSERT_TRUE(one.ok()) << one.error_message();
            test::expect_mix_matches_scans(oracle, one.value(), mopts,
                                           "planned " + carrier);
          }
        }
      }
    }
  }
}

/// `key`'s latest value in every record the fold delivers for `carrier`
/// (via CellFolder, as the accumulators read it) and the delivered row
/// counts, by cell id.
struct FoldedLatest {
  std::map<std::uint32_t, std::optional<double>> latest;
  std::map<std::uint32_t, std::size_t> rows;
};
FoldedLatest fold_latest(const ShardSet& set, config::ParamKey key,
                         unsigned threads) {
  FoldOptions fopts;
  fopts.threads = threads;
  const DirectFold direct(set, fopts);
  FoldedLatest out;
  core::CellFolder folder;
  const auto r = direct.fold_planned(
      QueryPlan(set, Query{}), "C", [&](std::uint32_t id, const CellRecord& rec) {
        folder.fold(rec);
        const auto* slice = folder.find(key);
        out.latest[id] = slice && slice->has_latest
                             ? std::optional<double>(slice->latest)
                             : std::nullopt;
        out.rows[id] = rec.observations.size();
      });
  EXPECT_TRUE(r.ok()) << r.error_message();
  return out;
}

/// A record of single-key snapshots (value, t) in the given order.
CellRecord snapshots_of(config::ParamKey key,
                        std::initializer_list<std::pair<double, std::int64_t>> s) {
  CellRecord rec;
  for (const auto& [value, t] : s)
    rec.observations.push_back({key, value, SimTime{t}, -1});
  return rec;
}

TEST(StoreRepeats, LatestIsPinnedWhereARepeatCouldDecideIt) {
  const config::ParamKey k = kServing;
  StoreDir dir("latest");
  {
    ShardWriter writer(dir.path());
    // 1: out of order.  2@100 then its repeat at 400 follow 1@300: the
    //    repeat holds the max t, so latest is 2 (skipping it would give 1).
    writer.add_cell("C", 1, snapshots_of(k, {{1, 300}, {2, 100}, {2, 400}}));
    // 2: times below -1.  1@-10 never counts; its repeat at 0 does.
    writer.add_cell("C", 2, snapshots_of(k, {{1, -10}, {1, 0}}));
    // 3: a run that ends in repeats: skipped, latest unchanged (2).
    writer.add_cell("C", 3,
                    snapshots_of(k, {{1, 10}, {2, 20}, {2, 30}, {2, 40}}));
    // 4: a tie at the max t between a repeat and another run's row; this
    //    run comes first on the wire, so on the tie the repeat's 1 is last.
    writer.add_cell("C", 4, snapshots_of(k, {{2, 200}}));
    // 5: sorted, from -1: skipped.
    writer.add_cell("C", 5, snapshots_of(k, {{3, -1}, {3, 7}, {4, 8}, {4, 9}}));
    writer.add_cell("C", 4, snapshots_of(k, {{1, 100}, {1, 200}}));  // run 2
    writer.finish();
  }
  auto set = ShardSet::open(dir.path());
  ASSERT_TRUE(set.ok()) << set.error_message();
  ASSERT_TRUE(set.value().manifest().repeats);
  const auto loaded = load(set.value());
  const auto& cells = *loaded.cells_of("C");
  const std::map<std::uint32_t, double> want = {
      {1, 2.0}, {2, 1.0}, {3, 2.0}, {4, 1.0}, {5, 4.0}};
  // Rows delivered: expanded for 1, 2 and 4, distinct snapshots for 3, 5.
  const std::map<std::uint32_t, std::size_t> rows = {
      {1, 3}, {2, 2}, {3, 2}, {4, 3}, {5, 2}};
  for (const unsigned threads : {1u, 4u}) {
    const FoldedLatest got = fold_latest(set.value(), k, threads);
    for (const auto& [id, value] : want) {
      ASSERT_TRUE(cells.at(id).latest(k).has_value()) << id;
      EXPECT_EQ(*cells.at(id).latest(k), value) << "loaded cell " << id;
      ASSERT_TRUE(got.latest.at(id).has_value()) << id;
      EXPECT_EQ(*got.latest.at(id), value) << "folded cell " << id;
      EXPECT_EQ(got.rows.at(id), rows.at(id)) << "cell " << id;
    }
  }
}

// --- hostile bodies -----------------------------------------------------------------

/// A store held in memory: manifest plus shard files, rewritten to disk per
/// mutant with every length, offset and CRC recomputed.
struct StoreImage {
  Manifest manifest;
  std::vector<std::vector<std::uint8_t>> shards;  ///< full files

  static StoreImage read(const std::string& dir) {
    StoreImage img;
    auto m = read_manifest(dir);
    EXPECT_TRUE(m.ok()) << m.error_message();
    img.manifest = m.value();
    for (const auto& shard : img.manifest.shards) {
      img.shards.emplace_back();
      EXPECT_TRUE(read_file_bytes((fs::path(dir) / shard.filename).string(),
                                  img.shards.back()));
    }
    return img;
  }
  std::vector<std::uint8_t> body(std::size_t s, std::size_t b) const {
    const BlockInfo& info = manifest.shards[s].blocks[b];
    const auto first = shards[s].begin() + static_cast<long>(info.offset);
    return {first, first + static_cast<long>(info.length)};
  }
  /// Replace one block body; offsets, sizes and CRCs follow.
  void set_body(std::size_t s, std::size_t b,
                const std::vector<std::uint8_t>& body) {
    std::vector<std::uint8_t> file(shards[s].begin(),
                                   shards[s].begin() + sizeof(kShardMagic));
    auto& blocks = manifest.shards[s].blocks;
    for (std::size_t k = 0; k < blocks.size(); ++k) {
      const auto bytes = k == b ? body : this->body(s, k);
      blocks[k].offset = file.size();
      blocks[k].length = bytes.size();
      blocks[k].crc16 = crc16_ccitt(bytes.data(), bytes.size());
      file.insert(file.end(), bytes.begin(), bytes.end());
    }
    shards[s] = std::move(file);
    manifest.shards[s].file_size = shards[s].size();
    manifest.shards[s].crc16 = crc16_ccitt(shards[s].data(), shards[s].size());
  }
  void write(const std::string& dir) const {
    fs::remove_all(dir);
    fs::create_directories(dir);
    for (std::size_t s = 0; s < shards.size(); ++s) {
      FileWriter out((fs::path(dir) / manifest.shards[s].filename).string());
      out.write(shards[s].data(), shards[s].size());
      out.close();
    }
    write_manifest(dir, manifest);
  }
};

/// Where each cell and entry of a block body starts, walked as the codec
/// lays it out (stops quietly at damage).
struct BodyMap {
  struct Cell {
    std::size_t count_at = 0, count_len = 0;  ///< the n_obs varint
    std::uint64_t n = 0;
    std::vector<std::size_t> entries;  ///< entry starts, then the cell end
    std::vector<bool> marker;          ///< per entry
  };
  std::vector<Cell> cells;

  explicit BodyMap(const std::vector<std::uint8_t>& body) {
    ByteReader r(body.data(), body.size());
    try {
      while (r.remaining() > 0) {
        Cell c;
        (void)r.varint();
        (void)r.u8();
        (void)r.varint();
        (void)r.f64le();
        (void)r.f64le();
        c.count_at = r.position();
        c.n = r.varint();
        c.count_len = r.position() - c.count_at;
        for (std::uint64_t i = 0; i < c.n; ++i) {
          c.entries.push_back(r.position());
          (void)r.svarint();
          const bool marker = r.varint() == kRepeatMarker;
          c.marker.push_back(marker);
          if (!marker) {
            (void)r.f64le();
            (void)r.svarint();
          }
        }
        c.entries.push_back(r.position());
        cells.push_back(std::move(c));
      }
    } catch (const std::exception&) {
    }
  }
};

std::vector<std::uint8_t> varint_bytes(std::uint64_t v) {
  ByteWriter w;
  w.varint(v);
  return std::move(w).take();
}

/// Replace [at, at + len) of `body` by `with`.
void splice(std::vector<std::uint8_t>& body, std::size_t at, std::size_t len,
            const std::vector<std::uint8_t>& with) {
  body.erase(body.begin() + static_cast<long>(at),
             body.begin() + static_cast<long>(at + len));
  body.insert(body.begin() + static_cast<long>(at), with.begin(), with.end());
}

/// A marker entry with time delta `dt`.
std::vector<std::uint8_t> marker_bytes(std::int64_t dt) {
  ByteWriter w;
  w.svarint(dt);
  w.varint(kRepeatMarker);
  return std::move(w).take();
}

/// One mutation of a block body; returns what it did.
std::string mutate(Rng& rng, std::vector<std::uint8_t>& body) {
  if (body.empty()) return "none";
  const BodyMap map(body);
  std::vector<std::size_t> cells_with_entries;
  for (std::size_t c = 0; c < map.cells.size(); ++c)
    if (map.cells[c].n > 0) cells_with_entries.push_back(c);
  const auto pick_cell = [&]() -> const BodyMap::Cell* {
    if (cells_with_entries.empty()) return nullptr;
    return &map.cells[cells_with_entries[rng.below(cells_with_entries.size())]];
  };
  const auto set_count = [&](const BodyMap::Cell& c, std::uint64_t n) {
    splice(body, c.count_at, c.count_len, varint_bytes(n));
  };
  switch (rng.below(7)) {
    case 0: {
      const std::size_t at = rng.below(body.size());
      body[at] ^= static_cast<std::uint8_t>(1u << rng.below(8));
      return "flip at " + std::to_string(at);
    }
    case 1: {
      const std::size_t at = rng.below(body.size());
      body.resize(at);
      return "truncate at " + std::to_string(at);
    }
    case 2: {  // pad a one-byte time delta: the same value, longer
      const BodyMap::Cell* c = pick_cell();
      if (!c) return "none";
      const std::size_t at = c->entries[rng.below(c->n)];
      if (body[at] >= 0x80) return "none";
      body[at] |= 0x80;
      body.insert(body.begin() + static_cast<long>(at) + 1, 0x00);
      return "pad delta at " + std::to_string(at);
    }
    case 3: {  // a lying entry count
      const BodyMap::Cell* c = pick_cell();
      if (!c) return "none";
      const std::uint64_t n = rng.chance(0.5) ? c->n + 1 + rng.below(3)
                                              : rng.below(c->n);
      set_count(*c, n);
      return "count " + std::to_string(n);
    }
    case 4: {  // insert a marker at an entry boundary
      const BodyMap::Cell* c = pick_cell();
      if (!c) return "none";
      const std::size_t k = rng.below(c->n + 1);
      const std::int64_t dt = rng.chance(0.2) ? 0 : rng.between(-500, 5000);
      splice(body, c->entries[k], 0, marker_bytes(dt));
      set_count(*c, c->n + 1);
      return "insert marker at entry " + std::to_string(k);
    }
    case 5:
    case 6: {  // drop or move a marker
      std::vector<std::pair<const BodyMap::Cell*, std::size_t>> markers;
      for (const auto& c : map.cells)
        for (std::size_t k = 0; k < c.marker.size(); ++k)
          if (c.marker[k]) markers.emplace_back(&c, k);
      if (markers.empty()) return "none";
      const auto [c, k] = markers[rng.below(markers.size())];
      const std::vector<std::uint8_t> bytes(
          body.begin() + static_cast<long>(c->entries[k]),
          body.begin() + static_cast<long>(c->entries[k + 1]));
      if (rng.chance(0.5)) {
        const std::size_t to = rng.below(c->n + 1);
        // Insert first at the higher offset so the lower one stays valid.
        const std::size_t at = c->entries[to];
        if (at >= c->entries[k + 1]) {
          splice(body, at, 0, bytes);
          splice(body, c->entries[k], bytes.size(), {});
        } else {
          splice(body, c->entries[k], bytes.size(), {});
          splice(body, at, 0, bytes);
        }
        return "move marker " + std::to_string(k) + " to " + std::to_string(to);
      }
      splice(body, c->entries[k], bytes.size(), {});
      set_count(*c, c->n - 1);
      return "drop marker " + std::to_string(k);
    }
  }
  return "none";
}

/// Fix a mutated block's manifest counts to what its body now holds, when
/// it still parses (so mutants also reach the merge, not just the count
/// checks).
void recount(const ShardSet& set, std::size_t global, BlockInfo& info) {
  const auto body = set.block_body(global);
  ByteReader r(body.data(), body.size());
  CellRecord rec;
  CellScan scan;
  std::uint64_t cells = 0, rows = 0;
  std::uint32_t first = 0, last = 0;
  try {
    while (r.remaining() > 0) {
      const std::uint32_t id = parse_cell_filtered(
          r, set.params(), true, {}, 0, 0xFFFFFFFFu, rec, scan);
      if (cells == 0) first = id;
      last = id;
      ++cells;
      rows += scan.rows;
    }
  } catch (const std::exception&) {
    return;
  }
  info.cell_count = cells;
  info.row_count = rows;
  if (cells > 0) {
    info.first_cell = first;
    info.last_cell = last;
  }
}

/// The products of a whole-store fold, or its error.
struct Outcome {
  bool ok = false;
  std::string error;
  std::vector<core::CarrierFigures> figures;
};

Outcome fold_products(const ShardSet& set, const Query& q, unsigned threads) {
  FoldOptions fopts;
  fopts.threads = threads;
  fopts.release_mapped = false;
  const DirectFold direct(set, fopts);
  core::MixOptions mopts;
  mopts.cities = test::test_cities();
  auto qa = analyze_query(direct, q, mopts);
  Outcome out;
  if (!qa.ok()) {
    out.error = qa.error_message();
    return out;
  }
  out.ok = true;
  for (auto& f : qa.value().results) out.figures.push_back(f);
  return out;
}

void expect_same_figures(const core::CarrierFigures& a,
                         const core::CarrierFigures& b,
                         const std::string& what) {
  EXPECT_EQ(a.carrier, b.carrier) << what;
  test::expect_diversity(a.diversity, b.diversity, what + " diversity");
  ASSERT_EQ(a.dependence.size(), b.dependence.size()) << what;
  for (std::size_t i = 0; i < a.dependence.size(); ++i) {
    EXPECT_EQ(a.dependence[i].key, b.dependence[i].key) << what;
    expect_bits(a.dependence[i].zeta_simpson, b.dependence[i].zeta_simpson,
                what + " zeta");
    expect_bits(a.dependence[i].zeta_cv, b.dependence[i].zeta_cv,
                what + " zeta cv");
  }
  test::expect_counts(a.serving_priority, b.serving_priority, what + " serving");
  test::expect_counts(a.candidate_priority, b.candidate_priority,
                      what + " candidate");
  expect_bits(a.multi_priority_fraction, b.multi_priority_fraction,
              what + " multi");
  test::expect_counts(a.priority_by_city, b.priority_by_city, what + " city");
  test::expect_gaps(a.gaps, b.gaps, what + " gaps");
  ASSERT_EQ(a.totals.size(), b.totals.size()) << what;
  for (const auto& [key, totals] : a.totals) {
    ASSERT_TRUE(b.totals.count(key)) << what;
    EXPECT_EQ(totals.values, b.totals.at(key).values) << what;
    EXPECT_EQ(totals.cells, b.totals.at(key).cells) << what;
  }
}

TEST(StoreRepeatFuzz, EveryMutantIsRejectedByBothReadersOrFoldsLikeItLoads) {
  // A repeat-heavy store with single-run cells (skip path) and, in its
  // second carrier, cells in several runs (expand path).
  StoreDir base("fuzz_base"), mutant("fuzz_mutant");
  const auto db = repeat_db(29, 2, 10, 8);
  {
    WriterOptions wopts;
    wopts.target_block_bytes = 300;
    ShardWriter writer(base.path(), wopts);
    for (const auto& [id, rec] : *db.cells_of("C0"))
      writer.add_cell("C0", id, rec);
    for (int run = 0; run < 2; ++run)
      for (const auto& [id, rec] : *db.cells_of("C1")) {
        // Split each cell's snapshots between two runs at a snapshot edge.
        CellRecord part = rec;
        const auto& o = rec.observations;
        std::size_t cut = o.size() / 2;
        while (cut > 0 && cut < o.size() && o[cut].t == o[cut - 1].t) ++cut;
        if (run == 0)
          part.observations.assign(o.begin(), o.begin() + static_cast<long>(cut));
        else
          part.observations.assign(o.begin() + static_cast<long>(cut), o.end());
        writer.add_cell("C1", id, part);
      }
    ASSERT_GT(writer.finish().repeats.snapshots, 0u);
  }
  const StoreImage pristine = StoreImage::read(base.path());
  ASSERT_TRUE(pristine.manifest.repeats);

  std::vector<std::pair<std::size_t, std::size_t>> blocks;
  for (std::size_t s = 0; s < pristine.manifest.shards.size(); ++s)
    for (std::size_t b = 0; b < pristine.manifest.shards[s].blocks.size(); ++b)
      blocks.emplace_back(s, b);
  ASSERT_GT(blocks.size(), 4u);

  Rng rng(0xF022);
  const Query serving_only{.carriers = {},
                           .min_cell = 0,
                           .max_cell = 0xFFFFFFFFu,
                           .params = {kServing, kNeighbor}};
  int accepted = 0, rejected = 0;
  constexpr int kMutants = 400;  // a fixed budget: runs under ASan/UBSan
  for (int m = 0; m < kMutants; ++m) {
    StoreImage img = pristine;
    const auto [s, b] = blocks[rng.below(blocks.size())];
    std::vector<std::uint8_t> body = img.body(s, b);
    std::string what = mutate(rng, body);
    if (rng.chance(0.3)) what += ", " + mutate(rng, body);
    img.set_body(s, b, body);
    img.write(mutant.path());
    const bool fix_counts = rng.chance(0.5);
    if (fix_counts) {
      auto set = ShardSet::open(mutant.path());
      if (set.ok()) {
        std::size_t global = 0;
        for (std::size_t k = 0; k < s; ++k)
          global += img.manifest.shards[k].blocks.size();
        recount(set.value(), global + b, img.manifest.shards[s].blocks[b]);
        write_manifest(mutant.path(), img.manifest);
      }
    }
    const std::string tag = "mutant " + std::to_string(m) + " (" + what +
                            (fix_counts ? ", counts fixed)" : ")");

    auto set = ShardSet::open(mutant.path());
    if (!set.ok()) {  // neither reader gets a store to read
      ++rejected;
      continue;
    }
    ConfigDatabase loaded;
    const auto lr = load_database(set.value(), loaded, 2);
    const Outcome whole1 = fold_products(set.value(), Query{}, 1);
    const Outcome whole4 = fold_products(set.value(), Query{}, 4);
    const Outcome planned = fold_products(set.value(), serving_only, 4);
    ASSERT_EQ(lr.ok(), whole1.ok) << tag << ": " << lr.error_message() << " | "
                                  << whole1.error;
    ASSERT_EQ(whole1.ok, whole4.ok) << tag;
    ASSERT_EQ(whole1.ok, planned.ok) << tag << ": " << planned.error;
    if (!lr.ok()) {
      ++rejected;
      continue;
    }
    ++accepted;
    core::MixOptions mopts;
    mopts.cities = test::test_cities();
    const auto want = core::analyze_database(loaded, mopts, 1);
    const auto want_planned =
        core::analyze_database(filter_db(loaded, serving_only), mopts, 1);
    ASSERT_EQ(whole1.figures.size(), want.size()) << tag;
    for (std::size_t i = 0; i < want.size(); ++i) {
      expect_same_figures(whole1.figures[i], want[i], tag + " threads=1");
      expect_same_figures(whole4.figures[i], want[i], tag + " threads=4");
    }
    ASSERT_EQ(planned.figures.size(), want_planned.size()) << tag;
    for (std::size_t i = 0; i < want_planned.size(); ++i)
      expect_same_figures(planned.figures[i], want_planned[i], tag + " planned");
    if (::testing::Test::HasFailure()) break;
  }
  // The sweep reaches both outcomes often.
  EXPECT_GT(accepted, kMutants / 10);
  EXPECT_GT(rejected, kMutants / 10);
}

/// A hand-built one-block store of carrier "C": `body` with the manifest
/// counts given, CRCs computed, flags bit 1 as `repeats`.
void write_store(const std::string& dir, const std::vector<std::uint8_t>& body,
                 std::uint64_t cells, std::uint64_t rows, std::uint32_t first,
                 std::uint32_t last, bool repeats = true) {
  StoreImage img;
  img.manifest.repeats = repeats;
  img.manifest.carriers = {"C"};
  img.manifest.params = {config::param_name(kServing),
                         config::param_name(kNeighbor)};
  BlockInfo info;
  info.cell_count = cells;
  info.row_count = rows;
  info.first_cell = first;
  info.last_cell = last;
  img.manifest.shards.push_back({"shard-0000.mmds2", 0, 0, {info}});
  img.shards.emplace_back(kShardMagic, kShardMagic + sizeof(kShardMagic));
  img.set_body(0, 0, body);
  img.write(dir);
}

/// A cell header for id 1 with `n` entries.
ByteWriter cell_header(std::uint64_t n) {
  ByteWriter w;
  w.varint(1);
  w.u8(static_cast<std::uint8_t>(spectrum::Rat::kLte));
  w.varint(100);
  w.f64le(0.0);
  w.f64le(0.0);
  w.varint(n);
  return w;
}

void put_observation(ByteWriter& w, std::int64_t dt, std::uint64_t param,
                     double value) {
  w.svarint(dt);
  w.varint(param);
  w.f64le(value);
  w.svarint(-1);
}

/// Both readers reject the store, with `message` in each error.
void expect_rejected(const std::string& dir, const std::string& message) {
  auto set = ShardSet::open(dir);
  ASSERT_TRUE(set.ok()) << set.error_message();
  ConfigDatabase db;
  const auto lr = load_database(set.value(), db);
  ASSERT_FALSE(lr.ok());
  EXPECT_NE(lr.error_message().find(message), std::string::npos)
      << lr.error_message();
  for (const unsigned threads : {1u, 4u}) {
    const Outcome o = fold_products(set.value(), Query{}, threads);
    ASSERT_FALSE(o.ok);
    EXPECT_NE(o.error.find(message), std::string::npos) << o.error;
  }
}

TEST(StoreRepeatFuzz, AMarkerFirstInARunIsRejected) {
  StoreDir dir("marker_first");
  ByteWriter w = cell_header(2);
  w.svarint(5);
  w.varint(kRepeatMarker);
  put_observation(w, 1, 0, 3.0);
  write_store(dir.path(), w.buffer(), 1, 2, 1, 1);
  expect_rejected(dir.path(), "repeat marker before any snapshot");
}

/// This process's peak resident set (VmHWM) in bytes, or 0 where /proc is
/// unavailable.
std::uint64_t peak_rss_bytes() {
  std::vector<std::uint8_t> status;
  if (!read_file_bytes("/proc/self/status", status)) return 0;
  const std::string text(status.begin(), status.end());
  const auto at = text.find("VmHWM:");
  if (at == std::string::npos) return 0;
  return std::stoull(text.substr(at + 6)) * 1024;
}

TEST(StoreRepeatFuzz, ALyingRowCountStopsTheExpansionBeforeItAllocates) {
  // One snapshot of 2,000 rows, then 20,000 markers: 40 M rows (1.3 GB)
  // if expanded, in a body of ~66 KB.  The manifest claims the wire's
  // 22,000 entries; both readers must refuse before expanding anything.
  // The first marker steps back in time, so the fold may not skip the
  // repeats: it too would have to expand them.
  constexpr std::uint64_t kRows = 2000, kMarkers = 20000;
  const auto body = [](std::uint64_t rows, std::uint64_t markers) {
    ByteWriter w = cell_header(rows + markers);
    for (std::uint64_t i = 0; i < rows; ++i)
      put_observation(w, i == 0 ? 10 : 0, i % 2, static_cast<double>(i % 7));
    for (std::uint64_t i = 0; i < markers; ++i) {
      w.svarint(i == 0 ? -1 : 1);
      w.varint(kRepeatMarker);
    }
    return std::move(w).take();
  };
  StoreDir dir("lying_rows");
  write_store(dir.path(), body(kRows, kMarkers), 1, kRows + kMarkers, 1, 1);
  const std::uint64_t before = peak_rss_bytes();
  expect_rejected(dir.path(), "disagree");
  if (before != 0) {
    EXPECT_LT(peak_rss_bytes() - before, std::uint64_t{256} << 20)
        << "a reader expanded rows the manifest never declared";
  }

  // Told the truth, a smaller cousin loads and folds: 400 rows repeated
  // 50 times.
  StoreDir honest("honest_rows");
  write_store(honest.path(), body(400, 50), 1, 400 * 51, 1, 1);
  auto set = ShardSet::open(honest.path());
  ASSERT_TRUE(set.ok()) << set.error_message();
  const auto loaded = load(set.value());
  EXPECT_EQ(loaded.total_samples(), 400u * 51);
  const Outcome o = fold_products(set.value(), Query{}, 1);
  ASSERT_TRUE(o.ok) << o.error;
}

TEST(StoreRepeatFuzz, ATruncatedMarkerIsRejected) {
  StoreDir dir("truncated_marker");
  ByteWriter w = cell_header(2);
  put_observation(w, 10, 0, 3.0);
  w.svarint(5);
  const auto marker = varint_bytes(kRepeatMarker);
  w.raw(marker.data(), marker.size() - 1);  // the index's last byte is gone
  write_store(dir.path(), w.buffer(), 1, 2, 1, 1);
  auto set = ShardSet::open(dir.path());
  ASSERT_TRUE(set.ok()) << set.error_message();
  ConfigDatabase db;
  EXPECT_FALSE(load_database(set.value(), db).ok());
  EXPECT_FALSE(fold_products(set.value(), Query{}, 1).ok);
}

TEST(StoreRepeatFuzz, AMarkerInAStoreWithoutTheFlagIsRejected) {
  StoreDir dir("no_flag");
  ByteWriter w = cell_header(2);
  put_observation(w, 10, 0, 3.0);
  w.svarint(5);
  w.varint(kRepeatMarker);
  write_store(dir.path(), w.buffer(), 1, 2, 1, 1, /*repeats=*/false);
  expect_rejected(dir.path(), "param index out of range");
}

}  // namespace
}  // namespace mmlab::store
