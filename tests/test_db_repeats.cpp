// Repeat snapshots in the database (core/database.hpp) and at extraction
// (core/extractor.hpp).  ConfigDatabase::file_snapshot and refile_snapshot
// hold a snapshot equal to the cell's previous one as a Repeat, and the
// extractor's memo refiles a camp whose RRC payloads repeat the cell's last
// camp without decoding it.  Each must equal its rows-only oracle: a
// database built with upsert_cell, row by row, and a test-local replay that
// decodes every camp.  Equal in the expanded rows (value bits included), in
// the store bytes they write, in every core/analysis scan, and in
// ExtractStats.  The store side: load_database keeps a single run's
// markers, and FoldStats counts the repeat rows a fold delivers without.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "figures_oracle.hpp"
#include "mmlab/core/analysis.hpp"
#include "mmlab/core/dataset_io.hpp"
#include "mmlab/core/extractor.hpp"
#include "mmlab/core/figures.hpp"
#include "mmlab/core/misconfig.hpp"
#include "mmlab/core/parallel_extract.hpp"
#include "mmlab/core/stability.hpp"
#include "mmlab/diag/stream_parser.hpp"
#include "mmlab/netgen/generator.hpp"
#include "mmlab/rrc/codec.hpp"
#include "mmlab/sim/crawl.hpp"
#include "mmlab/store/analytics.hpp"
#include "mmlab/store/shard_set.hpp"
#include "mmlab/store/shard_writer.hpp"
#include "mmlab/util/byteio.hpp"
#include "mmlab/util/rng.hpp"

namespace mmlab::core {
namespace {

namespace fs = std::filesystem;

/// The parts, appended (a leading literal + std::string trips GCC 12's
/// -Wrestrict at -O3).
std::string cat(std::initializer_list<std::string_view> parts) {
  std::string out;
  for (const auto part : parts) out += part;
  return out;
}

/// A scratch store directory, named after the running test, since ctest
/// runs the tests of this file in parallel processes.
class StoreDir {
 public:
  explicit StoreDir(const std::string& tag)
      : path_((fs::path(::testing::TempDir()) /
               cat({"mmlab_dbrep_",
                    ::testing::UnitTest::GetInstance()->current_test_info()->name(),
                    "_", tag}))
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

std::string bits(double v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(v)));
  return buf;
}

/// Every expanded row of every cell, value bits included, plus identity.
std::string rows_text(const ConfigDatabase& db) {
  std::string out;
  for (const auto& [carrier, cells] : db.carriers())
    for (const auto& [id, rec] : cells) {
      out += carrier + " " + std::to_string(id) + " " +
             std::to_string(static_cast<int>(rec.rat)) + " " +
             std::to_string(rec.channel) + " " + bits(rec.position.x) + " " +
             bits(rec.position.y) + "\n";
      rec.for_each_row([&out](const Observation& o) {
        out += cat({" ", std::to_string(o.key.id), "/",
                    std::to_string(static_cast<int>(o.key.rat)), " ",
                    bits(o.value), " ", std::to_string(o.t.ms), " ",
                    std::to_string(o.context), "\n"});
      });
    }
  return out;
}

/// Two texts equal; on a difference, only the first differing line is
/// printed (gtest's own diff of texts this size would take gigabytes).
void expect_same_text(const std::string& a, const std::string& b,
                      const std::string& tag) {
  if (a == b) return;
  std::size_t at = 0;
  while (at < a.size() && at < b.size() && a[at] == b[at]) ++at;
  const std::size_t line = a.rfind('\n', at) == std::string::npos
                               ? 0
                               : a.rfind('\n', at) + 1;
  ADD_FAILURE() << tag << ": texts differ at byte " << at << " (sizes "
                << a.size() << ", " << b.size() << "):\n  "
                << a.substr(line, a.find('\n', at) - line) << "\n  "
                << b.substr(line, b.find('\n', at) - line);
}

/// Every record holding repeats keeps the invariant.
void expect_invariant(const ConfigDatabase& db, const std::string& tag) {
  for (const auto& [carrier, cells] : db.carriers())
    for (const auto& [id, rec] : cells)
      EXPECT_TRUE(repeats_hold(rec.observations, rec.repeats))
          << tag << " " << carrier << " cell " << id;
}

std::size_t repeat_count(const ConfigDatabase& db) {
  std::size_t n = 0;
  for (const auto& [carrier, cells] : db.carriers())
    for (const auto& [id, rec] : cells) n += rec.repeats.size();
  return n;
}

// --- every core/analysis scan, as text ----------------------------------------

std::string counts_text(const stats::ValueCounts& vc) {
  std::string out = "{";
  for (const auto& [value, count] : vc.counts())
    out += bits(value) + ":" + std::to_string(count) + " ";
  return out + "}";
}

std::string grouped_text(const std::map<long, stats::ValueCounts>& groups) {
  std::string out;
  for (const auto& [g, vc] : groups)
    out += std::to_string(g) + "=" + counts_text(vc) + " ";
  return out + "\n";
}

std::string scans_text(const ConfigDatabase& db) {
  std::ostringstream out;
  out << db.total_cells() << " " << db.total_samples() << "\n";
  for (const auto& share : rat_breakdown(db))
    out << static_cast<int>(share.rat) << " " << share.cells << " "
        << bits(share.fraction) << "\n";
  for (const auto& f : detect_misconfigurations(db))
    out << static_cast<int>(f.kind) << " " << f.carrier << " " << f.cell_id
        << " " << f.channel << " " << bits(f.value) << " " << f.detail << "\n";
  const auto gaps_text = [&out](const MeasurementGaps& g) {
    for (const auto* v : {&g.intra_minus_nonintra, &g.intra_minus_slow,
                          &g.nonintra_minus_slow}) {
      for (double x : *v) out << bits(x) << " ";
      out << "\n";
    }
  };
  gaps_text(measurement_decision_gaps(db));
  for (const auto& [carrier, cells] : db.carriers()) {
    out << carrier << " " << db.cell_count(carrier) << " "
        << db.sample_count(carrier) << "\n";
    const auto keys = db.observed_params(carrier);
    for (const auto& key : keys) {
      out << key.id << ":" << counts_text(db.values(carrier, key))
          << grouped_text(db.values_by_context(carrier, key));
    }
    for (const auto& d : diversity_by_param(db, carrier))
      out << d.key.id << " " << bits(d.measures.simpson) << " "
          << bits(d.measures.cv) << " " << d.measures.richness << " "
          << d.cells << "\n";
    for (const auto& d : frequency_dependence(db, carrier))
      out << d.key.id << " " << bits(d.zeta_simpson) << " " << bits(d.zeta_cv)
          << "\n";
    out << grouped_text(priority_by_channel(db, carrier, false))
        << grouped_text(priority_by_channel(db, carrier, true))
        << bits(multi_priority_cell_fraction(db, carrier)) << "\n";
    const TemporalStats ts = temporal_dynamics(db, carrier);
    for (std::size_t n : ts.samples_per_cell_histogram) out << n << " ";
    out << bits(ts.fraction_multi_sample) << " "
        << bits(ts.idle_update_fraction) << " "
        << bits(ts.active_update_fraction) << "\n";
    for (const auto& h : ts.by_horizon)
      out << bits(h.days) << " " << bits(h.idle_fraction) << " "
          << bits(h.active_fraction) << "\n";
    gaps_text(measurement_decision_gaps(db, carrier));
    for (const auto& loop : detect_priority_loops(db, carrier))
      out << loop.channel_a << " " << loop.channel_b << " " << loop.cells_a
          << " " << loop.cells_b << "\n";
    for (const auto& [id, rec] : cells) {
      out << id << ":";
      for (const auto& key : keys) {
        out << " " << rec.sample_count(key);
        for (double v : rec.unique_values(key)) out << "," << bits(v);
        const auto latest = rec.latest(key);
        out << "=" << (latest ? bits(*latest) : "none");
      }
      for (const auto& c : describe_changes(rec))
        out << " [" << c.key.id << " " << bits(c.from) << " " << bits(c.to)
            << " " << c.first_seen.ms << " " << c.changed_at.ms << " "
            << c.active_state << "]";
      out << "\n";
    }
  }
  std::ostringstream csv;
  save_dataset(db, csv);
  return out.str() + csv.str();
}

std::map<std::string, std::vector<std::uint8_t>> store_files(
    const std::string& dir) {
  std::map<std::string, std::vector<std::uint8_t>> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    std::vector<std::uint8_t> bytes;
    EXPECT_TRUE(read_file_bytes(entry.path().string(), bytes));
    files[entry.path().filename().string()] = std::move(bytes);
  }
  return files;
}

/// `db` against its rows-only oracle: expanded rows, the invariant, the
/// store bytes (and the store's load), and every scan.
void expect_same_as_rows(const ConfigDatabase& db, const ConfigDatabase& ref,
                         const std::string& tag) {
  EXPECT_TRUE(db == ref) << tag;
  expect_same_text(rows_text(db), rows_text(ref), tag);
  expect_invariant(db, tag);
  expect_same_text(scans_text(db), scans_text(ref), tag);
  MixOptions mopts;
  for (const auto& [carrier, cells] : ref.carriers())
    test::expect_mix_matches_scans(ref, analyze_carrier(db, carrier, mopts),
                                   mopts, tag + " mix " + carrier);
  for (const unsigned threads : {1u, 4u}) {
    StoreDir a(cat({"a_", std::to_string(threads)}));
    StoreDir b(cat({"b_", std::to_string(threads)}));
    store::WriterOptions wopts;
    wopts.target_block_bytes = 512;
    wopts.target_shard_bytes = 4096;
    wopts.threads = threads;
    const auto wa = store::save_database(db, a.path(), wopts);
    const auto wb = store::save_database(ref, b.path(), wopts);
    EXPECT_EQ(wa.rows, wb.rows) << tag;
    EXPECT_EQ(wa.repeats.snapshots, wb.repeats.snapshots) << tag;
    EXPECT_EQ(wa.repeats.rows, wb.repeats.rows) << tag;
    EXPECT_TRUE(store_files(a.path()) == store_files(b.path()))
        << tag << " threads " << threads;
    auto set = store::ShardSet::open(a.path());
    ASSERT_TRUE(set.ok()) << set.error_message();
    ConfigDatabase loaded;
    ASSERT_TRUE(store::load_database(set.value(), loaded, threads).ok());
    expect_same_text(rows_text(loaded), rows_text(ref), tag + " loaded");
    expect_invariant(loaded, tag + " loaded");
  }
}

// --- the database property test -------------------------------------------------

const std::array<config::ParamKey, 4> kKeys = {
    config::lte_param(config::ParamId::kServingPriority),
    config::lte_param(config::ParamId::kNeighborPriority),
    config::lte_param(config::ParamId::kSIntraSearch),
    config::lte_param(config::ParamId::kA3Offset)};

/// Seeded filings of a few cells, applied to a database through
/// file_snapshot / refile_snapshot and to its rows-only oracle through
/// upsert_cell.  Times mostly rise, sometimes tie, fall or sit at and
/// below -1; params are often the cell's last ones again, sometimes empty,
/// and values include both zeros.
class Filings {
 public:
  Filings(std::uint64_t seed, ConfigDatabase& db, ConfigDatabase& ref)
      : rng_(seed), db_(db), ref_(ref) {}

  void run(int steps) {
    for (int s = 0; s < steps; ++s) step();
  }

 private:
  struct Cell {
    std::int64_t t = 0;
    bool filed = false;
    std::vector<config::ParamObservation> last;
  };

  double value() {
    switch (rng_.below(5)) {
      case 0: return 0.0;
      case 1: return -0.0;
      default: return static_cast<double>(rng_.below(3));
    }
  }

  void step() {
    const std::string carrier = rng_.chance(0.5) ? "A" : "B";
    const auto id = static_cast<std::uint32_t>(1 + rng_.below(5));
    Cell& cell = cells_[{carrier, id}];
    std::int64_t t = cell.t;
    const double r = rng_.uniform(0.0, 1.0);
    if (r < 0.08)
      t -= static_cast<std::int64_t>(1 + rng_.below(100));  // falls
    else if (r < 0.14)
      t = -static_cast<std::int64_t>(rng_.below(4));  // at or near -1
    else if (r < 0.24)
      ;  // ties
    else
      t += static_cast<std::int64_t>(1 + rng_.below(1000));
    cell.t = t;
    const auto rat = static_cast<spectrum::Rat>(rng_.below(2));
    const auto channel = static_cast<std::uint32_t>(rng_.below(4));
    const geo::Point pos{static_cast<double>(rng_.below(9)),
                         rng_.chance(0.5) ? -0.0 : 0.0};
    std::vector<config::ParamObservation> params;
    const bool refile = cell.filed && rng_.chance(0.3);
    if (refile || (cell.filed && rng_.chance(0.5))) {
      params = cell.last;
      if (!refile && !params.empty() && rng_.chance(0.2)) {  // a sign flip
        auto& p = params[rng_.below(params.size())];
        p.value = -p.value;
      }
    } else if (!rng_.chance(0.05)) {
      const std::size_t n = 1 + rng_.below(6);
      for (std::size_t k = 0; k < n; ++k)
        params.push_back({kKeys[rng_.below(kKeys.size())], value(),
                          rng_.chance(0.5)
                              ? -1
                              : static_cast<std::int64_t>(rng_.below(3))});
    }
    if (refile)
      db_.refile_snapshot(carrier, id, rat, channel, pos, SimTime{t},
                          params.size());
    else
      db_.file_snapshot(carrier, id, rat, channel, pos, SimTime{t}, params);
    CellRecord& rec = ref_.upsert_cell(carrier, id);
    if (rec.observations.empty()) {
      rec.cell_id = id;
      rec.rat = rat;
      rec.channel = channel;
      rec.position = pos;
    }
    for (const auto& p : params)
      rec.observations.push_back({p.key, p.value, SimTime{t}, p.context});
    cell.filed = true;
    cell.last = std::move(params);
  }

  Rng rng_;
  ConfigDatabase& db_;
  ConfigDatabase& ref_;
  std::map<std::pair<std::string, std::uint32_t>, Cell> cells_;
};

TEST(DbRepeats, FilingsEqualTheirRowsOnlyOracle) {
  std::size_t repeats = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    ConfigDatabase db, ref;
    Filings(seed, db, ref).run(60);
    repeats += repeat_count(db);
    expect_same_as_rows(db, ref, cat({"seed ", std::to_string(seed)}));
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(repeats, 100u);  // the sweep exercises the repeat path
}

TEST(DbRepeats, MergesEqualTheirRowsOnlyOracle) {
  for (std::uint64_t seed = 100; seed < 120; ++seed) {
    ConfigDatabase a, ref_a, b, ref_b;
    Filings(seed, a, ref_a).run(40);
    Filings(seed + 1000, b, ref_b).run(40);
    a.merge(std::move(b));
    ref_a.merge(std::move(ref_b));
    expect_same_as_rows(a, ref_a, cat({"merge seed ", std::to_string(seed)}));
    // Filing goes on after a merge.
    Filings(seed + 2000, a, ref_a).run(30);
    expect_same_as_rows(a, ref_a,
                        cat({"after merge seed ", std::to_string(seed)}));
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(DbRepeats, ARepeatNeedsEqualBitsAndARisingTime) {
  const config::ParamKey k = kKeys[0];
  ConfigDatabase db;
  const auto file = [&](std::int64_t t, double v) {
    db.file_snapshot("C", 1, spectrum::Rat::kLte, 1, {}, SimTime{t},
                     {{k, v, -1}, {kKeys[1], 1.0, 2}});
  };
  file(10, 0.0);
  file(20, 0.0);   // repeat
  file(30, -0.0);  // == but not the same bits: rows
  file(40, -0.0);  // repeat
  file(40, -0.0);  // same t as the repeat: expands, then rows
  const CellRecord& rec = db.cells_of("C")->at(1);
  EXPECT_TRUE(rec.repeats.empty());
  EXPECT_EQ(rec.row_count(), 10u);
  EXPECT_EQ(rec.observations.size(), 10u);
  file(50, -0.0);  // the last snapshot is the 4 rows at t=40: no repeat
  file(60, -0.0);
  file(70, -0.0);  // repeats of the 2 rows at t=50
  EXPECT_EQ(rec.repeats.size(), 2u);
  EXPECT_EQ(rec.observations.size(), 12u);
  EXPECT_EQ(rec.row_count(), 16u);
  EXPECT_EQ(rec.sample_count(k), 8u);
  EXPECT_EQ(db.total_samples(), 16u);
}

TEST(DbRepeats, RowsOutOfOrderOrBelowMinusOneNeverRepeat) {
  const config::ParamKey k = kKeys[0];
  for (const std::int64_t first : {-5, 100}) {
    ConfigDatabase db;
    const auto file = [&](std::int64_t t) {
      db.file_snapshot("C", 1, spectrum::Rat::kLte, 1, {}, SimTime{t},
                       {{k, 1.0, -1}});
    };
    file(first);
    file(50);  // falls below 100, or rises from -5
    for (std::int64_t t = 200; t < 260; t += 10) file(t);
    const CellRecord& rec = db.cells_of("C")->at(1);
    EXPECT_TRUE(rec.repeats.empty()) << first;
    EXPECT_TRUE(rec.rows_only) << first;
    EXPECT_EQ(rec.observations.size(), 8u) << first;
  }
}

// --- extraction: the memo against a replay that decodes every camp ------------

/// The extractor before its memo, restated: every RRC payload decoded as it
/// arrives, every camp's snapshot filed as rows.
struct Replay {
  ConfigDatabase db;
  ExtractStats stats;
};

Replay reference_extract(const std::string& carrier,
                         const std::vector<std::uint8_t>& log) {
  struct Camp {
    diag::CampEvent ev;
    SimTime t;
    config::CellConfig cfg;
    std::array<std::vector<config::NeighborFreqConfig>, 4> neighbors;
    bool saw_sib3 = false;
    std::optional<config::LegacyCellConfig> legacy;
  };
  Replay out;
  std::optional<Camp> camp;
  const auto flush = [&] {
    if (!camp) return;
    const geo::Point pos{static_cast<double>(camp->ev.x_dm) / 10.0,
                         static_cast<double>(camp->ev.y_dm) / 10.0};
    std::vector<config::ParamObservation> params;
    if (camp->legacy) {
      params = config::extract_parameters(*camp->legacy);
    } else if (camp->saw_sib3) {
      for (const auto& list : camp->neighbors)
        camp->cfg.neighbor_freqs.insert(camp->cfg.neighbor_freqs.end(),
                                        list.begin(), list.end());
      params = config::extract_parameters(camp->cfg);
    } else {
      return;
    }
    out.db.add_snapshot(carrier, camp->ev.cell_identity,
                        static_cast<spectrum::Rat>(camp->ev.rat),
                        camp->ev.channel, pos, camp->t, params);
    ++out.stats.snapshots;
  };
  diag::Parser parser(log);
  diag::Record rec;
  while (parser.next(rec)) {
    ++out.stats.records;
    if (rec.code == diag::LogCode::kServingCellInfo) {
      diag::CampEvent ev;
      if (!diag::decode_camp_event(rec.payload, ev)) {
        ++out.stats.malformed;
        continue;
      }
      flush();
      camp.emplace();
      camp->ev = ev;
      camp->t = rec.timestamp;
      ++out.stats.camps;
    } else if (rec.code == diag::LogCode::kLteRrcOta ||
               rec.code == diag::LogCode::kLegacyRrcOta) {
      auto decoded = rrc::decode(rec.payload);
      if (!decoded) {
        ++out.stats.rrc_errors;
        continue;
      }
      ++out.stats.rrc_messages;
      if (!camp) continue;
      const rrc::Message& msg = decoded.value();
      if (const auto* s1 = std::get_if<rrc::Sib1>(&msg)) {
        if (!camp->saw_sib3) camp->cfg.serving.q_rxlevmin_dbm = s1->q_rxlevmin_dbm;
      } else if (const auto* s3 = std::get_if<rrc::Sib3>(&msg)) {
        camp->cfg.serving = s3->serving;
        camp->cfg.q_offset_equal_db = s3->q_offset_equal_db;
        camp->saw_sib3 = true;
      } else if (const auto* s4 = std::get_if<rrc::Sib4>(&msg)) {
        camp->cfg.forbidden_cells = s4->forbidden_cells;
      } else if (const auto* s5 = std::get_if<rrc::Sib5>(&msg)) {
        camp->neighbors[0] = s5->freqs;
      } else if (const auto* s6 = std::get_if<rrc::Sib6>(&msg)) {
        camp->neighbors[1] = s6->freqs;
      } else if (const auto* s7 = std::get_if<rrc::Sib7>(&msg)) {
        camp->neighbors[2] = s7->freqs;
      } else if (const auto* s8 = std::get_if<rrc::Sib8>(&msg)) {
        camp->neighbors[3] = s8->freqs;
      } else if (const auto* rc =
                     std::get_if<rrc::RrcConnectionReconfiguration>(&msg)) {
        if (!rc->report_configs.empty())
          camp->cfg.report_configs = rc->report_configs;
      } else if (const auto* li = std::get_if<rrc::LegacySystemInfo>(&msg)) {
        camp->legacy = li->config;
      }
    }
  }
  flush();
  out.stats.bytes = log.size();
  out.stats.crc_failures = parser.stats().crc_failures;
  out.stats.malformed += parser.stats().malformed;
  return out;
}

/// The log through StreamParser + StreamExtractor in chunks of random size,
/// with stats aggregated as the ingest service does.
Replay stream_extract(const std::string& carrier,
                      const std::vector<std::uint8_t>& log, Rng& rng) {
  Replay out;
  diag::StreamParser parser;
  StreamExtractor extractor(carrier, out.db);
  diag::Record rec;
  for (std::size_t at = 0; at < log.size();) {
    const std::size_t n = std::min<std::size_t>(
        log.size() - at, 1 + rng.below(rng.chance(0.5) ? 64 : 8192));
    parser.feed(log.data() + at, n);
    at += n;
    while (parser.next(rec)) extractor.on_record(rec);
  }
  parser.finish();
  while (parser.next(rec)) extractor.on_record(rec);
  extractor.finish();
  out.stats = extractor.stats();
  out.stats.bytes = parser.bytes_fed();
  out.stats.crc_failures = parser.stats().crc_failures;
  out.stats.malformed += parser.stats().malformed;
  return out;
}

void expect_extracts_like_replay(const std::string& carrier,
                                 const std::vector<std::uint8_t>& log,
                                 Rng& rng, const std::string& tag) {
  const Replay want = reference_extract(carrier, log);
  ConfigDatabase batch;
  const ExtractStats got = extract_configs(carrier, log, batch);
  EXPECT_EQ(got, want.stats) << tag;
  expect_same_text(rows_text(batch), rows_text(want.db), tag);
  expect_invariant(batch, tag);
  const Replay streamed = stream_extract(carrier, log, rng);
  EXPECT_EQ(streamed.stats, want.stats) << tag << " streamed";
  expect_same_text(rows_text(streamed.db), rows_text(want.db),
                   tag + " streamed");
}

sim::CrawlResult small_crawl() {
  netgen::WorldOptions wopts;
  wopts.seed = 42;
  wopts.scale = 0.01;
  auto world = netgen::generate_world(wopts);
  sim::CrawlOptions copts;
  copts.seed = 5;
  copts.mean_rounds = 5.5;
  return sim::run_crawl(world, copts);
}

TEST(ExtractRepeats, TheCrawlExtractsLikeTheReplayAndHoldsItsRepeats) {
  const auto crawl = small_crawl();
  ConfigDatabase ref;
  ExtractStats want;
  Rng rng(7);
  for (const auto& log : crawl.logs) {
    expect_extracts_like_replay(log.acronym, log.diag_log, rng, log.acronym);
    Replay r = reference_extract(log.acronym, log.diag_log);
    want += r.stats;
    ref.merge(std::move(r.db));
  }
  ConfigDatabase db;
  const auto stats = extract_configs_parallel(crawl.logs, db, 4);
  EXPECT_EQ(stats.totals, want);
  expect_same_as_rows(db, ref, "crawl");
  // Most camps repeat their cell's previous one, so most rows are repeats.
  std::size_t distinct = 0;
  for (const auto& [carrier, cells] : db.carriers())
    for (const auto& [id, rec] : cells) distinct += rec.observations.size();
  EXPECT_LT(distinct * 2, db.total_samples());
}

/// Records of a log, and the log they frame (CRCs computed afresh).
std::vector<diag::Record> records_of(const std::vector<std::uint8_t>& log) {
  diag::Parser parser(log);
  return parser.all();
}
std::vector<std::uint8_t> framed(const std::vector<diag::Record>& records) {
  diag::Writer w;
  for (const auto& r : records) w.append(r);
  return std::move(w).take();
}

/// [begin, end) of each camp group: a camp record and what follows it.
std::vector<std::pair<std::size_t, std::size_t>> camp_groups(
    const std::vector<diag::Record>& records) {
  std::vector<std::pair<std::size_t, std::size_t>> groups;
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (records[i].code != diag::LogCode::kServingCellInfo) continue;
    if (!groups.empty()) groups.back().second = i;
    groups.emplace_back(i, records.size());
  }
  return groups;
}

/// One seeded mutant of a carrier log, and what was done to it.
std::string mutate(Rng& rng, const std::vector<std::uint8_t>& other,
                   std::vector<std::uint8_t>& log) {
  switch (rng.below(7)) {
    case 0: {  // frame bytes: bit flips
      const std::size_t flips = 1 + rng.below(8);
      for (std::size_t k = 0; k < flips && !log.empty(); ++k)
        log[rng.below(log.size())] ^=
            static_cast<std::uint8_t>(1u << rng.below(8));
      return "bit flips";
    }
    case 1:  // frame bytes: truncation
      log.resize(rng.below(log.size() + 1));
      return "truncated";
    case 2: {  // frame bytes: a splice of another log's bytes
      const std::size_t from = rng.below(other.size());
      const std::size_t n = std::min<std::size_t>(1 + rng.below(4096),
                                                  other.size() - from);
      const std::size_t at = rng.below(log.size() + 1);
      log.insert(log.begin() + static_cast<long>(at),
                 other.begin() + static_cast<long>(from),
                 other.begin() + static_cast<long>(from + n));
      return "spliced";
    }
    default:
      break;
  }
  // Record level, reframed: every CRC is right, so the mutation reaches
  // the camp decoder, the RRC decoder and the memo.
  std::vector<diag::Record> records = records_of(log);
  std::string what = "reframed";
  const std::size_t mutations = 1 + rng.below(4);
  for (std::size_t m = 0; m < mutations; ++m) {
    const auto g = camp_groups(records);
    if (g.size() < 2) break;
    switch (rng.below(5)) {
      case 4: {  // a camp with a damaged RRC payload, then that camp again
        const auto [b, e] = g[rng.below(g.size())];
        std::vector<diag::Record> copy(records.begin() + static_cast<long>(b),
                                       records.begin() + static_cast<long>(e));
        for (auto& r : copy)
          if (r.code == diag::LogCode::kLteRrcOta ||
              r.code == diag::LogCode::kLegacyRrcOta) {
            r.payload.resize(r.payload.size() / 2);  // mostly undecodable
            break;
          }
        std::vector<diag::Record> again = copy;
        again.front().timestamp =
            again.front().timestamp + static_cast<Millis>(1 + rng.below(100));
        copy.insert(copy.end(), again.begin(), again.end());
        records.insert(records.begin() + static_cast<long>(e), copy.begin(),
                       copy.end());
        what += " damaged camp repeated";
        break;
      }
      case 0: {  // an RRC payload's bits or length
        std::vector<std::size_t> rrc;
        for (std::size_t i = 0; i < records.size(); ++i)
          if (records[i].code != diag::LogCode::kServingCellInfo &&
              records[i].code != diag::LogCode::kRadioMeasurement)
            rrc.push_back(i);
        if (rrc.empty()) break;
        auto& payload = records[rrc[rng.below(rrc.size())]].payload;
        if (payload.empty() || rng.chance(0.3))
          payload.resize(rng.below(payload.size() + 2));
        else
          payload[rng.below(payload.size())] ^=
              static_cast<std::uint8_t>(1u << rng.below(8));
        what += " rrc payload";
        break;
      }
      case 1: {  // a camp duplicated elsewhere, at its time or a later one
        const auto [b, e] = g[rng.below(g.size())];
        std::vector<diag::Record> copy(records.begin() + static_cast<long>(b),
                                       records.begin() + static_cast<long>(e));
        if (rng.chance(0.5))
          copy.front().timestamp =
              copy.front().timestamp + static_cast<Millis>(rng.below(100));
        const std::size_t at = g[rng.below(g.size())].first;
        records.insert(records.begin() + static_cast<long>(at), copy.begin(),
                       copy.end());
        what += " camp duplicated";
        break;
      }
      case 2: {  // two camps swapped: times out of order
        std::size_t i = rng.below(g.size()), j = rng.below(g.size());
        if (i > j) std::swap(i, j);
        if (i == j) break;
        std::vector<diag::Record> out(records.begin(),
                                      records.begin() + static_cast<long>(g[i].first));
        out.insert(out.end(), records.begin() + static_cast<long>(g[j].first),
                   records.begin() + static_cast<long>(g[j].second));
        out.insert(out.end(), records.begin() + static_cast<long>(g[i].second),
                   records.begin() + static_cast<long>(g[j].first));
        out.insert(out.end(), records.begin() + static_cast<long>(g[i].first),
                   records.begin() + static_cast<long>(g[i].second));
        out.insert(out.end(), records.begin() + static_cast<long>(g[j].second),
                   records.end());
        records = std::move(out);
        what += " camps reordered";
        break;
      }
      default: {  // a camp's time set to a tie, a fall or below -1
        auto& t = records[g[rng.below(g.size())].first].timestamp;
        t = rng.chance(0.5) ? SimTime{-static_cast<Millis>(rng.below(3))}
                            : records[g[rng.below(g.size())].first].timestamp;
        what += " camp time";
        break;
      }
    }
  }
  log = framed(records);
  return what;
}

TEST(ExtractRepeatFuzz, EveryMutantExtractsLikeTheReplay) {
  const auto crawl = small_crawl();
  ASSERT_GE(crawl.logs.size(), 2u);
  Rng rng(0xE47);
  constexpr int kMutants = 120;  // a fixed budget: runs under ASan/UBSan
  for (int m = 0; m < kMutants; ++m) {
    const auto& base = crawl.logs[rng.below(crawl.logs.size())];
    const auto& other = crawl.logs[rng.below(crawl.logs.size())];
    std::vector<std::uint8_t> log = base.diag_log;
    std::string what = mutate(rng, other.diag_log, log);
    if (rng.chance(0.3)) what += cat({",", mutate(rng, other.diag_log, log)});
    expect_extracts_like_replay(base.acronym, log, rng,
                                cat({"mutant ", std::to_string(m), " (",
                                     base.acronym, ":", what, ")"}));
    if (::testing::Test::HasFailure()) return;
  }
}

// --- the store side -------------------------------------------------------------

TEST(StoreLoadRepeats, SingleRunsKeepTheirMarkersAndFoldStatsCountTheSkips) {
  const auto crawl = small_crawl();
  ConfigDatabase db;
  extract_configs_parallel(crawl.logs, db, 2);
  StoreDir dir("fold_stats");
  store::WriterOptions wopts;
  wopts.target_block_bytes = 4096;
  const auto ws = store::save_database(db, dir.path(), wopts);
  ASSERT_GT(ws.repeats.rows, 0u);
  auto set = store::ShardSet::open(dir.path());
  ASSERT_TRUE(set.ok()) << set.error_message();

  // load_database: equal, and every cell (one run each) keeps its repeats.
  ConfigDatabase loaded;
  ASSERT_TRUE(store::load_database(set.value(), loaded, 2).ok());
  EXPECT_TRUE(loaded == db);
  EXPECT_EQ(repeat_count(loaded), ws.repeats.snapshots);
  expect_invariant(loaded, "loaded");

  // Delivered rows plus skipped repeat rows are the selected blocks' rows.
  store::Query one;
  one.carriers = {db.carriers().begin()->first};
  for (const store::Query& q : {store::Query{}, one})
    for (const unsigned threads : {1u, 4u}) {
      store::FoldOptions fopts;
      fopts.threads = threads;
      const store::DirectFold direct(set.value(), fopts);
      const store::QueryPlan plan(set.value(), q);
      std::uint64_t manifest_rows = 0;
      for (const auto& cp : plan.carriers())
        for (const std::size_t b : cp.blocks)
          manifest_rows += set.value().blocks()[b].info->row_count;
      std::vector<std::uint64_t> delivered(plan.carriers().size());
      const auto r = direct.fold_query(
          plan, [&](std::size_t slot, const store::CarrierQueryPlan&) {
            return [&delivered, slot](std::uint32_t, const CellRecord& rec) {
              delivered[slot] += rec.observations.size();
            };
          });
      ASSERT_TRUE(r.ok()) << r.error_message();
      std::uint64_t consumed = 0;
      for (const auto n : delivered) consumed += n;
      EXPECT_GT(r.value().repeat_rows_skipped, 0u);
      EXPECT_EQ(r.value().rows, manifest_rows);
      EXPECT_EQ(consumed + r.value().repeat_rows_skipped, manifest_rows)
          << "threads " << threads << " carriers " << q.carriers.size();
    }
}

}  // namespace
}  // namespace mmlab::core
