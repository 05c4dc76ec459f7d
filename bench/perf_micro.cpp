// google-benchmark microbenches for the hot paths: RRC codec, diag framing,
// event evaluation, reselection ranking, the end-to-end extract pipeline,
// CSV dataset I/O at ~1M rows, the fig11–22 analysis mix (in memory and
// straight off an MMDS v2 store) and its per-cell kernels (CellFolder, the
// value tally, the MMDS observation decoder, each beside its oracle), and
// the deterministic parallel simulation engine (crawl + campaign thread
// scaling).
#include <benchmark/benchmark.h>

#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "mmlab/core/analysis.hpp"
#include "mmlab/core/dataset_io.hpp"
#include "mmlab/core/extractor.hpp"
#include "mmlab/core/figures.hpp"
#include "mmlab/core/parallel_extract.hpp"
#include "mmlab/diag/stream_parser.hpp"
#include "mmlab/ingest/replay.hpp"
#include "mmlab/ingest/service.hpp"
#include "mmlab/sim/fleet.hpp"
#include "mmlab/rrc/codec.hpp"
#include "mmlab/ue/event_engine.hpp"
#include "mmlab/ue/reselection.hpp"
#include "mmlab/ue/ue.hpp"
#include "mmlab/netgen/generator.hpp"
#include "mmlab/netgen/profile.hpp"
#include "mmlab/opt/search.hpp"
#include "mmlab/sim/crawl.hpp"
#include "mmlab/sim/drive_test.hpp"
#include "mmlab/stats/diversity.hpp"
#include "mmlab/store/analytics.hpp"
#include "mmlab/store/cell_codec.hpp"
#include "mmlab/store/shard_set.hpp"
#include "mmlab/store/shard_writer.hpp"
#include "mmlab/util/crc.hpp"
#include "mmlab/util/rng.hpp"

#include <filesystem>

namespace {

using namespace mmlab;

rrc::Sib3 sample_sib3() {
  rrc::Sib3 sib3;
  sib3.serving.priority = 3;
  sib3.serving.s_intrasearch_db = 62.0;
  sib3.serving.s_nonintrasearch_db = 8.0;
  return sib3;
}

rrc::RrcConnectionReconfiguration sample_reconf() {
  rrc::RrcConnectionReconfiguration reconf;
  config::EventConfig a2;
  a2.type = config::EventType::kA2;
  a2.threshold1 = -110.0;
  a2.hysteresis_db = 1.0;
  a2.time_to_trigger = 320;
  config::EventConfig a3;
  a3.type = config::EventType::kA3;
  a3.offset_db = 3.0;
  a3.hysteresis_db = 1.0;
  a3.time_to_trigger = 320;
  reconf.report_configs = {a2, a3};
  return reconf;
}

void BM_RrcEncodeSib3(benchmark::State& state) {
  const rrc::Message msg{sample_sib3()};
  for (auto _ : state) benchmark::DoNotOptimize(rrc::encode(msg));
}
BENCHMARK(BM_RrcEncodeSib3);

void BM_RrcDecodeSib3(benchmark::State& state) {
  const auto bytes = rrc::encode(rrc::Message{sample_sib3()});
  for (auto _ : state) benchmark::DoNotOptimize(rrc::decode(bytes));
}
BENCHMARK(BM_RrcDecodeSib3);

void BM_RrcRoundTripReconfiguration(benchmark::State& state) {
  const rrc::Message msg{sample_reconf()};
  for (auto _ : state) {
    const auto bytes = rrc::encode(msg);
    benchmark::DoNotOptimize(rrc::decode(bytes));
  }
}
BENCHMARK(BM_RrcRoundTripReconfiguration);

void BM_DiagWriteParse(benchmark::State& state) {
  const auto payload = rrc::encode(rrc::Message{sample_sib3()});
  for (auto _ : state) {
    diag::Writer writer;
    for (int i = 0; i < 16; ++i)
      writer.append({diag::LogCode::kLteRrcOta, SimTime{i}, payload});
    diag::Parser parser(writer.bytes());
    benchmark::DoNotOptimize(parser.all());
  }
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_DiagWriteParse);

// Framing alone: 256 SIB3 records into a fresh log, through the
// allocation-free append and through its frame-at-a-time oracle.
void diag_writer_bench(benchmark::State& state, bool reference) {
  diag::Record rec{diag::LogCode::kLteRrcOta, SimTime{0},
                   rrc::encode(rrc::Message{sample_sib3()})};
  std::size_t bytes = 0;
  for (auto _ : state) {
    diag::Writer writer;
    for (int i = 0; i < 256; ++i) {
      rec.timestamp = SimTime{86'400'000LL * i};
      if (reference)
        writer.append_reference(rec);
      else
        writer.append(rec.code, rec.timestamp, rec.payload.data(),
                      rec.payload.size());
    }
    bytes = writer.bytes().size();
    benchmark::DoNotOptimize(writer.bytes().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 256);
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes));
}

void BM_DiagWriterAppend(benchmark::State& state) {
  diag_writer_bench(state, false);
}
BENCHMARK(BM_DiagWriterAppend);

void BM_DiagWriterAppendReference(benchmark::State& state) {
  diag_writer_bench(state, true);
}
BENCHMARK(BM_DiagWriterAppendReference);

// Batch Parser vs StreamParser over the same carrier-scale log: the
// incremental state machine should stay within a small factor of the batch
// scan.  range(0) is the feed-chunk size for the streaming side.
void BM_DiagParseBatch(benchmark::State& state) {
  static const auto log = [] {
    auto world = netgen::generate_world({.seed = 1, .scale = 0.01});
    sim::CrawlOptions copts;
    return sim::run_crawl(world, copts).logs.front().diag_log;
  }();
  std::size_t records = 0;
  for (auto _ : state) {
    diag::Parser parser(log);
    diag::Record rec;
    records = 0;
    while (parser.next(rec)) ++records;
    benchmark::DoNotOptimize(records);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(log.size()));
}
BENCHMARK(BM_DiagParseBatch);

void BM_DiagParseStreaming(benchmark::State& state) {
  static const auto log = [] {
    auto world = netgen::generate_world({.seed = 1, .scale = 0.01});
    sim::CrawlOptions copts;
    return sim::run_crawl(world, copts).logs.front().diag_log;
  }();
  const auto chunk = static_cast<std::size_t>(state.range(0));
  std::size_t records = 0;
  for (auto _ : state) {
    diag::StreamParser parser;
    diag::Record rec;
    records = 0;
    for (std::size_t off = 0; off < log.size(); off += chunk) {
      parser.feed(log.data() + off, std::min(chunk, log.size() - off));
      while (parser.next(rec)) ++records;
    }
    parser.finish();
    while (parser.next(rec)) ++records;
    benchmark::DoNotOptimize(records);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(log.size()));
}
BENCHMARK(BM_DiagParseStreaming)->Arg(64)->Arg(4096)->Arg(1 << 20);

void BM_EventMonitorUpdate(benchmark::State& state) {
  config::EventConfig a3;
  a3.type = config::EventType::kA3;
  a3.offset_db = 3.0;
  a3.hysteresis_db = 1.0;
  a3.time_to_trigger = 320;
  ue::EventMonitor monitor(a3);
  const ue::CellMeas serving{1, {spectrum::Rat::kLte, 850}, -100.0, -10.0};
  std::vector<ue::CellMeas> neighbors;
  for (std::uint32_t i = 2; i < 10; ++i)
    neighbors.push_back(
        {i, {spectrum::Rat::kLte, 850}, -104.0 + i * 0.5, -11.0});
  Millis t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(monitor.update(SimTime{t}, serving, neighbors));
    t += 100;
  }
}
BENCHMARK(BM_EventMonitorUpdate);

void BM_ReselectionUpdate(benchmark::State& state) {
  config::CellConfig cfg;
  ue::IdleReselection resel;
  resel.configure(cfg);
  std::vector<ue::RankedCandidate> cands;
  for (std::uint32_t i = 2; i < 12; ++i)
    cands.push_back({i, {spectrum::Rat::kLte, 850}, 4, 10.0 + i});
  Millis t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(resel.update(SimTime{t}, 20.0, cands));
    t += 100;
  }
}
BENCHMARK(BM_ReselectionUpdate);

void BM_CrawlExtractPipeline(benchmark::State& state) {
  // Pre-build one carrier's crawl log (small world), then measure the
  // decode-and-extract rate.
  static const auto log = [] {
    auto world = netgen::generate_world({.seed = 1, .scale = 0.01});
    sim::CrawlOptions copts;
    auto crawl = sim::run_crawl(world, copts);
    return crawl.logs.front().diag_log;
  }();
  for (auto _ : state) {
    core::ConfigDatabase db;
    benchmark::DoNotOptimize(core::extract_configs("A", log, db));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(log.size()));
}
BENCHMARK(BM_CrawlExtractPipeline);

// End-to-end D2-scale extraction (all carriers' crawl logs), serial vs the
// worker-pool pipeline.  Compare bytes/second between the two; the
// acceptance bar is >1.8x at 4 threads.
const std::vector<sim::CarrierLog>& d2_scale_logs() {
  static const auto logs = [] {
    auto world = netgen::generate_world({.seed = 1, .scale = 0.05});
    sim::CrawlOptions copts;
    copts.mean_rounds = 5.5;
    return sim::run_crawl(world, copts).logs;
  }();
  return logs;
}

std::int64_t total_log_bytes(const std::vector<sim::CarrierLog>& logs) {
  std::int64_t n = 0;
  for (const auto& log : logs) n += static_cast<std::int64_t>(log.diag_log.size());
  return n;
}

void BM_ExtractEndToEndSerial(benchmark::State& state) {
  const auto& logs = d2_scale_logs();
  for (auto _ : state) {
    core::ConfigDatabase db;
    for (const auto& log : logs)
      benchmark::DoNotOptimize(core::extract_configs(log.acronym, log.diag_log, db));
    benchmark::DoNotOptimize(db.total_samples());
  }
  state.SetBytesProcessed(state.iterations() * total_log_bytes(logs));
}
BENCHMARK(BM_ExtractEndToEndSerial)->Unit(benchmark::kMillisecond);

// The threaded D2 benches below run one iteration at a tiny
// --benchmark_min_time, and one threaded iteration on a shared machine
// swings several-fold.  They keep the full runs' 0.3 s whatever the flag
// says, so a short run still averages several iterations.
constexpr double kThreadedMinTime = 0.3;

void BM_ExtractEndToEndParallel(benchmark::State& state) {
  const auto& logs = d2_scale_logs();
  const auto threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    core::ConfigDatabase db;
    benchmark::DoNotOptimize(core::extract_configs_parallel(logs, db, threads));
    benchmark::DoNotOptimize(db.total_samples());
  }
  state.SetBytesProcessed(state.iterations() * total_log_bytes(logs));
}
BENCHMARK(BM_ExtractEndToEndParallel)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MinTime(kThreadedMinTime);

// End-to-end streaming ingest at D2 scale: the crawl re-cut into 8 devices
// per carrier, replayed as interleaved 4 KiB chunk uploads through the
// Service, drained to a ConfigDatabase.  Sweep the decode-worker count to
// measure thread scaling (recorded in EXPERIMENTS.md).
void BM_IngestEndToEnd(benchmark::State& state) {
  const auto& logs = d2_scale_logs();
  static const auto uploads = sim::split_crawl_uploads(logs, 8);
  const auto threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    ingest::Service::Options opts;
    opts.workers = threads;
    ingest::Service service(opts);
    ingest::ReplayOptions ropts;
    ropts.chunk_bytes = 4096;
    ingest::replay_uploads(service, uploads, ropts);
    core::ConfigDatabase db = service.drain();
    benchmark::DoNotOptimize(db.total_samples());
    service.stop();
  }
  state.SetBytesProcessed(state.iterations() * total_log_bytes(logs));
}
// Repetitions are set in main(): see kIngestRepetitions.
benchmark::internal::Benchmark* const ingest_end_to_end =
    benchmark::RegisterBenchmark("BM_IngestEndToEnd", BM_IngestEndToEnd)
        ->Arg(1)
        ->Arg(2)
        ->Arg(4)
        ->Arg(8)
        ->Unit(benchmark::kMillisecond)
        ->UseRealTime()
        ->MinTime(kThreadedMinTime);

// Same pipeline, sweeping the fleet size (devices per carrier) at a fixed
// worker count: more devices = more, smaller sessions = more queue/session
// overhead per byte but also more sessions to spread over the workers.
void BM_IngestDeviceScaling(benchmark::State& state) {
  const auto& logs = d2_scale_logs();
  const auto devices = static_cast<unsigned>(state.range(0));
  const auto uploads = sim::split_crawl_uploads(logs, devices);
  for (auto _ : state) {
    ingest::Service::Options opts;
    opts.workers = 4;
    ingest::Service service(opts);
    ingest::ReplayOptions ropts;
    ropts.chunk_bytes = 4096;
    ingest::replay_uploads(service, uploads, ropts);
    core::ConfigDatabase db = service.drain();
    benchmark::DoNotOptimize(db.total_samples());
    service.stop();
  }
  state.SetBytesProcessed(state.iterations() * total_log_bytes(logs));
}
benchmark::internal::Benchmark* const ingest_device_scaling =
    benchmark::RegisterBenchmark("BM_IngestDeviceScaling",
                                 BM_IngestDeviceScaling)
        ->Arg(1)
        ->Arg(4)
        ->Arg(16)
        ->Arg(64)
        ->Unit(benchmark::kMillisecond)
        ->UseRealTime()
        ->MinTime(kThreadedMinTime);

// One ingest replay takes 20-150 ms and drifts with the VM from run to run,
// so neither one 0.3 s run nor one 3 s run resolves a change under ~20 %
// (EXPERIMENTS.md, "Ingest benches that can resolve a change").  A full run
// (no --benchmark_min_time) repeats each ingest bench this many times and
// interleaves every repetition at random with the rest of the run, so
// drift falls on the parent's and the change's repetitions alike; compare
// the median aggregates.  A short run (the CI smoke) keeps one repetition.
constexpr int kIngestRepetitions = 10;

// --- dataset I/O: CSV at ~1M rows -------------------------------------------

// Synthetic D2-shaped database: 4 carriers x 2,500 cells x 100 observations
// = 1M rows, with the real mix of params, timestamps, and contexts.
const core::ConfigDatabase& dataset_db() {
  static const auto db = [] {
    core::ConfigDatabase out;
    const config::ParamId params[] = {
        config::ParamId::kServingPriority, config::ParamId::kQHyst,
        config::ParamId::kA3Offset,        config::ParamId::kA3Ttt,
        config::ParamId::kNeighborPriority};
    for (const char* carrier : {"A", "B", "C", "D"}) {
      for (std::uint32_t cell = 1; cell <= 2'500; ++cell) {
        auto& rec = out.upsert_cell(carrier, cell);
        rec.cell_id = cell;
        rec.rat = spectrum::Rat::kLte;
        rec.channel = 1975 + (cell % 5) * 100;
        rec.position = {cell * 13.7, cell * 7.3};
        rec.observations.reserve(100);
        for (int i = 0; i < 100; ++i) {
          const auto key = config::lte_param(params[i % 5]);
          const double value = (cell % 7) + i * 0.25;
          const std::int64_t context = (i % 5 == 4) ? 2000 + (i % 3) : -1;
          rec.observations.push_back(
              {key, value, SimTime{i * 3'600'000LL + cell}, context});
        }
      }
    }
    return out;
  }();
  return db;
}

const std::string& dataset_csv() {
  static const auto text = [] {
    std::ostringstream out;
    core::save_dataset(dataset_db(), out);
    return out.str();
  }();
  return text;
}

void BM_DatasetSaveCsv(benchmark::State& state) {
  const auto& db = dataset_db();
  for (auto _ : state) {
    std::ostringstream out;
    core::save_dataset(db, out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(db.total_samples()));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(dataset_csv().size()));
}
BENCHMARK(BM_DatasetSaveCsv)->Unit(benchmark::kMillisecond);

void BM_DatasetLoadCsv(benchmark::State& state) {
  for (auto _ : state) {
    std::istringstream in(dataset_csv());
    core::ConfigDatabase db;
    benchmark::DoNotOptimize(core::load_dataset(in, db));
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(dataset_db().total_samples()));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(dataset_csv().size()));
}
BENCHMARK(BM_DatasetLoadCsv)->Unit(benchmark::kMillisecond);

// --- the fig11–22 analysis mix, in memory ----------------------------------
// Same 1M-row database the dataset-I/O benches use.  One pass of each
// analysis the fig11..fig22 binaries print (fig12/13 drive other subsystems
// and fig20/21 need city geometry; both are omitted): the walk over every
// carrier runs inside the timed region, at 1 and 4 carrier workers.

const std::vector<config::ParamKey>& dataset_params() {
  static const std::vector<config::ParamKey> keys = {
      config::lte_param(config::ParamId::kServingPriority),
      config::lte_param(config::ParamId::kQHyst),
      config::lte_param(config::ParamId::kA3Offset),
      config::lte_param(config::ParamId::kA3Ttt),
      config::lte_param(config::ParamId::kNeighborPriority)};
  return keys;
}

std::size_t run_analysis_mix(const core::ConfigDatabase& db, unsigned threads) {
  const auto figures = core::analyze_database(db, {}, threads);
  const core::CarrierFigures& a = figures.front();
  std::size_t sink = 0;
  // fig14: per-parameter distributions on the headline carrier, two panels.
  for (int pass = 0; pass < 2; ++pass)
    for (const auto& key : dataset_params()) sink += a.values(key).total();
  // fig15 + fig17: per-carrier per-parameter comparisons.
  for (const auto& f : figures)
    for (const auto& key : dataset_params()) sink += f.values(key).richness();
  // fig16 + fig19 + fig22: diversity panels (per carrier, with and without
  // the RAT filter).
  for (const auto& f : figures) {
    sink += core::rank_diversity(f.totals, spectrum::Rat::kLte).size();
    sink += f.diversity.size();
  }
  // fig18: frequency-priority split, both candidate modes.
  sink += a.serving_priority.size() + a.candidate_priority.size();
  // fig19: frequency dependence.
  sink += a.dependence.size();
  // fig11: measurement/decision gaps, pooled and per-carrier.
  sink += core::pooled_gaps(figures).intra_minus_nonintra.size();
  sink += a.gaps.intra_minus_nonintra.size();
  return sink;
}

void BM_AnalysisMix(benchmark::State& state) {
  const auto& db = dataset_db();
  const auto threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) benchmark::DoNotOptimize(run_analysis_mix(db, threads));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(db.total_samples()));
}
BENCHMARK(BM_AnalysisMix)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// --- the per-cell kernel: CellFolder's bucket grouping vs its sort oracle ----
// 1,024 merged cell records of `keys` parameters x `visits` visits, each
// visit listing the keys in one fixed extraction order, as a merged store
// cell does.  {46, 8} is the mmbench store_query cell; {5, 2} is a small
// cell, where the kernel's fixed per-cell cost shows.

const std::vector<core::CellRecord>& folder_records(std::size_t keys,
                                                    std::size_t visits) {
  static std::map<std::pair<std::size_t, std::size_t>,
                  std::vector<core::CellRecord>>
      cache;
  auto& records = cache[{keys, visits}];
  if (!records.empty()) return records;
  Rng rng(keys * 1000 + visits);
  std::vector<config::ParamKey> order;
  for (std::size_t k = 0; k < keys; ++k)
    order.push_back({spectrum::kAllRats[k % 3 == 2 ? 1 : 0],
                     static_cast<std::uint16_t>(k * 7 % 64)});
  for (std::size_t k = order.size(); k > 1; --k)
    std::swap(order[k - 1], order[rng.below(k)]);
  records.resize(1024);
  for (auto& rec : records)
    for (std::size_t v = 0; v < visits; ++v)
      for (const auto& key : order)
        rec.observations.push_back(
            {key, static_cast<double>(rng.below(4)),
             SimTime{static_cast<std::int64_t>(v) * 86'400'000},
             rng.chance(0.2) ? static_cast<std::int64_t>(rng.below(3)) : -1});
  return records;
}

template <bool kReference>
void cell_folder_bench(benchmark::State& state) {
  const auto& records =
      folder_records(static_cast<std::size_t>(state.range(0)),
                     static_cast<std::size_t>(state.range(1)));
  core::CellFolder folder;
  std::size_t sink = 0;
  for (auto _ : state) {
    for (const auto& rec : records) {
      if constexpr (kReference)
        folder.fold_reference(rec);
      else
        folder.fold(rec);
      sink += folder.unique_values().size();
    }
  }
  benchmark::DoNotOptimize(sink);
  const std::size_t rows = records.size() * records[0].observations.size();
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(rows));
}

void BM_CellFolderFold(benchmark::State& state) {
  cell_folder_bench<false>(state);
}
BENCHMARK(BM_CellFolderFold)->Args({46, 8})->Args({5, 2})
    ->Unit(benchmark::kMicrosecond);

void BM_CellFolderFoldReference(benchmark::State& state) {
  cell_folder_bench<true>(state);
}
BENCHMARK(BM_CellFolderFoldReference)->Args({46, 8})->Args({5, 2})
    ->Unit(benchmark::kMicrosecond);

// --- value counts: the O(1) tally vs the ordered map ------------------------
// 65,536 adds cycling through `distinct` values in a seeded order, into a
// fresh container per iteration.  At 4,096 distinct values a lookup that is
// not O(1) (a linear scan) falls off a cliff; the map pays O(log n) there.

const std::vector<double>& tally_stream(std::size_t distinct) {
  static std::map<std::size_t, std::vector<double>> cache;
  auto& stream = cache[distinct];
  if (!stream.empty()) return stream;
  Rng rng(distinct);
  std::vector<double> values;
  for (std::size_t i = 0; i < distinct; ++i)
    values.push_back(rng.uniform(-140.0, 20.0));
  for (std::size_t i = 0; i < 65536; ++i)
    stream.push_back(values[rng.below(distinct)]);
  return stream;
}

void BM_ValueTally(benchmark::State& state) {
  const auto& stream = tally_stream(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    stats::ValueTally tally;
    for (const double v : stream) tally.add(v);
    benchmark::DoNotOptimize(tally.richness());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(stream.size()));
}
BENCHMARK(BM_ValueTally)->Arg(1)->Arg(8)->Arg(4096)
    ->Unit(benchmark::kMicrosecond);

void BM_ValueCountsAdd(benchmark::State& state) {
  const auto& stream = tally_stream(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    stats::ValueCounts counts;
    for (const double v : stream) counts.add(v);
    benchmark::DoNotOptimize(counts.richness());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(stream.size()));
}
BENCHMARK(BM_ValueCountsAdd)->Arg(1)->Arg(8)->Arg(4096)
    ->Unit(benchmark::kMicrosecond);

// --- the MMDS observation decoder: pointer kernel vs the per-field oracle ---
// The {46, 8} folder records above, encoded back to back as one block body
// would hold them; each iteration decodes every cell's observations.

struct EncodedCells {
  std::vector<std::uint8_t> bytes;
  std::vector<std::pair<std::size_t, std::uint64_t>> bodies;  ///< pos, n_obs
  std::vector<config::ParamKey> params;
  std::size_t rows = 0;
};

const EncodedCells& encoded_cells() {
  static const EncodedCells cells = [] {
    EncodedCells out;
    store::ParamIndexMap map;
    ByteWriter w;
    const auto& records = folder_records(46, 8);
    for (std::size_t i = 0; i < records.size(); ++i)
      store::encode_cell(w, static_cast<std::uint32_t>(i), records[i], map);
    out.bytes = std::move(w).take();
    ByteReader r(out.bytes);
    while (r.remaining() > 0) {
      (void)r.varint();
      (void)r.u8();
      (void)r.varint();
      (void)r.f64le();
      (void)r.f64le();
      const std::uint64_t n = r.varint();
      out.bodies.emplace_back(r.position(), n);
      out.rows += n;
      std::vector<core::Observation> sink;
      store::CellScan scan;
      store::decode_observations_reference(r, n, map.keys(), {}, sink, scan);
    }
    out.params = map.keys();
    return out;
  }();
  return cells;
}

template <bool kKernel>
void parse_cell_bench(benchmark::State& state) {
  const auto& cells = encoded_cells();
  std::vector<core::Observation> out;
  store::CellScan scan;
  for (auto _ : state) {
    for (const auto& [pos, n] : cells.bodies) {
      ByteReader r(cells.bytes);
      r.skip(pos);
      out.clear();
      if constexpr (kKernel)
        store::decode_observations(r, n, cells.params, {}, out, scan);
      else
        store::decode_observations_reference(r, n, cells.params, {}, out,
                                             scan);
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(cells.rows));
}

void BM_ParseCellKernel(benchmark::State& state) {
  parse_cell_bench<true>(state);
}
BENCHMARK(BM_ParseCellKernel)->Unit(benchmark::kMicrosecond);

void BM_ParseCellReference(benchmark::State& state) {
  parse_cell_bench<false>(state);
}
BENCHMARK(BM_ParseCellReference)->Unit(benchmark::kMicrosecond);

// --- CRC-16: the dispatched update, slice-by-8 and the bytewise oracle -------

void BM_Crc16Bytewise(benchmark::State& state) {
  std::vector<std::uint8_t> buf(64 * 1024);
  for (std::size_t i = 0; i < buf.size(); ++i)
    buf[i] = static_cast<std::uint8_t>(i * 2654435761u >> 13);
  for (auto _ : state)
    benchmark::DoNotOptimize(crc16_ccitt_update_reference(
        kCrc16CcittInit, buf.data(), buf.size()));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(buf.size()));
}
BENCHMARK(BM_Crc16Bytewise);

void BM_Crc16SliceBy8(benchmark::State& state) {
  std::vector<std::uint8_t> buf(64 * 1024);
  for (std::size_t i = 0; i < buf.size(); ++i)
    buf[i] = static_cast<std::uint8_t>(i * 2654435761u >> 13);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        crc16_ccitt_update_slice8(kCrc16CcittInit, buf.data(), buf.size()));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(buf.size()));
}
BENCHMARK(BM_Crc16SliceBy8);

// What every caller gets: the carry-less-multiply kernel from 48 bytes on
// PCLMULQDQ CPUs, slice-by-8 below it and elsewhere.  16 bytes is a short
// diag frame, 64 KiB and 8 MiB are store blocks and shard files.
void BM_Crc16Dispatch(benchmark::State& state) {
  std::vector<std::uint8_t> buf(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < buf.size(); ++i)
    buf[i] = static_cast<std::uint8_t>(i * 2654435761u >> 13);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        crc16_ccitt_update(kCrc16CcittInit, buf.data(), buf.size()));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(buf.size()));
}
BENCHMARK(BM_Crc16Dispatch)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->Arg(4096)
    ->Arg(64 << 10)
    ->Arg(8 << 20);

// --- MMDS v2 sharded store: write, mmap load, direct folds -------------------
// Same 1M-row database.  The store fixture is written once; load and the
// folds re-open it every iteration so the mmap + merge cost is inside the
// timed region (page cache stays warm, as it does for the
// repeated analysis passes the store serves).

const std::string& store_dir() {
  static const std::string dir = [] {
    std::string path =
        (std::filesystem::temp_directory_path() / "mmlab_bench_store")
            .string();
    std::filesystem::remove_all(path);
    store::save_database(dataset_db(), path);
    return path;
  }();
  return dir;
}

// The store writer at 1 (the add_cell loop) and 4 encode threads; the
// bytes are the same either way.
void BM_StoreSaveV2(benchmark::State& state) {
  const auto& db = dataset_db();
  const std::string path =
      (std::filesystem::temp_directory_path() / "mmlab_bench_store_save")
          .string();
  store::WriterOptions wopts;
  wopts.threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    std::filesystem::remove_all(path);
    state.ResumeTiming();
    benchmark::DoNotOptimize(store::save_database(db, path, wopts).bytes);
  }
  std::filesystem::remove_all(path);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(db.total_samples()));
}
BENCHMARK(BM_StoreSaveV2)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_StoreLoadV2(benchmark::State& state) {
  const auto& dir = store_dir();
  const auto threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    auto set = store::ShardSet::open(dir);
    core::ConfigDatabase db;
    benchmark::DoNotOptimize(store::load_database(set.value(), db, threads));
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(dataset_db().total_samples()));
}
BENCHMARK(BM_StoreLoadV2)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Small-block store fixture for the direct folds: tiny rotation targets
// turn the same 1M rows into hundreds of blocks, so the windowed merge and
// the cross-carrier scheduler see many blocks per carrier, not one giant
// block each.
const std::string& small_block_store_dir() {
  static const std::string dir = [] {
    std::string path =
        (std::filesystem::temp_directory_path() / "mmlab_bench_store_small")
            .string();
    std::filesystem::remove_all(path);
    store::WriterOptions wopts;
    wopts.target_block_bytes = 64 * 1024;
    wopts.target_shard_bytes = 4 * 1024 * 1024;
    store::save_database(dataset_db(), path, wopts);
    return path;
  }();
  return dir;
}

// The fig 11-22 mix straight off the mapped shards: one analyze_carrier
// fold per carrier, no database.  Compare against BM_StoreLoadV2 +
// BM_AnalysisMix: the direct path pays the parse every run but holds only
// the parse window resident.
void BM_StoreDirectFold(benchmark::State& state) {
  const auto& dir = small_block_store_dir();
  const auto threads = static_cast<unsigned>(state.range(0));
  const auto cities = netgen::standard_cities();
  for (auto _ : state) {
    auto set = store::ShardSet::open(dir);
    store::FoldOptions fopts;
    fopts.threads = threads;
    fopts.release_mapped = false;  // page cache stays warm across iterations
    const store::DirectFold direct(set.value(), fopts);
    std::uint64_t cells = 0;
    for (const auto& carrier : direct.carriers()) {
      store::MixOptions mopts;
      mopts.cities = cities;
      auto mix = store::analyze_carrier(direct, carrier, mopts);
      cells += mix.value().stats.cells;
    }
    benchmark::DoNotOptimize(cells);
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(dataset_db().total_samples()));
}
BENCHMARK(BM_StoreDirectFold)->Arg(1)->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Planned single-carrier mix over the same many-block fixture: the query
// planner confines the fold to the one selected carrier's blocks — the
// other three carriers' blocks are never mapped or parsed.  Compare against
// BM_StoreDirectFold, which folds all four.
void BM_StoreDirectFoldPlanned(benchmark::State& state) {
  const auto& dir = small_block_store_dir();
  const auto threads = static_cast<unsigned>(state.range(0));
  const auto cities = netgen::standard_cities();
  for (auto _ : state) {
    auto set = store::ShardSet::open(dir);
    store::FoldOptions fopts;
    fopts.threads = threads;
    fopts.release_mapped = false;
    const store::DirectFold direct(set.value(), fopts);
    const std::string& carrier = direct.carriers().front();
    store::Query q;
    q.carriers = {carrier};
    store::MixOptions mopts;
    mopts.cities = cities;
    auto mix = store::analyze_carrier(direct, carrier, mopts, q);
    benchmark::DoNotOptimize(mix.value().stats.cells);
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(dataset_db().total_samples() / 4));
}
BENCHMARK(BM_StoreDirectFoldPlanned)->Arg(1)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// The cross-carrier scheduler driving the whole mix: analyze_query folds
// every carrier — the sequential per-carrier loop at threads=1, concurrent
// pool jobs under the shared window budget at threads=4.
void BM_StoreCrossCarrierFold(benchmark::State& state) {
  const auto& dir = small_block_store_dir();
  const auto threads = static_cast<unsigned>(state.range(0));
  const auto cities = netgen::standard_cities();
  for (auto _ : state) {
    auto set = store::ShardSet::open(dir);
    store::FoldOptions fopts;
    fopts.threads = threads;
    fopts.release_mapped = false;
    const store::DirectFold direct(set.value(), fopts);
    store::MixOptions mopts;
    mopts.cities = cities;
    auto qa = store::analyze_query(direct, store::Query{}, mopts);
    benchmark::DoNotOptimize(qa.value().stats.cells);
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(dataset_db().total_samples()));
}
BENCHMARK(BM_StoreCrossCarrierFold)->Arg(1)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// --- deterministic parallel simulation: crawl + campaign fan-out -------------
// run_crawl applies each cell's scheduled reconfigurations as the crawl
// passes it, mutating the world, so every iteration regenerates the world
// outside the timed region.  Serial vs scaling ratios go in EXPERIMENTS.md
// (§ thread scaling); the results are bit-identical across the sweep, which
// the CrawlParallel/CampaignParallel test suites assert.

void BM_CrawlSerial(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    auto world = netgen::generate_world({.seed = 1, .scale = 0.05});
    state.ResumeTiming();
    sim::CrawlOptions copts;
    copts.mean_rounds = 5.5;
    copts.threads = 1;
    benchmark::DoNotOptimize(sim::run_crawl(world, copts).total_camps);
  }
}
BENCHMARK(BM_CrawlSerial)->Unit(benchmark::kMillisecond);

void BM_CrawlScaling(benchmark::State& state) {
  const auto threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    auto world = netgen::generate_world({.seed = 1, .scale = 0.05});
    state.ResumeTiming();
    sim::CrawlOptions copts;
    copts.mean_rounds = 5.5;
    copts.threads = threads;
    benchmark::DoNotOptimize(sim::run_crawl(world, copts).total_camps);
  }
}
BENCHMARK(BM_CrawlScaling)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// D1 campaign fan-out (run_campaign only reads the network, so one static
// world serves every iteration).  3 cities x (2 city + 2 highway) = 12
// independent drive jobs.
void BM_CampaignScaling(benchmark::State& state) {
  static const auto world = netgen::generate_world({.seed = 3, .scale = 0.05});
  const auto threads = static_cast<unsigned>(state.range(0));
  sim::CampaignOptions opts;
  opts.carrier = world.network.carriers().front().id;
  opts.cities = {0, 2, 4};
  opts.city_drives_per_city = 2;
  opts.highway_drives_per_city = 2;
  opts.city_drive_duration = 2 * kMillisPerMinute;
  opts.threads = threads;
  for (auto _ : state) {
    const auto result = sim::run_campaign(world.network, opts);
    benchmark::DoNotOptimize(result.handoffs.size());
  }
}
BENCHMARK(BM_CampaignScaling)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// One optimizer trial — apply a candidate to every LTE cell of the carrier,
// run a single-city campaign, score it.  This is the inner loop of
// mmlab_cli opt; its cost bounds how much search budget a tuning run can
// afford.  The Evaluator mutates cell configs in place, so the world is
// local and regenerated per benchmark run (not per iteration — restore()
// returns it to seed state after every trial).
void BM_OptEvalThroughput(benchmark::State& state) {
  auto world = netgen::generate_world({.seed = 3, .scale = 0.05});
  sim::CampaignOptions campaign;
  campaign.carrier = world.network.carriers().front().id;
  campaign.cities = {2};
  campaign.city_drives_per_city = 2;
  campaign.highway_drives_per_city = 1;
  campaign.city_drive_duration = 2 * kMillisPerMinute;
  campaign.threads = static_cast<unsigned>(state.range(0));
  const auto space = opt::ParamSpace::standard();
  opt::Evaluator evaluator(world.network, space, campaign, opt::Objective{});
  Rng rng(11);
  std::size_t index = 0;
  for (auto _ : state) {
    const auto trial = evaluator.evaluate(space.sample(rng), index++);
    benchmark::DoNotOptimize(trial.score);
  }
}
BENCHMARK(BM_OptEvalThroughput)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_UeStepDense(benchmark::State& state) {
  static auto world = netgen::generate_world({.seed = 2, .scale = 0.2});
  ue::UeOptions opts;
  opts.carrier = 0;
  opts.active_mode = true;
  ue::Ue device(world.network, opts);
  const auto& city = world.network.cities()[0];
  const geo::Point center{city.origin.x + city.extent_m / 2,
                          city.origin.y + city.extent_m / 2};
  Millis t = 0;
  for (auto _ : state) {
    device.step({center.x + (t % 40'000) * 0.011, center.y}, SimTime{t});
    t += 100;
  }
}
BENCHMARK(BM_UeStepDense);

}  // namespace

int main(int argc, char** argv) {
  bool min_time_given = false, interleave_given = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    min_time_given |= arg.starts_with("--benchmark_min_time");
    interleave_given |=
        arg.starts_with("--benchmark_enable_random_interleaving");
  }
  std::vector<char*> args(argv, argv + argc);
  std::string interleave = "--benchmark_enable_random_interleaving=true";
  if (!min_time_given) {
    for (auto* bench : {ingest_end_to_end, ingest_device_scaling})
      bench->Repetitions(kIngestRepetitions);
    if (!interleave_given) args.push_back(interleave.data());
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
