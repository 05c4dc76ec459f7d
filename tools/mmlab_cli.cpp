// mmlab_cli — command-line front end for the library.
//
//   mmlab_cli crawl   <out> [scale] [--threads N] [--format csv|mmds2]
//                                      generate a world, crawl it and extract
//                                      in parallel (--threads drives both; the
//                                      dataset is identical either way), save
//                                      the dataset
//   mmlab_cli ingest  <out> [scale] [--devices K] [--chunk-bytes N]
//                     [--threads N] [--format csv|mmds2]
//                                      same world, but replay the crawl as K
//                                      concurrent chunked device uploads
//                                      through the streaming ingest service
//   mmlab_cli report  <in> [carrier] [--threads N]
//                     [--carrier A] [--param NAME]
//                                      dataset summary + LTE diversity report
//                                      of `carrier` (default: the first).  A
//                                      store is answered straight off the
//                                      mapped shards by one fold — no
//                                      database — and the fold's stats are
//                                      printed.  Repeatable --carrier /
//                                      --param flags (stores only) build a
//                                      query: the planner folds only the
//                                      selected carriers' blocks and the
//                                      param predicate drops every other
//                                      parameter's observations at the wire
//                                      (the stats line shows what was
//                                      skipped / not materialized)
//   mmlab_cli verify  <in>
//                                      run the misconfiguration detectors
//   mmlab_cli drive   [carrier-acr]    one instrumented drive; print the
//                                      handoff instances from the diag log
//   mmlab_cli opt     [--budget N] [--threads N] [--strategy random|halving]
//                     [--cities A,B,...] [--seed S] [--scale F]
//                     [--carrier acr]
//                                      closed-loop handover-parameter search:
//                                      tune on the first city, evaluate
//                                      seed-vs-tuned on every listed city
//                                      (the last being the held-out transfer
//                                      target)
//   mmlab_cli generate <out-dir> [scale|countrywide] [--visits N]
//                      [--chunk-rows R]
//                                      stream-generate a world straight into
//                                      a sharded MMDS v2 store (bounded
//                                      memory at any scale)
//   mmlab_cli convert <in> <out> [--format csv|mmds2] [--threads N]
//                                      re-encode a dataset; output format
//                                      from --format (default: CSV -> MMDS
//                                      v2 store, store -> CSV)
//
// --threads also sets the store writer's encode threads
// (store::WriterOptions::threads); the bytes written never depend on it.
//
// Datasets are core/dataset_io.hpp's release CSV or a sharded MMDS v2 store
// directory (store/).  Input is always sniffed (store::is_store: a directory
// holding manifest.mmds2 is a store, anything else is read as CSV), so
// --format names only the output of the commands that write one.
#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "mmlab/core/analysis.hpp"
#include "mmlab/core/dataset_io.hpp"
#include "mmlab/core/extractor.hpp"
#include "mmlab/core/figures.hpp"
#include "mmlab/core/handoff_extract.hpp"
#include "mmlab/core/misconfig.hpp"
#include "mmlab/core/parallel_extract.hpp"
#include "mmlab/core/stability.hpp"
#include "mmlab/ingest/replay.hpp"
#include "mmlab/ingest/service.hpp"
#include "mmlab/netgen/streamgen.hpp"
#include "mmlab/opt/search.hpp"
#include "mmlab/sim/crawl.hpp"
#include "mmlab/sim/fleet.hpp"
#include "mmlab/sim/drive_test.hpp"
#include "mmlab/store/analytics.hpp"
#include "mmlab/store/shard_set.hpp"
#include "mmlab/store/shard_writer.hpp"
#include "mmlab/util/table.hpp"

namespace {

using namespace mmlab;

enum class OutputFormat { kCsv, kMmds2 };

/// Flags shared by the dataset commands, accepted anywhere after the
/// command: --threads N and --format csv|mmds2. Everything else stays
/// positional, except an unknown "--" flag, which is an error.  ok == false
/// means a malformed or unknown flag was already reported.
struct CliOptions {
  unsigned threads = 0;  ///< 0 = hardware concurrency
  unsigned devices = 8;  ///< ingest: device sessions per carrier
  std::size_t chunk_bytes = 4096;  ///< ingest: upload chunk size
  std::optional<OutputFormat> format;  ///< output only; unset = default
  std::vector<std::string> carriers;     ///< report on a store: query filter
  std::vector<config::ParamKey> params;  ///< report on a store: push-down
  std::vector<const char*> positional;
  bool ok = true;
};

/// Reads the value of the numeric flag argv[i] into `out` and steps past it.
/// The value must be a positive decimal integer that fits `T`: a sign, a
/// fraction, trailing characters, zero and overflow are all rejected (and
/// reported), and `out` is left as it was.
template <typename T>
bool parse_count(int argc, char** argv, int& i, T& out) {
  const char* flag = argv[i];
  const char* text = i + 1 < argc ? argv[i + 1] : "";
  errno = 0;
  char* end = nullptr;
  const unsigned long v = std::strtoul(text, &end, 10);
  if (!std::isdigit(static_cast<unsigned char>(*text)) || *end != '\0' ||
      errno == ERANGE || v == 0 ||
      v > static_cast<unsigned long>(std::numeric_limits<T>::max())) {
    std::fprintf(stderr, "error: %s needs a positive integer\n", flag);
    return false;
  }
  out = static_cast<T>(v);
  ++i;
  return true;
}

CliOptions parse_options(int argc, char** argv) {
  CliOptions opts;
  for (int i = 0; i < argc && opts.ok; ++i) {
    if (!std::strcmp(argv[i], "--threads")) {
      opts.ok = parse_count(argc, argv, i, opts.threads);
    } else if (!std::strcmp(argv[i], "--devices")) {
      opts.ok = parse_count(argc, argv, i, opts.devices);
    } else if (!std::strcmp(argv[i], "--chunk-bytes")) {
      opts.ok = parse_count(argc, argv, i, opts.chunk_bytes);
    } else if (!std::strcmp(argv[i], "--format")) {
      if (i + 1 < argc && !std::strcmp(argv[i + 1], "csv"))
        opts.format = OutputFormat::kCsv;
      else if (i + 1 < argc && !std::strcmp(argv[i + 1], "mmds2"))
        opts.format = OutputFormat::kMmds2;
      else {
        std::fprintf(stderr, "error: --format needs 'csv' or 'mmds2'\n");
        opts.ok = false;
        return opts;
      }
      ++i;
    } else if (!std::strcmp(argv[i], "--carrier")) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --carrier needs a carrier name\n");
        opts.ok = false;
        return opts;
      }
      opts.carriers.emplace_back(argv[++i]);
    } else if (!std::strcmp(argv[i], "--param")) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --param needs a parameter name\n");
        opts.ok = false;
        return opts;
      }
      const auto key = config::parse_param_name(argv[++i]);
      if (!key) {
        std::fprintf(stderr, "error: unknown parameter '%s'\n", argv[i]);
        opts.ok = false;
        return opts;
      }
      opts.params.push_back(*key);
    } else if (!std::strncmp(argv[i], "--", 2)) {
      std::fprintf(stderr, "error: unknown flag '%s'\n", argv[i]);
      opts.ok = false;
    } else {
      opts.positional.push_back(argv[i]);
    }
  }
  return opts;
}

/// The store's one-line summary (shards, blocks, rows, payload); `tail`
/// ends the line.
void print_store_summary(const store::ShardSet& set, const char* tail) {
  const auto& m = set.manifest();
  std::uint64_t bytes = 0;
  for (const auto& s : m.shards) bytes += s.file_size;
  std::printf("MMDS v2 store: %zu shards, %zu blocks, %llu rows, %.1f MB%s",
              m.shards.size(), static_cast<std::size_t>(m.total_blocks()),
              static_cast<unsigned long long>(m.total_rows()),
              static_cast<double>(bytes) / 1e6, tail);
}

/// Load a dataset: a store directory through the store (printing its
/// summary line first), anything else as CSV.
Result<core::LoadStats> load_for_cli(const char* path, const CliOptions& opts,
                                     core::ConfigDatabase& db) {
  if (!store::is_store(path)) return core::load_dataset(path, db);
  auto set = store::ShardSet::open(path);
  if (!set.ok()) return Result<core::LoadStats>::error(set.error_message());
  print_store_summary(set.value(), "\n");
  return store::load_database(set.value(), db, opts.threads);
}

void save_for_cli(const core::ConfigDatabase& db, const char* path,
                  OutputFormat format, unsigned threads) {
  if (format == OutputFormat::kMmds2) {
    store::WriterOptions wopts;
    wopts.threads = threads;
    const auto stats = store::save_database(db, path, wopts);
    std::printf("wrote %zu observations from %zu cells to %s "
                "(MMDS v2: %llu shards, %llu blocks)\n",
                db.total_samples(), db.total_cells(), path,
                static_cast<unsigned long long>(stats.shards),
                static_cast<unsigned long long>(stats.blocks));
    return;
  }
  core::save_dataset(db, path);
  std::printf("wrote %zu observations from %zu cells to %s (csv)\n",
              db.total_samples(), db.total_cells(), path);
}

int cmd_crawl(int argc, char** argv) {
  const CliOptions opts = parse_options(argc, argv);
  if (!opts.ok) return 2;
  const unsigned threads = opts.threads;
  const auto& positional = opts.positional;
  if (positional.empty()) {
    std::fprintf(stderr,
                 "usage: mmlab_cli crawl <out> [scale] [--threads N] "
                 "[--format csv|mmds2]\n");
    return 2;
  }
  const char* path = positional[0];
  const double scale = positional.size() > 1 ? std::atof(positional[1]) : 0.1;
  netgen::WorldOptions wopts;
  wopts.seed = 42;
  wopts.scale = scale;
  auto world = netgen::generate_world(wopts);
  std::printf("crawling %zu cells (scale %.2f)...\n",
              world.network.cells().size(), scale);
  sim::CrawlOptions copts;
  copts.threads = threads;
  auto crawl = sim::run_crawl(world, copts);
  core::ConfigDatabase db;
  const auto pstats = core::extract_configs_parallel(crawl.logs, db, threads);
  std::printf("extracted %zu records (%.1f MB) on %u threads: "
              "%.2fs decode + %.2fs merge, %.0f records/s, %.1f MB/s\n",
              pstats.totals.records,
              static_cast<double>(pstats.totals.bytes) / 1e6, pstats.threads,
              pstats.extract_seconds, pstats.merge_seconds,
              pstats.records_per_second(), pstats.bytes_per_second() / 1e6);
  save_for_cli(db, path, opts.format.value_or(OutputFormat::kCsv),
               opts.threads);
  return 0;
}

int cmd_ingest(int argc, char** argv) {
  const CliOptions opts = parse_options(argc, argv);
  if (!opts.ok) return 2;
  if (opts.positional.empty()) {
    std::fprintf(stderr,
                 "usage: mmlab_cli ingest <out> [scale] [--devices K] "
                 "[--chunk-bytes N] [--threads N] [--format csv|mmds2]\n");
    return 2;
  }
  const char* path = opts.positional[0];
  const double scale =
      opts.positional.size() > 1 ? std::atof(opts.positional[1]) : 0.1;
  netgen::WorldOptions wopts;
  wopts.seed = 42;
  wopts.scale = scale;
  auto world = netgen::generate_world(wopts);
  std::printf("crawling %zu cells (scale %.2f)...\n",
              world.network.cells().size(), scale);
  sim::CrawlOptions copts;
  copts.threads = opts.threads;
  auto crawl = sim::run_crawl(world, copts);
  const auto uploads = sim::split_crawl_uploads(crawl.logs, opts.devices);
  std::printf("replaying as %zu device uploads (%u devices/carrier, "
              "%zu-byte chunks)...\n",
              uploads.size(), opts.devices, opts.chunk_bytes);

  ingest::Service::Options sopts;
  sopts.workers = opts.threads;
  ingest::Service service(sopts);
  ingest::ReplayOptions ropts;
  ropts.chunk_bytes = opts.chunk_bytes;
  const auto replay = ingest::replay_uploads(service, uploads, ropts);
  core::ConfigDatabase db = service.drain();
  const ingest::Metrics metrics = service.metrics();
  service.stop();

  ingest::metrics_table(metrics).print();
  const double mb = static_cast<double>(metrics.bytes) / 1e6;
  std::printf("\ningested %.1f MB in %.2fs on %u workers: %.1f MB/s, "
              "%.0f records/s\n",
              mb, replay.seconds, metrics.workers, mb / replay.seconds,
              static_cast<double>(metrics.records) / replay.seconds);
  save_for_cli(db, path, opts.format.value_or(OutputFormat::kCsv),
               opts.threads);
  return 0;
}

/// One carrier of a report: its figures (the per-key totals the diversity
/// table ranks) and its census counts.
struct ReportRow {
  const core::CarrierFigures* figures;
  std::uint64_t cells;
  std::uint64_t samples;
};

/// The census table over every row, then the LTE diversity table of
/// `carrier` (the first row's when null).  Exit code: 1 when `carrier` is
/// not in the report (nothing is printed then), else 0.
int print_report(const std::vector<ReportRow>& rows, const char* carrier) {
  const auto chosen =
      carrier ? std::find_if(rows.begin(), rows.end(),
                             [&](const ReportRow& row) {
                               return row.figures->carrier == carrier;
                             })
              : rows.begin();
  if (chosen == rows.end()) {
    std::fprintf(stderr, "error: carrier '%s' is not in the report\n",
                 carrier);
    return 1;
  }
  TablePrinter table({"Carrier", "Cells", "Samples", "LTE params observed"});
  for (const ReportRow& row : rows) {
    std::size_t lte_params = 0;
    for (const auto& [key, totals] : row.figures->totals)
      lte_params += key.rat == spectrum::Rat::kLte;
    table.add_row({row.figures->carrier, std::to_string(row.cells),
                   std::to_string(row.samples), std::to_string(lte_params)});
  }
  table.print();

  std::printf("\ndiversity report for %s (sorted by Simpson index):\n",
              chosen->figures->carrier.c_str());
  TablePrinter diversity({"Param", "richness", "D", "Cv"});
  for (const auto& d :
       core::rank_diversity(chosen->figures->totals, spectrum::Rat::kLte))
    diversity.add_row({config::param_name(d.key),
                       std::to_string(d.measures.richness),
                       fmt_double(d.measures.simpson, 3),
                       fmt_double(d.measures.cv, 3)});
  diversity.print();
  return 0;
}

/// `report` on a store: one planned fold over the query's carriers
/// (concurrent jobs under the shared window budget when --threads > 1)
/// fills every table.  Nothing is materialized — not even the database —
/// so resident memory is the fold's window plus the per-carrier answers,
/// and the stats line shows exactly that.
int report_store(const CliOptions& opts, const char* carrier) {
  auto set = store::ShardSet::open(opts.positional[0]);
  if (!set.ok()) {
    std::fprintf(stderr, "error: %s\n", set.error_message().c_str());
    return 1;
  }
  print_store_summary(set.value(), " (direct fold, no database)\n\n");

  store::FoldOptions fopts;
  fopts.threads = opts.threads;
  const store::DirectFold direct(set.value(), fopts);
  store::Query query;
  query.carriers = opts.carriers;
  query.params = opts.params;
  const auto qa = store::analyze_query(direct, query);
  if (!qa.ok()) {
    std::fprintf(stderr, "error: %s\n", qa.error_message().c_str());
    return 1;
  }
  if (qa.value().carriers.empty()) {
    std::fprintf(stderr, "error: no carrier matches the query\n");
    return 1;
  }
  std::vector<ReportRow> rows;
  for (const auto& a : qa.value().results)
    rows.push_back({&a, a.stats.cells, a.stats.rows});
  if (const int rc = print_report(rows, carrier)) return rc;

  // Blocks parsed + skipped cover the whole store; bytes-not-materialized
  // is the wire push-down (8 bytes per dropped observation's value).  The
  // window figure bounds the mapped block bytes only; each open block also
  // holds one parsed cell run.
  std::uint64_t max_block = 0;
  for (const auto& ref : set.value().blocks())
    max_block = std::max<std::uint64_t>(max_block, ref.info->length);
  const auto& plan_stats = qa.value().stats;
  std::printf("\nfold stats: %llu blocks parsed (%.1f MB), "
              "%llu blocks skipped by the plan (%.1f MB), "
              "%.1f MB not materialized, %llu repeat rows not expanded, "
              "peak window %llu blocks "
              "(~%.1f MB of mapped block bytes), CRC %s, %.2fs total\n",
              static_cast<unsigned long long>(plan_stats.blocks),
              static_cast<double>(plan_stats.bytes) / 1e6,
              static_cast<unsigned long long>(plan_stats.blocks_skipped),
              static_cast<double>(plan_stats.bytes_skipped) / 1e6,
              static_cast<double>(plan_stats.bytes - plan_stats.bytes_read()) /
                  1e6,
              static_cast<unsigned long long>(plan_stats.repeat_rows_skipped),
              static_cast<unsigned long long>(plan_stats.peak_resident_blocks),
              static_cast<double>(plan_stats.peak_resident_blocks * max_block) /
                  1e6,
              plan_stats.crc_checked ? "checked per block" : "not checked",
              plan_stats.fold_seconds);
  return 0;
}

int cmd_report(int argc, char** argv) {
  const CliOptions opts = parse_options(argc, argv);
  if (!opts.ok) return 2;
  if (opts.positional.empty() || opts.format) {
    std::fprintf(stderr,
                 "usage: mmlab_cli report <in> [carrier] [--threads N] "
                 "[--carrier A] [--param NAME]\n");
    return 2;
  }
  const char* carrier = opts.positional.size() > 1 ? opts.positional[1]
                                                   : nullptr;
  if (store::is_store(opts.positional[0])) return report_store(opts, carrier);
  if (!opts.carriers.empty() || !opts.params.empty()) {
    std::fprintf(stderr, "error: --carrier/--param need an MMDS v2 store\n");
    return 2;
  }

  core::ConfigDatabase db;
  const auto stats = core::load_dataset(opts.positional[0], db);
  if (!stats.ok()) {
    std::fprintf(stderr, "error: %s\n", stats.error_message().c_str());
    return 1;
  }
  std::printf("loaded %zu rows (%zu bad) -> %zu cells, %zu carriers\n\n",
              stats.value().rows, stats.value().bad_rows, db.total_cells(),
              db.carriers().size());
  if (db.carriers().empty()) {
    std::fprintf(stderr, "error: dataset has no carriers\n");
    return 1;
  }
  // One walk over the database (carriers concurrently on --threads workers)
  // serves every table.
  const auto figures = core::analyze_database(db, {}, opts.threads);
  std::vector<ReportRow> rows;
  for (const auto& fig : figures)
    rows.push_back({&fig, db.cell_count(fig.carrier),
                    db.sample_count(fig.carrier)});
  return print_report(rows, carrier);
}

int cmd_verify(int argc, char** argv) {
  const CliOptions opts = parse_options(argc, argv);
  if (!opts.ok) return 2;
  if (opts.positional.empty() || opts.format) {
    std::fprintf(stderr, "usage: mmlab_cli verify <in>\n");
    return 2;
  }
  core::ConfigDatabase db;
  const auto stats = load_for_cli(opts.positional[0], opts, db);
  if (!stats.ok()) {
    std::fprintf(stderr, "error: %s\n", stats.error_message().c_str());
    return 1;
  }
  const auto findings = core::detect_misconfigurations(db);
  std::printf("%zu findings:\n", findings.size());
  for (const auto& [kind, count] : core::summarize(findings))
    std::printf("  %-26s %zu\n", core::finding_kind_name(kind), count);
  std::printf("\nobserved reconfigurations (first 20):\n");
  std::size_t shown = 0;
  for (const auto& [carrier, cells] : db.carriers()) {
    for (const auto& [id, rec] : cells) {
      for (const auto& change : core::describe_changes(rec)) {
        if (shown++ >= 20) break;
        std::printf("  %s cell %u: %s %.1f -> %.1f (day %.0f, %s)\n",
                    carrier.c_str(), id,
                    config::param_name(change.key).c_str(), change.from,
                    change.to, change.changed_at.days(),
                    change.active_state ? "active-state" : "idle-state");
      }
      if (shown >= 20) break;
    }
    if (shown >= 20) break;
  }
  std::printf("\npriority loops (handoff-instability risk):\n");
  for (const auto& [carrier, cells] : db.carriers()) {
    for (const auto& loop : core::detect_priority_loops(db, carrier))
      std::printf("  %s: channels %u <-> %u (%zu + %zu cells disagree)\n",
                  carrier.c_str(), loop.channel_a, loop.channel_b,
                  loop.cells_a, loop.cells_b);
  }
  return findings.empty() ? 0 : 3;
}

int cmd_drive(int argc, char** argv) {
  const std::string acr = argc > 0 ? argv[0] : "A";
  netgen::WorldOptions wopts;
  wopts.seed = 42;
  wopts.scale = 0.1;
  auto world = netgen::generate_world(wopts);
  net::CarrierId carrier = 0;
  for (const auto& c : world.network.carriers())
    if (c.acronym == acr) carrier = c.id;
  Rng rng(5);
  const auto route = mobility::manhattan_drive(
      rng, world.network.cities()[2], mobility::kph(40),
      10 * kMillisPerMinute);
  sim::DriveTestOptions opts;
  opts.carrier = carrier;
  opts.workload = sim::Workload::kSpeedtest;
  const auto result = run_drive_test(world.network, route, opts);
  const auto instances = core::extract_handoffs(result.diag_log);
  std::printf("%s drive: %.1f km, %zu handoff instances (from diag log)\n",
              acr.c_str(), result.route_length_m / 1000.0, instances.size());
  for (const auto& inst : instances)
    std::printf("  %8.1fs  %-3s %u -> %u  (report->exec %lld ms)\n",
                inst.exec_time.seconds(),
                std::string(config::event_name(inst.trigger)).c_str(),
                inst.from_cell, inst.to_cell,
                static_cast<long long>(inst.report_to_exec_ms()));
  const auto pp = core::analyze_pingpong(instances);
  std::printf("ping-pong fraction: %.1f%%\n", 100.0 * pp.pingpong_fraction());
  return 0;
}

int cmd_opt(int argc, char** argv) {
  std::size_t budget = 24;
  unsigned threads = 0;
  std::string strategy_name = "halving";
  std::string acr = "A";
  std::uint64_t seed = 7;
  double scale = 0.1;
  std::vector<geo::CityId> cities = {2, 4};  // tune on 2, hold out 4

  for (int i = 0; i < argc; ++i) {
    auto need_value = [&](const char* flag) {
      if (i + 1 < argc) return true;
      std::fprintf(stderr, "error: %s needs a value\n", flag);
      return false;
    };
    if (!std::strcmp(argv[i], "--budget")) {
      if (!parse_count(argc, argv, i, budget)) return 2;
    } else if (!std::strcmp(argv[i], "--threads")) {
      if (!parse_count(argc, argv, i, threads)) return 2;
    } else if (!std::strcmp(argv[i], "--strategy")) {
      if (!need_value("--strategy")) return 2;
      strategy_name = argv[++i];
    } else if (!std::strcmp(argv[i], "--seed")) {
      if (!need_value("--seed")) return 2;
      seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (!std::strcmp(argv[i], "--scale")) {
      if (!need_value("--scale") || std::atof(argv[i + 1]) <= 0) return 2;
      scale = std::atof(argv[++i]);
    } else if (!std::strcmp(argv[i], "--carrier")) {
      if (!need_value("--carrier")) return 2;
      acr = argv[++i];
    } else if (!std::strcmp(argv[i], "--cities")) {
      if (!need_value("--cities")) return 2;
      cities.clear();
      for (const char* p = argv[++i]; *p;) {
        cities.push_back(static_cast<geo::CityId>(std::strtoul(p, nullptr, 10)));
        while (*p && *p != ',') ++p;
        if (*p == ',') ++p;
      }
      if (cities.empty()) {
        std::fprintf(stderr, "error: --cities needs ids like 2,4\n");
        return 2;
      }
    } else {
      std::fprintf(stderr, "error: unknown opt flag %s\n", argv[i]);
      return 2;
    }
  }

  netgen::WorldOptions wopts;
  wopts.seed = 42;
  wopts.scale = scale;
  auto world = netgen::generate_world(wopts);
  net::CarrierId carrier = 0;
  for (const auto& c : world.network.carriers())
    if (c.acronym == acr) carrier = c.id;

  sim::CampaignOptions campaign;
  campaign.carrier = carrier;
  campaign.workload = sim::Workload::kSpeedtest;
  campaign.city_drives_per_city = 2;
  campaign.highway_drives_per_city = 1;
  campaign.city_drive_duration = 8 * kMillisPerMinute;
  campaign.threads = threads;
  // CRN: one campaign seed for the whole run, derived once from the opt
  // seed, so every trial sees the same routes and noise.
  campaign.seed = Rng(seed).fork(0xCA).next_u64();

  const auto space = opt::ParamSpace::standard();
  std::unique_ptr<opt::Strategy> strategy;
  try {
    strategy = opt::make_strategy(strategy_name);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  opt::OptOptions oopts;
  oopts.seed = seed;
  oopts.budget = budget;

  std::printf("tuning %s on city %u (%zu trials, strategy %s, seed %llu)...\n",
              acr.c_str(), cities.front(), budget, strategy->name(),
              static_cast<unsigned long long>(seed));
  const auto report = opt::run_transfer(world.network, space, *strategy,
                                        campaign, cities.front(), cities,
                                        oopts);

  const auto& tuning = report.tuning;
  std::printf("\nbaseline (seed configs): score %.3f, mean thpt %.2f Mbps, "
              "%zu ping-pongs, %zu RLFs, %zu handoff failures / %.1f km\n",
              tuning.baseline.score,
              tuning.baseline.metrics.mean_throughput_bps / 1e6,
              tuning.baseline.metrics.pingpongs,
              tuning.baseline.metrics.radio_link_failures,
              tuning.baseline.metrics.handoff_failures,
              tuning.baseline.metrics.total_km);
  const auto& best = tuning.best();
  std::printf("best trial #%zu: score %.3f (%+.3f vs baseline)\n  %s\n",
              best.index, best.score, best.score - tuning.baseline.score,
              space.describe(best.params).c_str());

  std::printf("\ntransfer (tuned on city %u):\n", report.tune_city);
  TablePrinter table({"City", "Seed score", "Tuned score", "Delta",
                      "Seed Mbps", "Tuned Mbps", "Seed pp/km", "Tuned pp/km"});
  for (const auto& ce : report.cities) {
    const double km_s =
        ce.seed.metrics.total_km > 0 ? ce.seed.metrics.total_km : 1.0;
    const double km_t =
        ce.tuned.metrics.total_km > 0 ? ce.tuned.metrics.total_km : 1.0;
    table.add_row({(std::to_string(ce.city) +
                    (ce.city == report.tune_city ? " (tuned)" : " (held out)")),
                   fmt_double(ce.seed.score, 3), fmt_double(ce.tuned.score, 3),
                   fmt_double(ce.improvement(), 3),
                   fmt_double(ce.seed.metrics.mean_throughput_bps / 1e6, 2),
                   fmt_double(ce.tuned.metrics.mean_throughput_bps / 1e6, 2),
                   fmt_double(ce.seed.metrics.pingpongs / km_s, 3),
                   fmt_double(ce.tuned.metrics.pingpongs / km_t, 3)});
  }
  table.print();
  return 0;
}

/// netgen::SnapshotSink -> streaming v2 writer glue (netgen cannot depend
/// on store, so the adapter lives with the caller).
class GenerateSink final : public netgen::SnapshotSink {
 public:
  explicit GenerateSink(store::StreamingDatasetSink& sink) : sink_(sink) {}
  void snapshot(const std::string& carrier, net::CellId cell_id,
                spectrum::Rat rat, std::uint32_t channel, geo::Point position,
                SimTime t,
                const std::vector<config::ParamObservation>& params) override {
    sink_.snapshot(carrier, cell_id, rat, channel, position, t, params);
  }

 private:
  store::StreamingDatasetSink& sink_;
};

int cmd_generate(int argc, char** argv) {
  netgen::StreamWorldOptions gopts;
  std::size_t chunk_rows = 4'000'000;
  const char* out = nullptr;
  for (int i = 0; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--visits")) {
      if (!parse_count(argc, argv, i, gopts.visits_per_cell)) return 2;
    } else if (!std::strcmp(argv[i], "--chunk-rows")) {
      if (!parse_count(argc, argv, i, chunk_rows)) return 2;
    } else if (!out) {
      out = argv[i];
    } else if (!std::strcmp(argv[i], "countrywide")) {
      gopts.scale = netgen::kCountrywideScale;
    } else {
      gopts.scale = std::atof(argv[i]);
      if (gopts.scale <= 0.0) {
        std::fprintf(stderr, "error: scale must be positive (or "
                             "'countrywide')\n");
        return 2;
      }
    }
  }
  if (!out) {
    std::fprintf(stderr,
                 "usage: mmlab_cli generate <out-dir> [scale|countrywide] "
                 "[--visits N] [--chunk-rows R]\n");
    return 2;
  }
  std::printf("streaming scale %.2f world (%d visits/cell) into %s...\n",
              gopts.scale, gopts.visits_per_cell, out);
  store::ShardWriter writer(out);
  store::StreamingDatasetSink sink(writer, chunk_rows);
  GenerateSink adapter(sink);
  const auto gstats = netgen::stream_world(gopts, adapter);
  const auto wstats = sink.finish();
  std::printf("wrote %llu rows from %llu cells (%llu snapshots, %llu "
              "reused unchanged) to %s (MMDS v2: %llu shards, %llu blocks, "
              "%.1f MB)\n",
              static_cast<unsigned long long>(wstats.rows),
              static_cast<unsigned long long>(gstats.cells),
              static_cast<unsigned long long>(gstats.snapshots),
              static_cast<unsigned long long>(gstats.reused_visits), out,
              static_cast<unsigned long long>(wstats.shards),
              static_cast<unsigned long long>(wstats.blocks),
              static_cast<double>(wstats.bytes) / 1e6);
  return 0;
}

int cmd_convert(int argc, char** argv) {
  const CliOptions opts = parse_options(argc, argv);
  if (!opts.ok) return 2;
  if (opts.positional.size() < 2) {
    std::fprintf(stderr,
                 "usage: mmlab_cli convert <in> <out> "
                 "[--format csv|mmds2] [--threads N]\n");
    return 2;
  }
  const char* in = opts.positional[0];
  const char* out = opts.positional[1];
  const bool from_store = store::is_store(in);

  core::ConfigDatabase db;
  const auto stats = load_for_cli(in, opts, db);
  if (!stats.ok()) {
    std::fprintf(stderr, "error: %s\n", stats.error_message().c_str());
    return 1;
  }
  std::printf("loaded %zu rows from %s\n", stats.value().rows, in);

  // Default conversion: store -> CSV, CSV -> store.
  const auto out_format = opts.format.value_or(
      from_store ? OutputFormat::kCsv : OutputFormat::kMmds2);
  save_for_cli(db, out, out_format, opts.threads);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: mmlab_cli <crawl|ingest|report|verify|drive|opt|"
                 "generate|convert> [args...]\n");
    return 2;
  }
  const char* cmd = argv[1];
  if (!std::strcmp(cmd, "crawl")) return cmd_crawl(argc - 2, argv + 2);
  if (!std::strcmp(cmd, "ingest")) return cmd_ingest(argc - 2, argv + 2);
  if (!std::strcmp(cmd, "report")) return cmd_report(argc - 2, argv + 2);
  if (!std::strcmp(cmd, "verify")) return cmd_verify(argc - 2, argv + 2);
  if (!std::strcmp(cmd, "drive")) return cmd_drive(argc - 2, argv + 2);
  if (!std::strcmp(cmd, "opt")) return cmd_opt(argc - 2, argv + 2);
  if (!std::strcmp(cmd, "generate")) return cmd_generate(argc - 2, argv + 2);
  if (!std::strcmp(cmd, "convert")) return cmd_convert(argc - 2, argv + 2);
  std::fprintf(stderr, "unknown command: %s\n", cmd);
  return 2;
}
