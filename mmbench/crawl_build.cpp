// crawl_build: the D2 batch job, the sequence `mmlab_cli crawl --format
// mmds2` runs.  A paper-scale world (scale 1.0, mean_rounds 5.5, ~8M rows)
// goes through sim::run_crawl -> core::extract_configs_parallel ->
// store::save_database -> store::ShardSet::open.  World generation is
// set-up: the crawl mutates the world, so every build starts from a fresh
// one and each generation is one set-up sample.
#include <filesystem>
#include <optional>

#include "bench.hpp"
#include "mmlab/core/parallel_extract.hpp"
#include "mmlab/diag/log.hpp"
#include "mmlab/netgen/generator.hpp"
#include "mmlab/rrc/codec.hpp"
#include "mmlab/sim/crawl.hpp"
#include "mmlab/store/shard_set.hpp"
#include "mmlab/store/shard_writer.hpp"

namespace mmbench {
namespace {

using namespace mmlab;

struct BuildOutput {
  double setup_s = 0.0;
  double build_s = 0.0;
  double crawl_s = 0.0;
  double write_s = 0.0;
  double open_s = 0.0;
  std::size_t camps = 0;
  std::uint64_t rows = 0;
  std::uint64_t bytes = 0;
  std::uint64_t blocks = 0;
  core::ParallelExtractStats extract;
  std::vector<sim::CarrierLog> logs;  ///< kept only when asked for
  bool ok = true;
};

class CrawlBuild {
 public:
  CrawlBuild(const Args& args, Tracer& tracer)
      : tracer_(tracer), dir_(args.work_dir + "/crawl_build.mmds2") {
    wopts_.seed = 42;  // the CLI's world; the seed drives the crawl
    wopts_.scale = 1.0;
    copts_.seed = args.seed;
    copts_.mean_rounds = 5.5;
  }

  /// One build at `threads`; the world is generated first (set-up).
  BuildOutput run(unsigned threads, bool keep_logs) {
    BuildOutput out;
    std::filesystem::remove_all(dir_);
    std::optional<netgen::GeneratedWorld> world;
    out.setup_s = time_call([&] {
      ScopedSpan span(tracer_, "netgen.generate_world");
      world.emplace(netgen::generate_world(wopts_));
    });

    ScopedSpan build_span(tracer_, "bench.build");
    const auto t0 = Clock::now();
    sim::CrawlOptions copts = copts_;
    copts.threads = threads;
    sim::CrawlResult crawl;
    out.crawl_s = time_call([&] {
      crawl = traced(tracer_, "sim.run_crawl",
                     [&] { return sim::run_crawl(*world, copts); });
    });
    core::ConfigDatabase db;
    out.extract = traced(tracer_, "core.extract_configs_parallel", [&] {
      return core::extract_configs_parallel(crawl.logs, db, threads);
    });
    store::WriteStats ws;
    out.write_s = time_call([&] {
      ws = traced(tracer_, "store.save_database",
                  [&] { return store::save_database(db, dir_); });
    });
    std::optional<Result<store::ShardSet>> set;
    out.open_s = time_call([&] {
      set.emplace(traced(tracer_, "store.ShardSet.open",
                         [&] { return store::ShardSet::open(dir_); }));
    });
    out.build_s = seconds_since(t0);
    flush_writes();

    out.camps = crawl.total_camps;
    out.rows = ws.rows;
    out.bytes = ws.bytes;
    out.blocks = ws.blocks;
    out.ok &= check(set->ok(), "store opens: " + set->error_message());
    out.ok &= check(set->ok() && set->value().total_rows() == db.total_samples(),
                    "extracted rows == manifest rows");
    out.ok &= check(ws.rows == db.total_samples(), "written rows == db rows");
    out.ok &= check(db.total_samples() > 0, "build produced rows");
    if (keep_logs) out.logs = std::move(crawl.logs);
    return out;
  }

 private:
  Tracer& tracer_;
  std::string dir_;
  netgen::WorldOptions wopts_;
  sim::CrawlOptions copts_;
};

/// Repeated builds of one world must agree exactly.
bool same_output(const BuildOutput& a, const BuildOutput& b) {
  return a.camps == b.camps && a.rows == b.rows && a.bytes == b.bytes &&
         a.blocks == b.blocks && a.extract.totals == b.extract.totals;
}

/// The decode stages of extraction, replayed alone over the crawl logs on
/// one thread: diag framing only, then RRC decoding of the OTA payloads.
void decompose(const std::vector<sim::CarrierLog>& logs, Tracer& tracer,
               Report& report) {
  double parse_s = 0.0, decode_s = 0.0;
  std::uint64_t frames = 0, messages = 0;
  for (const auto& log : logs) {
    std::vector<diag::Record> records;
    parse_s += time_call([&] {
      ScopedSpan span(tracer, "diag.Parser");
      diag::Parser parser(log.diag_log);
      diag::Record rec;
      while (parser.next(rec)) {
        ++frames;
        if (rec.code == diag::LogCode::kLteRrcOta ||
            rec.code == diag::LogCode::kLegacyRrcOta)
          records.push_back(std::move(rec));
      }
    });
    decode_s += time_call([&] {
      ScopedSpan span(tracer, "rrc.decode");
      for (const auto& rec : records)
        if (rrc::decode(rec.payload).ok()) ++messages;
    });
  }
  report.layer["diag.parse_s"] = parse_s;
  report.layer["diag.frames"] = static_cast<double>(frames);
  report.layer["rrc.decode_s"] = decode_s;
  report.layer["rrc.messages"] = static_cast<double>(messages);
}

}  // namespace

Report run_crawl_build(const Args& args, Tracer& tracer) {
  Report report;
  CrawlBuild job(args, tracer);
  std::optional<BuildOutput> first;
  auto account = [&](const BuildOutput& out) {
    bool ok = out.ok;
    if (!first) first = out;
    ok &= check(same_output(out, *first), "repeated build is bit-identical");
    report.operation(ok);
  };

  // One warm-up build (first-touch page faults, fresh store files) that
  // no timing includes.
  tracer.set_run(0);
  account(job.run(kThreads, false));

  if (!args.trace) {
    Samples setup, build;
    const auto deadline = deadline_after(args.seconds);
    do {
      BuildOutput out = job.run(kThreads, false);
      setup.add(out.setup_s);
      build.add(out.build_s);
      account(out);
    } while (Clock::now() < deadline);
    report.e2e["setup_s"] = setup.median();
    report.e2e["peak_rss_mb"] = peak_rss_mb();
    report.e2e["wall_ms"] = build.median() * 1e3;
    report.name("setup_s", setup.median(), "s");
    report.name("peak_rss_mb", peak_rss_mb(), "MB");
    report.name("build_s", build.median(), "s");
    report.name("store_bytes_per_row",
                static_cast<double>(first->bytes) /
                    static_cast<double>(first->rows),
                "B/row");
    report.name("builds", static_cast<double>(build.size()), "count");
    return report;
  }

  // Traced run: untraced builds for half the budget, then as many traced
  // ones (the difference is the tracing overhead), then the decomposition
  // and the threads=1 pass, each under its own run id.
  tracer.set_run(1);
  tracer.set_enabled(false);
  Samples plain;
  const auto deadline = deadline_after(args.seconds / 2);
  do {
    const BuildOutput out = job.run(kThreads, false);
    plain.add(out.build_s);
    account(out);
  } while (Clock::now() < deadline);
  tracer.set_enabled(true);
  tracer.set_run(2);
  Samples traced_builds, crawl_s, extract_s, merge_s, write_s, open_s;
  BuildOutput traced_out;
  for (std::size_t i = 0; i < plain.size(); ++i) {
    traced_out = job.run(kThreads, i + 1 == plain.size());
    traced_builds.add(traced_out.build_s);
    crawl_s.add(traced_out.crawl_s);
    extract_s.add(traced_out.extract.extract_seconds);
    merge_s.add(traced_out.extract.merge_seconds);
    write_s.add(traced_out.write_s);
    open_s.add(traced_out.open_s);
    account(traced_out);
  }
  const auto builds = static_cast<double>(plain.size());
  const auto self = tracer.layer_self_seconds(2);
  for (const char* layer : {"netgen", "sim", "core", "store"})
    report.layer[std::string(layer) + ".self_s"] = self.at(layer) / builds;
  report.layer["sim.crawl_s"] = crawl_s.median();
  report.layer["sim.camps"] = static_cast<double>(traced_out.camps);
  report.layer["core.extract_s"] = extract_s.median();
  report.layer["core.merge_s"] = merge_s.median();
  report.layer["store.write_s"] = write_s.median();
  report.layer["store.blocks"] = static_cast<double>(traced_out.blocks);
  report.layer["store.open_s"] = open_s.median();
  report.layer["trace.overhead_s"] = traced_builds.sum() - plain.sum();
  report.layer["trace.overhead_ratio"] =
      (traced_builds.sum() - plain.sum()) / plain.sum();

  tracer.set_run(3);
  decompose(traced_out.logs, tracer, report);
  traced_out.logs.clear();
  const auto decode_self = tracer.layer_self_seconds(3);
  for (const char* layer : {"diag", "rrc"})
    report.layer[std::string(layer) + ".self_s"] = decode_self.at(layer);

  tracer.set_run(4);
  const BuildOutput serial = job.run(1, false);
  account(serial);
  const double extract1 = serial.extract.wall_seconds();
  report.layer["core.extract_self_s"] = extract1 -
                                        report.layer["diag.parse_s"] -
                                        report.layer["rrc.decode_s"];
  report.layer["sim.crawl.speedup_4v1"] = serial.crawl_s / crawl_s.median();
  report.layer["core.extract.speedup_4v1"] =
      extract1 / (extract_s.median() + merge_s.median());

  return report;
}

}  // namespace mmbench
