// Out-of-core store soak harness (MMDS v2).
//
//   store_soak [--scale X] [--visits N] [--chunk-rows R] [--threads T]
//              [--block-mb B] [--shard-mb S] [--dir PATH]
//              [--mem-ceiling-mb M] [--equality-scale Y] [--skip-equality]
//              [--skip-soak] [--seed S] [--keep]
//
// Two phases, exit code 1 on any violation:
//
//   1. Equality (D2 scale by default): stream-generate a world straight
//      into an MMDS v2 store, then check that both cell sources of the
//      fig 11-22 products — the in-memory walk (core::analyze_database over
//      load_database(store)) and the shard-direct fold (store::analyze_query)
//      — are bit-identical to the reference ConfigDatabase scans over
//      load_database(store), for thread counts 1, 2, 4 and hw.  The store
//      must first pass ShardSet::verify() (every shard's whole-file CRC).
//   2. Soak (countrywide scale by default, ~320k cells / 100M+ rows):
//      stream-generate into v2, then answer the mix straight off the mapped
//      shards (one fold per carrier with per-block CRC checking mid-fold —
//      no separate verify pass, no database), gating peak RSS (Linux
//      VmHWM) under the ceiling (default 2 GB; the direct path fits a much
//      tighter one, e.g. --mem-ceiling-mb 300 countrywide).
//
// CI runs a reduced configuration (see .github/workflows/ci.yml); the full
// countrywide soak is the acceptance run for ROADMAP's out-of-core item.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "mmlab/core/analysis.hpp"
#include "mmlab/core/database.hpp"
#include "mmlab/core/figures.hpp"
#include "mmlab/netgen/profile.hpp"
#include "mmlab/netgen/streamgen.hpp"
#include "mmlab/store/analytics.hpp"
#include "mmlab/store/shard_set.hpp"
#include "mmlab/store/shard_writer.hpp"

namespace {

using namespace mmlab;

struct SoakOptions {
  double scale = netgen::kCountrywideScale;
  int visits = 8;  ///< ~114M rows at countrywide scale
  std::size_t chunk_rows = 4'000'000;
  unsigned threads = 0;  ///< 0 = hardware_concurrency
  std::size_t block_mb = 8;
  std::size_t shard_mb = 64;
  std::string dir = "store_soak_data";
  std::size_t mem_ceiling_mb = 2048;
  double equality_scale = 1.0;  ///< D2 scale
  bool run_equality = true;
  bool run_soak = true;
  std::uint64_t seed = 42;
  bool keep = false;
};

/// Linux VmRSS / VmHWM in bytes; 0 where /proc is unavailable.
std::size_t proc_status_bytes(const char* key) {
#ifdef __linux__
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return 0;
  char line[256];
  std::size_t kb = 0;
  const std::size_t key_len = std::strlen(key);
  while (std::fgets(line, sizeof line, f)) {
    if (!std::strncmp(line, key, key_len) && line[key_len] == ':') {
      std::sscanf(line + key_len + 1, "%zu", &kb);
      break;
    }
  }
  std::fclose(f);
  return kb * 1024;
#else
  (void)key;
  return 0;
#endif
}

std::size_t current_rss_bytes() { return proc_status_bytes("VmRSS"); }
std::size_t peak_rss_bytes() { return proc_status_bytes("VmHWM"); }

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool parse_args(int argc, char** argv, SoakOptions& opts) {
  for (int i = 1; i < argc; ++i) {
    auto want_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "store_soak: %s needs a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    const char* arg = argv[i];
    const char* v = nullptr;
    if (!std::strcmp(arg, "--scale")) {
      if (!(v = want_value(arg))) return false;
      opts.scale = std::atof(v);
    } else if (!std::strcmp(arg, "--visits")) {
      if (!(v = want_value(arg))) return false;
      opts.visits = std::atoi(v);
    } else if (!std::strcmp(arg, "--chunk-rows")) {
      if (!(v = want_value(arg))) return false;
      opts.chunk_rows = std::strtoull(v, nullptr, 10);
    } else if (!std::strcmp(arg, "--threads")) {
      if (!(v = want_value(arg))) return false;
      opts.threads = static_cast<unsigned>(std::strtoul(v, nullptr, 10));
    } else if (!std::strcmp(arg, "--block-mb")) {
      if (!(v = want_value(arg))) return false;
      opts.block_mb = std::strtoull(v, nullptr, 10);
    } else if (!std::strcmp(arg, "--shard-mb")) {
      if (!(v = want_value(arg))) return false;
      opts.shard_mb = std::strtoull(v, nullptr, 10);
    } else if (!std::strcmp(arg, "--dir")) {
      if (!(v = want_value(arg))) return false;
      opts.dir = v;
    } else if (!std::strcmp(arg, "--mem-ceiling-mb")) {
      if (!(v = want_value(arg))) return false;
      opts.mem_ceiling_mb = std::strtoull(v, nullptr, 10);
    } else if (!std::strcmp(arg, "--equality-scale")) {
      if (!(v = want_value(arg))) return false;
      opts.equality_scale = std::atof(v);
    } else if (!std::strcmp(arg, "--skip-equality")) {
      opts.run_equality = false;
    } else if (!std::strcmp(arg, "--skip-soak")) {
      opts.run_soak = false;
    } else if (!std::strcmp(arg, "--seed")) {
      if (!(v = want_value(arg))) return false;
      opts.seed = std::strtoull(v, nullptr, 10);
    } else if (!std::strcmp(arg, "--keep")) {
      opts.keep = true;
    } else {
      std::fprintf(stderr, "store_soak: unknown flag %s\n", arg);
      return false;
    }
  }
  if (opts.scale <= 0.0 || opts.visits <= 0 || opts.chunk_rows == 0 ||
      opts.block_mb == 0 || opts.shard_mb == 0) {
    std::fprintf(stderr, "store_soak: scale/visits/chunk-rows/block-mb/"
                         "shard-mb must be > 0\n");
    return false;
  }
  return true;
}

/// netgen::SnapshotSink -> store::StreamingDatasetSink adapter (netgen
/// cannot depend on store, so the glue lives with the caller).
class StoreSink final : public netgen::SnapshotSink {
 public:
  explicit StoreSink(store::StreamingDatasetSink& sink) : sink_(sink) {}
  void snapshot(const std::string& carrier, net::CellId cell_id,
                spectrum::Rat rat, std::uint32_t channel, geo::Point position,
                SimTime t,
                const std::vector<config::ParamObservation>& params) override {
    sink_.snapshot(carrier, cell_id, rat, channel, position, t, params);
  }

 private:
  store::StreamingDatasetSink& sink_;
};

/// Stream-generate a world directly into an MMDS v2 store directory.
store::WriteStats generate_store(const SoakOptions& opts, double scale,
                                 const std::string& dir,
                                 netgen::StreamStats* gen_stats) {
  store::WriterOptions wopts;
  wopts.target_block_bytes = opts.block_mb << 20;
  wopts.target_shard_bytes = opts.shard_mb << 20;
  wopts.threads = opts.threads;
  store::ShardWriter writer(dir, wopts);
  store::StreamingDatasetSink sink(writer, opts.chunk_rows);
  StoreSink adapter(sink);

  netgen::StreamWorldOptions gopts;
  gopts.seed = opts.seed;
  gopts.scale = scale;
  gopts.visits_per_cell = opts.visits;
  const auto stats = netgen::stream_world(gopts, adapter);
  if (gen_stats) *gen_stats = stats;
  return sink.finish();
}

// --- exact-equality helpers --------------------------------------------------
// The contract is BIT-identity, so doubles compare by representation: NaN
// equals NaN (coefficient-of-variation is NaN for zero-mean parameters on
// both sides) while 0.0 != -0.0 would still be caught.

bool eq(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}
bool eq(const core::ParamDiversity& a, const core::ParamDiversity& b) {
  return a.key == b.key && eq(a.measures.simpson, b.measures.simpson) &&
         eq(a.measures.cv, b.measures.cv) &&
         a.measures.richness == b.measures.richness && a.cells == b.cells;
}
bool eq(const core::ParamDependence& a, const core::ParamDependence& b) {
  return a.key == b.key && eq(a.zeta_simpson, b.zeta_simpson) &&
         eq(a.zeta_cv, b.zeta_cv);
}
template <typename T>
bool eq(const std::vector<T>& a, const std::vector<T>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!eq(a[i], b[i])) return false;
  return true;
}
bool eq(const core::MeasurementGaps& a, const core::MeasurementGaps& b) {
  return eq(a.intra_minus_nonintra, b.intra_minus_nonintra) &&
         eq(a.intra_minus_slow, b.intra_minus_slow) &&
         eq(a.nonintra_minus_slow, b.nonintra_minus_slow);
}

/// The mix every phase runs: the Fig 20 city join over the standard
/// cities and one Fig 21 spatial query (the priciest product).
core::MixOptions mix_options() {
  core::MixOptions mopts;
  mopts.cities = netgen::standard_cities();
  mopts.spatial = core::SpatialQuery{
      config::lte_param(config::ParamId::kServingPriority),
      mopts.cities.front(), 2'000.0};
  return mopts;
}

/// One carrier's products from the reference ConfigDatabase scans.
core::CarrierFigures oracle_figures(const core::ConfigDatabase& db,
                                    const std::string& name,
                                    const core::MixOptions& mopts) {
  core::CarrierFigures f;
  f.carrier = name;
  f.diversity = core::diversity_by_param(db, name);
  f.dependence = core::frequency_dependence(db, name);
  f.serving_priority = core::priority_by_channel(db, name, false);
  f.candidate_priority = core::priority_by_channel(db, name, true);
  f.multi_priority_fraction = core::multi_priority_cell_fraction(db, name);
  f.priority_by_city = core::priority_by_city(db, name, mopts.cities);
  f.spatial_diversity =
      core::spatial_diversity(db, name, mopts.spatial->key,
                              mopts.spatial->city, mopts.spatial->radius_m);
  f.gaps = core::measurement_decision_gaps(db, name);
  return f;
}

/// Every product of `got` must equal the reference bit-for-bit.  Returns
/// the number of mismatching products.
int compare(const core::CarrierFigures& got, const core::CarrierFigures& want,
            const char* tag) {
  int mismatches = 0;
  auto check = [&](bool same, const char* what) {
    if (!same) {
      std::fprintf(stderr, "FAIL: [%s] %s %s differs from the reference\n",
                   tag, want.carrier.c_str(), what);
      ++mismatches;
    }
  };
  check(got.carrier == want.carrier, "carrier name");
  check(eq(got.diversity, want.diversity), "diversity_by_param");
  check(eq(got.dependence, want.dependence), "frequency_dependence");
  check(got.serving_priority == want.serving_priority,
        "priority_by_channel(serving)");
  check(got.candidate_priority == want.candidate_priority,
        "priority_by_channel(candidate)");
  check(eq(got.multi_priority_fraction, want.multi_priority_fraction),
        "multi_priority_cell_fraction");
  check(got.priority_by_city == want.priority_by_city, "priority_by_city");
  check(eq(got.spatial_diversity, want.spatial_diversity), "spatial_diversity");
  check(eq(got.gaps, want.gaps), "measurement_decision_gaps");
  return mismatches;
}

template <typename Figures>
int compare_all(const std::vector<Figures>& got,
                const std::vector<core::CarrierFigures>& want,
                const char* tag) {
  if (got.size() != want.size()) {
    std::fprintf(stderr, "FAIL: [%s] %zu carriers, reference has %zu\n", tag,
                 got.size(), want.size());
    return 1;
  }
  int mismatches = 0;
  for (std::size_t i = 0; i < got.size(); ++i)
    mismatches += compare(got[i], want[i], tag);
  return mismatches;
}

/// Run the fig 11-22 mix straight off the shards through the cross-carrier
/// scheduler (store::analyze_query: one fold per carrier, concurrent jobs
/// under the shared window budget when the engine has threads > 1); when
/// `reference` is non-null every product must equal it bit-for-bit.
/// Returns mismatches + fold failures.
int run_direct_mix(const store::DirectFold& direct,
                   const std::vector<core::CarrierFigures>* reference,
                   const char* tag, store::FoldStats* total = nullptr) {
  const auto mopts = mix_options();
  auto qa_r = store::analyze_query(direct, store::Query{}, mopts);
  if (!qa_r.ok()) {
    std::fprintf(stderr, "FAIL: [%s] analyze_query: %s\n", tag,
                 qa_r.error_message().c_str());
    return 1;
  }
  const auto& qa = qa_r.value();
  if (total) {
    total->rows += qa.stats.rows;
    total->cells += qa.stats.cells;
    total->blocks += qa.stats.blocks;
    total->bytes += qa.stats.bytes;
    total->peak_resident_blocks =
        std::max(total->peak_resident_blocks, qa.stats.peak_resident_blocks);
    total->fold_seconds += qa.stats.fold_seconds;
  }
  return reference ? compare_all(qa.results, *reference, tag) : 0;
}

/// Planned-fold spot checks against the reference scans: a full
/// single-carrier selection must answer exactly like the whole-store mix,
/// and a ParamKey push-down must answer ConfigDatabase::values() while
/// decoding strictly fewer bytes than it parsed.  (The exhaustive predicate
/// x threads x window property lives in tests/test_query_plan.cpp; this
/// keeps the same invariant gated at soak scales.)
int run_planned_checks(const store::DirectFold& direct,
                       const core::ConfigDatabase& db,
                       const core::CarrierFigures& reference,
                       const char* tag) {
  int mismatches = 0;
  auto check = [&](bool same, const std::string& what) {
    if (!same) {
      std::fprintf(stderr, "FAIL: [%s] %s\n", tag, what.c_str());
      ++mismatches;
    }
  };
  const std::string& name = reference.carrier;
  const auto key = config::lte_param(config::ParamId::kServingPriority);

  store::Query q_carrier;
  q_carrier.carriers = {name};
  auto planned = store::analyze_carrier(direct, name, mix_options(), q_carrier);
  if (!planned.ok()) {
    std::fprintf(stderr, "FAIL: [%s] planned analyze_carrier(%s): %s\n", tag,
                 name.c_str(), planned.error_message().c_str());
    return 1;
  }
  mismatches += compare(planned.value(), reference, tag);

  // ParamKey push-down: same counts as the reference, strictly fewer bytes
  // decoded than parsed (the store carries more than one parameter).  The
  // per-call stats surface through the engine's cumulative counter, so diff
  // it around the call.
  const auto before = direct.stats();
  auto narrowed = direct.values(name, key);
  const auto after = direct.stats();
  if (!narrowed.ok()) {
    std::fprintf(stderr, "FAIL: [%s] planned values(%s): %s\n", tag,
                 name.c_str(), narrowed.error_message().c_str());
    return mismatches + 1;
  }
  check(narrowed.value() == db.values(name, key),
        name + " planned values() != reference values()");
  check(after.values_skipped > before.values_skipped,
        name + " planned values(): push-down materialized every "
               "observation (expected dropped ones)");
  return mismatches;
}

/// The writer's repeat markers: one per repeat snapshot, standing for the
/// rows it repeats (counted in the store's rows).
void print_repeats(const char* phase, const store::WriteStats& ws) {
  std::printf("%s: %llu repeat snapshots written as %llu markers (%llu rows, "
              "%.1f%% of rows); store %.1f MB\n",
              phase, static_cast<unsigned long long>(ws.repeats.snapshots),
              static_cast<unsigned long long>(ws.repeats.snapshots),
              static_cast<unsigned long long>(ws.repeats.rows),
              ws.rows ? 100.0 * static_cast<double>(ws.repeats.rows) /
                            static_cast<double>(ws.rows)
                      : 0.0,
              static_cast<double>(ws.bytes) / 1e6);
}

int run_equality_phase(const SoakOptions& opts, unsigned hw) {
  const std::string dir = opts.dir + "/equality";
  std::printf("equality: streaming D2-scale world (scale %.2f) into %s\n",
              opts.equality_scale, dir.c_str());
  const auto wstats = generate_store(opts, opts.equality_scale, dir, nullptr);
  std::printf("equality: wrote %llu rows, %llu blocks, %llu shards "
              "(%.1f MB)\n",
              static_cast<unsigned long long>(wstats.rows),
              static_cast<unsigned long long>(wstats.blocks),
              static_cast<unsigned long long>(wstats.shards),
              static_cast<double>(wstats.bytes) / 1e6);
  print_repeats("equality", wstats);

  auto set_r = store::ShardSet::open(dir);
  if (!set_r.ok()) {
    std::fprintf(stderr, "FAIL: equality open: %s\n",
                 set_r.error_message().c_str());
    return 1;
  }
  const auto set = std::move(set_r).take();
  // Every shard's whole-file CRC, as the writer recorded it (folded from
  // its block CRCs), against a fresh pass over the bytes on disk.
  const auto verified = set.verify();
  if (!verified.ok()) {
    std::fprintf(stderr, "FAIL: equality verify: %s\n",
                 verified.error_message().c_str());
    return 1;
  }
  std::printf("equality: verify ok (%.1f MB of shards)\n",
              static_cast<double>(verified.value()) / 1e6);

  // Reference: the ConfigDatabase scans over the materialized database.
  core::ConfigDatabase db;
  const auto load = store::load_database(set, db, hw);
  if (!load.ok()) {
    std::fprintf(stderr, "FAIL: equality load: %s\n",
                 load.error_message().c_str());
    return 1;
  }
  const auto mopts = mix_options();
  std::vector<core::CarrierFigures> reference;
  for (const auto& [name, cells] : db.carriers())
    reference.push_back(oracle_figures(db, name, mopts));

  int failures = 0;
  std::vector<unsigned> thread_counts = {1, 2, 4, hw};
  std::sort(thread_counts.begin(), thread_counts.end());
  thread_counts.erase(
      std::unique(thread_counts.begin(), thread_counts.end()),
      thread_counts.end());
  for (const unsigned t : thread_counts) {
    char tag[32];
    std::snprintf(tag, sizeof tag, "memory threads %u", t);
    double t0 = now_seconds();
    const auto figures = core::analyze_database(db, mopts, t);
    int mism = compare_all(figures, reference, tag);
    if (t == 1 && !eq(core::pooled_gaps(figures),
                      core::measurement_decision_gaps(db))) {
      std::fprintf(stderr, "FAIL: [%s] pooled gaps differ\n", tag);
      ++mism;
    }
    failures += mism;
    std::printf("equality: in-memory threads %u -> %s (walk %.2f s)\n", t,
                mism ? "MISMATCH" : "bit-identical", now_seconds() - t0);

    // Same thread count, shard-direct: no database at all.
    store::FoldOptions fopts;
    fopts.threads = t;
    fopts.release_mapped = false;  // the store is re-read per thread count
    const store::DirectFold direct(set, fopts);
    char dtag[32];
    std::snprintf(dtag, sizeof dtag, "direct threads %u", t);
    int dmism = run_direct_mix(direct, &reference, dtag);
    if (!reference.empty())
      dmism += run_planned_checks(direct, db, reference.front(), dtag);
    failures += dmism;
    std::printf("equality: direct threads %u -> %s (fold %.2f s)\n", t,
                dmism ? "MISMATCH" : "bit-identical",
                direct.stats().fold_seconds);
  }
  return failures;
}

int run_soak_phase(const SoakOptions& opts, unsigned hw) {
  const std::string dir = opts.dir + "/world";
  const unsigned threads = opts.threads ? opts.threads : hw;
  int failures = 0;

  std::printf("soak: streaming scale %.2f world (visits %d, chunk %zu rows) "
              "into %s\n",
              opts.scale, opts.visits, opts.chunk_rows, dir.c_str());
  double t0 = now_seconds();
  netgen::StreamStats gen;
  const auto wstats = generate_store(opts, opts.scale, dir, &gen);
  const double write_s = now_seconds() - t0;
  std::printf("soak: %llu cells, %llu snapshots (%llu reused unchanged, "
              "%.1f %%), %llu rows -> %llu blocks, %llu shards, %.1f MB in "
              "%.1f s (%.1f Mrows/s); RSS %.1f MB\n",
              static_cast<unsigned long long>(gen.cells),
              static_cast<unsigned long long>(gen.snapshots),
              static_cast<unsigned long long>(gen.reused_visits),
              100.0 * static_cast<double>(gen.reused_visits) /
                  static_cast<double>(std::max<std::uint64_t>(1, gen.snapshots)),
              static_cast<unsigned long long>(gen.rows),
              static_cast<unsigned long long>(wstats.blocks),
              static_cast<unsigned long long>(wstats.shards),
              static_cast<double>(wstats.bytes) / 1e6, write_s,
              static_cast<double>(gen.rows) / 1e6 / write_s,
              static_cast<double>(current_rss_bytes()) / 1e6);
  print_repeats("soak", wstats);

  auto set_r = store::ShardSet::open(dir);
  if (!set_r.ok()) {
    std::fprintf(stderr, "FAIL: soak open: %s\n",
                 set_r.error_message().c_str());
    return failures + 1;
  }
  const auto set = std::move(set_r).take();
  if (set.total_rows() != gen.rows) {
    std::fprintf(stderr, "FAIL: manifest rows %llu != generated rows %llu\n",
                 static_cast<unsigned long long>(set.total_rows()),
                 static_cast<unsigned long long>(gen.rows));
    ++failures;
  }

  // Shard-direct mix through the cross-carrier scheduler: per-block CRC
  // checking happens inside the folds (manifest extras), so there is no
  // separate verify pass to fault the whole store through RSS, and no
  // database is ever materialized.
  store::FoldOptions fopts;
  fopts.threads = threads;
  const store::DirectFold direct(set, fopts);
  t0 = now_seconds();
  store::FoldStats total;
  failures += run_direct_mix(direct, nullptr, "soak", &total);
  std::printf("soak: direct fig 11-22 mix over %zu carriers in %.1f s "
              "(%llu cells, %llu block parses, %.1f MB read, peak window "
              "%llu blocks, CRC checked per block); RSS %.1f MB\n",
              direct.carriers().size(), now_seconds() - t0,
              static_cast<unsigned long long>(total.cells),
              static_cast<unsigned long long>(total.blocks),
              static_cast<double>(total.bytes) / 1e6,
              static_cast<unsigned long long>(total.peak_resident_blocks),
              static_cast<double>(current_rss_bytes()) / 1e6);

  // Planned single-carrier mix: the planner must confine the fold to
  // exactly the selected carrier's blocks — everything else is skipped
  // without being mapped or parsed.  Gate on the MEDIAN-sized carrier:
  // the skip fraction is 1 - carrier share by construction, so the
  // largest carrier (AT&T holds ~23% of a countrywide store) would
  // measure its own size, not planner precision.
  if (!direct.carriers().empty()) {
    std::vector<std::size_t> per_carrier(set.manifest().carriers.size(), 0);
    for (const auto& ref : set.blocks())
      ++per_carrier[ref.info->carrier_index];
    std::vector<std::uint32_t> by_size(per_carrier.size());
    for (std::uint32_t ci = 0; ci < by_size.size(); ++ci) by_size[ci] = ci;
    std::sort(by_size.begin(), by_size.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return per_carrier[a] < per_carrier[b];
              });
    const std::uint32_t carrier_index = by_size[by_size.size() / 2];
    const std::string& name = set.manifest().carriers[carrier_index];
    const std::size_t carrier_blocks = per_carrier[carrier_index];
    store::Query q;
    q.carriers = {name};
    t0 = now_seconds();
    auto planned = store::analyze_carrier(direct, name, mix_options(), q);
    if (!planned.ok()) {
      std::fprintf(stderr, "FAIL: planned analyze_carrier(%s): %s\n",
                   name.c_str(), planned.error_message().c_str());
      ++failures;
    } else {
      const auto& ps = planned.value().stats;
      const std::size_t total_blocks = set.blocks().size();
      const double skip_pct =
          total_blocks ? 100.0 * static_cast<double>(ps.blocks_skipped) /
                             static_cast<double>(total_blocks)
                       : 0.0;
      std::printf("soak: planned analyze_carrier(%s) in %.1f s: parsed "
                  "%llu/%zu blocks, skipped %llu (%.1f%%, %.1f MB never "
                  "mapped)\n",
                  name.c_str(), now_seconds() - t0,
                  static_cast<unsigned long long>(ps.blocks), total_blocks,
                  static_cast<unsigned long long>(ps.blocks_skipped),
                  skip_pct, static_cast<double>(ps.bytes_skipped) / 1e6);
      if (ps.blocks != carrier_blocks) {
        std::fprintf(stderr,
                     "FAIL: planned fold parsed %llu blocks, carrier owns "
                     "%zu\n",
                     static_cast<unsigned long long>(ps.blocks),
                     carrier_blocks);
        ++failures;
      }
      // The >= 90% skip gate only makes sense when the store actually has
      // many carriers (countrywide: 10+); tiny test worlds are exempt.
      if (set.manifest().carriers.size() >= 10 && skip_pct < 90.0) {
        std::fprintf(stderr,
                     "FAIL: planned single-carrier fold skipped only "
                     "%.1f%% of blocks (expected >= 90%%)\n",
                     skip_pct);
        ++failures;
      }
    }

    // Planned single-ParamKey values(): the push-down must decode
    // strictly fewer bytes than the fold parsed.
    const auto before = direct.stats();
    t0 = now_seconds();
    auto vals = direct.values(
        name, config::lte_param(config::ParamId::kServingPriority));
    const auto after = direct.stats();
    if (!vals.ok()) {
      std::fprintf(stderr, "FAIL: planned values(%s): %s\n", name.c_str(),
                   vals.error_message().c_str());
      ++failures;
    } else {
      const std::uint64_t parsed = after.bytes - before.bytes;
      const std::uint64_t skipped =
          8 * (after.values_skipped - before.values_skipped);
      std::printf("soak: planned values(%s, Ps) in %.1f s: "
                  "parsed %.1f MB, materialized %.1f MB (%.1f MB of "
                  "dropped observations' values)\n",
                  name.c_str(), now_seconds() - t0,
                  static_cast<double>(parsed) / 1e6,
                  static_cast<double>(parsed - skipped) / 1e6,
                  static_cast<double>(skipped) / 1e6);
      if (skipped == 0 || skipped >= parsed) {
        std::fprintf(stderr,
                     "FAIL: planned values() read %llu of %llu bytes "
                     "(expected 0 < read < parsed)\n",
                     static_cast<unsigned long long>(parsed - skipped),
                     static_cast<unsigned long long>(parsed));
        ++failures;
      }
    }
  }
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  SoakOptions opts;
  if (!parse_args(argc, argv, opts)) return 2;
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());

  std::error_code ec;
  std::filesystem::create_directories(opts.dir, ec);

  int failures = 0;
  if (opts.run_equality) failures += run_equality_phase(opts, hw);
  if (opts.run_soak) failures += run_soak_phase(opts, hw);

  const std::size_t peak = peak_rss_bytes();
  if (peak != 0) {
    std::printf("peak RSS %.1f MB (ceiling %zu MB)\n",
                static_cast<double>(peak) / 1e6, opts.mem_ceiling_mb);
    if (peak > opts.mem_ceiling_mb * 1000 * 1000) {
      std::fprintf(stderr, "FAIL: peak RSS %.1f MB exceeds ceiling %zu MB\n",
                   static_cast<double>(peak) / 1e6, opts.mem_ceiling_mb);
      ++failures;
    }
  }

  if (!opts.keep) std::filesystem::remove_all(opts.dir, ec);
  std::printf("%s\n", failures ? "SOAK FAILED" : "SOAK PASSED");
  return failures ? 1 : 0;
}
