// store_query: one analyst client in a closed loop against a countrywide-
// style store.  Set-up stream-generates the store (netgen::stream_world,
// scale 3, 8 visits per cell: ~34M rows) and opens one long-lived
// DirectFold with kThreads threads.  A seeded sequence then interleaves
// three query classes:
//   * the full fig11-22 mix, store::analyze_query(Query{});
//   * a planned one-carrier mix, store::analyze_carrier with the carrier
//     drawn from a seeded shuffle of all carriers (uniform coverage, so
//     most draws are small carriers and the tail is the AT&T-sized ones);
//   * a single-parameter DirectFold::values(carrier, key, Query{}).
// Every answer is checked against the first full mix.
#include <algorithm>
#include <filesystem>
#include <iterator>
#include <optional>
#include <stdexcept>

#include "bench.hpp"
#include "mmlab/netgen/profile.hpp"
#include "mmlab/netgen/streamgen.hpp"
#include "mmlab/store/analytics.hpp"
#include "mmlab/store/shard_writer.hpp"
#include "mmlab/util/rng.hpp"

namespace mmbench {
namespace {

using namespace mmlab;

// The store is fixed (like the dataset an analyst opens); the workload
// seed drives the query sequence.
constexpr std::uint64_t kStoreSeed = 42;
constexpr double kStoreScale = 3.0;
constexpr int kStoreVisits = 8;
constexpr int kSetupRepeats = 3;

/// netgen::SnapshotSink -> store::StreamingDatasetSink adapter.
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

void digest(Digest& d, const stats::ValueCounts& vc) {
  d.u64(vc.total());
  for (const auto& [v, n] : vc.counts()) {
    d.f64(v);
    d.u64(n);
  }
}
void digest(Digest& d, const std::map<long, stats::ValueCounts>& m) {
  d.u64(m.size());
  for (const auto& [k, vc] : m) {
    d.u64(static_cast<std::uint64_t>(k));
    digest(d, vc);
  }
}
void digest(Digest& d, const std::vector<double>& v) {
  d.u64(v.size());
  for (const double x : v) d.f64(x);
}
void digest(Digest& d, const stats::DiversityMeasures& m) {
  d.f64(m.simpson);
  d.f64(m.cv);
  d.u64(m.richness);
}

/// Bitwise digest of every fig11-22 product of one carrier (not the stats).
std::uint64_t products_digest(const store::CarrierAnalysis& a) {
  Digest d;
  d.u64(a.diversity.size());
  for (const auto& p : a.diversity) {
    d.u64(static_cast<std::uint64_t>(p.key.rat) << 16 | p.key.id);
    digest(d, p.measures);
    d.u64(p.cells);
  }
  d.u64(a.dependence.size());
  for (const auto& p : a.dependence) {
    d.u64(static_cast<std::uint64_t>(p.key.rat) << 16 | p.key.id);
    d.f64(p.zeta_simpson);
    d.f64(p.zeta_cv);
  }
  digest(d, a.serving_priority);
  digest(d, a.candidate_priority);
  d.f64(a.multi_priority_fraction);
  digest(d, a.priority_by_city);
  digest(d, a.spatial_diversity);
  digest(d, a.gaps.intra_minus_nonintra);
  digest(d, a.gaps.intra_minus_slow);
  digest(d, a.gaps.nonintra_minus_slow);
  return d.value();
}

std::uint64_t measures_digest(const stats::DiversityMeasures& m) {
  Digest d;
  digest(d, m);
  return d.value();
}

enum class QueryClass { kMixAll, kCarrierMix, kParamValues };

struct QuerySpec {
  QueryClass cls = QueryClass::kMixAll;
  std::size_t carrier = 0;  ///< index into the reference carriers
  config::ParamKey key;
};

/// The reference answer every later query is checked against.
struct Reference {
  std::vector<std::string> carriers;
  std::vector<std::uint64_t> products;  ///< per carrier
  /// Per carrier: parameter -> digest of its diversity measures.
  std::vector<std::map<config::ParamKey, std::uint64_t>> measures;
  std::uint64_t mix = 0;  ///< whole-answer digest
};

/// Per-class latencies and the layer counters one pass collects.
struct PassStats {
  Samples mix_all, carrier_mix, param_values, plan, straggler, skip_ratio;
  std::uint64_t peak_resident_blocks = 0;
  std::uint64_t values_bytes = 0;
  std::uint64_t values_skipped = 0;
  double wall_s = 0.0;
};

class StoreQuery {
 public:
  StoreQuery(const Args& args, Tracer& tracer)
      : args_(args), tracer_(tracer), dir_(args.work_dir + "/store_query.mmds2") {
    const auto cities = netgen::standard_cities();
    mopts_.cities = cities;
    mopts_.spatial = store::SpatialQuery{
        config::lte_param(config::ParamId::kServingPriority), cities.front(),
        2'000.0};
  }

  /// Generate, write and open the store; returns the set-up seconds.
  double setup() {
    direct_.reset();
    set_.reset();
    std::filesystem::remove_all(dir_);
    const auto t0 = Clock::now();
    {
      store::ShardWriter writer(dir_);
      store::StreamingDatasetSink sink(writer);
      StoreSink adapter(sink);
      netgen::StreamWorldOptions gopts;
      gopts.seed = kStoreSeed;
      gopts.scale = kStoreScale;
      gopts.visits_per_cell = kStoreVisits;
      traced(tracer_, "netgen.stream_world",
             [&] { return netgen::stream_world(gopts, adapter); });
      wstats_ = traced(tracer_, "store.StreamingDatasetSink.finish",
                       [&] { return sink.finish(); });
    }
    open_s_ = time_call([&] {
      auto set = traced(tracer_, "store.ShardSet.open",
                        [&] { return store::ShardSet::open(dir_); });
      if (!set.ok()) throw std::runtime_error(set.error_message());
      set_.emplace(std::move(set).take());
    });
    direct_.emplace(*set_, fold_options(kThreads, true));
    const double s = seconds_since(t0);
    flush_writes();
    return s;
  }

  const store::ShardSet& set() const { return *set_; }
  std::size_t carriers() const { return ref_.carriers.size(); }
  const store::WriteStats& write_stats() const { return wstats_; }
  double open_s() const { return open_s_; }

  static store::FoldOptions fold_options(unsigned threads, bool crc) {
    store::FoldOptions o;
    o.threads = threads;
    o.check_block_crc = crc;
    return o;
  }

  /// The first full mix: warms the page cache and fixes the reference.
  bool make_reference() {
    auto qa = store::analyze_query(*direct_, store::Query{}, mopts_);
    if (!check(qa.ok(), "reference analyze_query: " + qa.error_message()))
      return false;
    ref_.carriers = qa.value().carriers;
    Digest whole;
    for (const auto& a : qa.value().results) {
      ref_.products.push_back(products_digest(a));
      whole.u64(ref_.products.back());
      auto& m = ref_.measures.emplace_back();
      for (const auto& p : a.diversity) m[p.key] = measures_digest(p.measures);
    }
    ref_.mix = whole.value();
    return check(!ref_.carriers.empty(), "store has carriers");
  }

  /// The seeded query sequence: rounds of one full mix plus kPerRound
  /// carrier mixes and kPerRound single-parameter queries, shuffled.
  std::vector<QuerySpec> sequence(std::size_t rounds) const {
    constexpr int kPerRound = 4;
    Rng rng(args_.seed ^ 0x5157u);
    std::vector<std::size_t> mix_order, values_order;
    auto draw = [&](std::vector<std::size_t>& order) {
      if (order.empty()) {
        for (std::size_t i = 0; i < ref_.carriers.size(); ++i)
          order.push_back(i);
        rng.shuffle(order);
      }
      const std::size_t c = order.back();
      order.pop_back();
      return c;
    };
    std::vector<QuerySpec> out;
    for (std::size_t r = 0; r < rounds; ++r) {
      std::vector<QuerySpec> round{{QueryClass::kMixAll, 0, {}}};
      for (int i = 0; i < kPerRound; ++i) {
        round.push_back({QueryClass::kCarrierMix, draw(mix_order), {}});
        const std::size_t c = draw(values_order);
        const auto& keys = ref_.measures[c];
        auto it = keys.begin();
        std::advance(it, static_cast<long>(rng.below(keys.size())));
        round.push_back({QueryClass::kParamValues, c, it->first});
      }
      rng.shuffle(round);
      out.insert(out.end(), round.begin(), round.end());
    }
    return out;
  }

  /// Run `specs` (until `deadline` when given); returns the number run.
  std::size_t run(const std::vector<QuerySpec>& specs, Report& report,
                  PassStats& ps,
                  std::optional<Clock::time_point> deadline = std::nullopt) {
    const auto t0 = Clock::now();
    std::size_t n = 0;
    for (const auto& q : specs) {
      if (deadline && Clock::now() >= *deadline) break;
      report.operation(run_one(q, ps));
      ++n;
    }
    ps.wall_s = seconds_since(t0);
    return n;
  }

  /// Empty-consumer fold of the whole store at `threads`, CRC on or off.
  double empty_fold(unsigned threads, bool crc) {
    const store::DirectFold engine(*set_, fold_options(threads, crc));
    const store::QueryPlan plan(*set_, store::Query{});
    Samples s;
    for (int i = 0; i < 3; ++i) {
      s.add(time_call([&] {
        ScopedSpan span(tracer_, "store.DirectFold.fold_query");
        auto r = engine.fold_query(plan, [](std::size_t,
                                            const store::CarrierQueryPlan&) {
          return store::DirectFold::CellConsumer(
              [](std::uint32_t, const core::CellRecord&) {});
        });
        check(r.ok(), "empty-consumer fold: " + r.error_message());
      }));
    }
    return s.median();
  }

 private:
  bool run_one(const QuerySpec& q, PassStats& ps) {
    const std::string& name = ref_.carriers[q.carrier];
    switch (q.cls) {
      case QueryClass::kMixAll: {
        std::optional<Result<store::QueryAnalysis>> qa;
        const double s = time_call([&] {
          qa.emplace(traced(tracer_, "store.analyze_query", [&] {
            return store::analyze_query(*direct_, store::Query{}, mopts_);
          }));
        });
        ps.mix_all.add(s);
        if (!check(qa->ok(), "analyze_query: " + qa->error_message()))
          return false;
        const auto& v = qa->value();
        Digest whole;
        double slowest = 0.0;
        for (const auto& a : v.results) {
          whole.u64(products_digest(a));
          slowest = std::max(slowest, a.stats.fold_seconds);
        }
        ps.straggler.add(slowest / s);
        ps.peak_resident_blocks =
            std::max(ps.peak_resident_blocks, v.stats.peak_resident_blocks);
        return check(v.carriers == ref_.carriers && whole.value() == ref_.mix,
                     "full mix digest identical across repetitions");
      }
      case QueryClass::kCarrierMix: {
        store::Query query;
        query.carriers = {name};
        // The planner's cost and pruning, measured on a throwaway plan
        // (analyze_carrier builds its own from the same query).
        ps.plan.add(time_call([&] {
          ScopedSpan span(tracer_, "store.QueryPlan");
          const store::QueryPlan plan(*set_, query);
          ps.skip_ratio.add(static_cast<double>(plan.blocks_skipped()) /
                            static_cast<double>(set_->blocks().size()));
        }));
        std::optional<Result<store::CarrierAnalysis>> a;
        ps.carrier_mix.add(time_call([&] {
          a.emplace(traced(tracer_, "store.analyze_carrier", [&] {
            return store::analyze_carrier(*direct_, name, mopts_, query);
          }));
        }));
        if (!check(a->ok(), "analyze_carrier: " + a->error_message()))
          return false;
        return check(products_digest(a->value()) == ref_.products[q.carrier],
                     "planned mix of " + name + " == full-mix products");
      }
      case QueryClass::kParamValues: {
        const auto before = direct_->stats();
        std::optional<Result<stats::ValueCounts>> vc;
        ps.param_values.add(time_call([&] {
          vc.emplace(traced(tracer_, "store.DirectFold.values", [&] {
            return direct_->values(name, q.key, store::Query{});
          }));
        }));
        const auto after = direct_->stats();
        ps.values_bytes += after.bytes - before.bytes;
        ps.values_skipped += after.values_skipped - before.values_skipped;
        if (!check(vc->ok(), "values: " + vc->error_message())) return false;
        const auto it = ref_.measures[q.carrier].find(q.key);
        return check(it != ref_.measures[q.carrier].end() &&
                         measures_digest(stats::measure_diversity(
                             vc->value())) == it->second,
                     "values(" + name + ", " + config::param_name(q.key) +
                         ") == full-mix diversity");
      }
    }
    return false;
  }

  const Args& args_;
  Tracer& tracer_;
  std::string dir_;
  store::MixOptions mopts_;
  store::WriteStats wstats_;
  double open_s_ = 0.0;
  std::optional<store::ShardSet> set_;
  std::optional<store::DirectFold> direct_;
  Reference ref_;
};

/// Carrier-drawn samples cut to whole passes through the carrier list, so
/// every carrier weighs the same whatever the seed and the deadline.
Samples whole_passes(const Samples& s, std::size_t carriers) {
  return s.size() < carriers ? s : s.prefix(s.size() / carriers * carriers);
}

void class_metrics(const PassStats& ps, std::size_t carriers, Report& report,
                   bool layer) {
  auto put = [&](const std::string& n, double v) {
    if (layer)
      report.layer["store.query." + n] = v;
    else
      report.name(n, v, "ms");
  };
  put("mix_all_p50_ms", ps.mix_all.median() * 1e3);
  const Samples mix = whole_passes(ps.carrier_mix, carriers);
  const Samples values = whole_passes(ps.param_values, carriers);
  put("carrier_mix_p50_ms", mix.median() * 1e3);
  put("carrier_mix_p95_ms", mix.quantile(0.95) * 1e3);
  put("param_values_p50_ms", values.median() * 1e3);
  put("param_values_p95_ms", values.quantile(0.95) * 1e3);
}

}  // namespace

Report run_store_query(const Args& args, Tracer& tracer) {
  Report report;
  StoreQuery job(args, tracer);

  tracer.set_run(0);
  Samples setup;
  for (int i = 0; i < kSetupRepeats; ++i) setup.add(job.setup());
  const auto& ws = job.write_stats();
  std::printf("store: %llu rows, %llu blocks, %llu shards, %.1f MB; "
              "set-up %.2f s median of %d\n",
              static_cast<unsigned long long>(ws.rows),
              static_cast<unsigned long long>(ws.blocks),
              static_cast<unsigned long long>(ws.shards),
              static_cast<double>(ws.bytes) / 1e6, setup.median(),
              kSetupRepeats);
  report.operation(job.make_reference());

  // Enough rounds to outlast any budget; the deadline cuts the sequence.
  const auto specs = job.sequence(1000);
  const double budget = args.trace ? args.seconds / 2 : args.seconds;

  if (!args.trace) {
    PassStats ps;
    const std::size_t n = job.run(specs, report, ps, deadline_after(budget));
    report.e2e["setup_s"] = setup.median();
    report.e2e["peak_rss_mb"] = peak_rss_mb();
    report.e2e["wall_ms"] = ps.mix_all.median() * 1e3;
    report.name("setup_s", setup.median(), "s");
    report.name("peak_rss_mb", peak_rss_mb(), "MB");
    class_metrics(ps, job.carriers(), report, false);
    report.name("queries", static_cast<double>(n), "count");
    report.name("mix_all_samples", static_cast<double>(ps.mix_all.size()),
                "count");
    report.name("carrier_mix_samples",
                static_cast<double>(ps.carrier_mix.size()), "count");
    report.name("param_values_samples",
                static_cast<double>(ps.param_values.size()), "count");
    return report;
  }

  // Untraced pass, then the same queries traced: the difference is the
  // tracing overhead.
  tracer.set_run(1);
  tracer.set_enabled(false);
  PassStats plain;
  const std::size_t n = job.run(specs, report, plain, deadline_after(budget));
  tracer.set_enabled(true);
  tracer.set_run(2);
  PassStats traced_ps;
  job.run({specs.begin(), specs.begin() + static_cast<long>(n)}, report,
          traced_ps);
  class_metrics(plain, job.carriers(), report, true);
  report.layer["trace.overhead_s"] = traced_ps.wall_s - plain.wall_s;
  report.layer["trace.overhead_ratio"] =
      (traced_ps.wall_s - plain.wall_s) / plain.wall_s;
  report.layer["store.plan_s"] = traced_ps.plan.median();
  report.layer["store.plan.skip_ratio"] = traced_ps.skip_ratio.median();
  report.layer["store.fold.peak_resident_blocks"] =
      static_cast<double>(traced_ps.peak_resident_blocks);
  report.layer["store.fold.straggler_ratio"] = traced_ps.straggler.median();
  report.layer["store.fold.read_ratio"] =
      static_cast<double>(traced_ps.values_bytes -
                          8 * traced_ps.values_skipped) /
      static_cast<double>(traced_ps.values_bytes);
  report.layer["store.open_s"] = job.open_s();
  report.layer["store.blocks"] = static_cast<double>(job.set().blocks().size());
  const auto self = tracer.layer_self_seconds(2);
  report.layer["store.self_s"] =
      self.at("store") / static_cast<double>(n);

  // Decomposition: the fold alone (empty consumer), with and without the
  // per-block CRC, and the fold at one thread.
  tracer.set_run(3);
  const double fold4 = job.empty_fold(kThreads, true);
  const double fold4_nocrc = job.empty_fold(kThreads, false);
  report.layer["store.fold_s"] = fold4;
  report.layer["store.fold.crc_s"] = fold4 - fold4_nocrc;
  report.layer["store.analytics_self_s"] = plain.mix_all.median() - fold4;
  tracer.set_run(4);
  report.layer["store.fold.speedup_4v1"] = job.empty_fold(1, true) / fold4;
  const auto setup_self = tracer.layer_self_seconds(0);
  report.layer["netgen.self_s"] =
      setup_self.count("netgen") ? setup_self.at("netgen") / kSetupRepeats
                                 : 0.0;

  return report;
}

}  // namespace mmbench
